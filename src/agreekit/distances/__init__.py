"""Distance implementations grouped by payload family.

Each family has one implementation. The ranking, vector, box, keypoint, span
and object-count families are batch kernels (ranking_batch, vector_batch,
box_batch, oks_batch, ner_batch, count_diff_batch in their modules) that
score index arrays of pairs at once; the functions exported here are the
pair functions of the token and tree families, which have none. The
registry module wires both to names, parameters and metric-property flags,
and make_spec(...).fn scores one pair of any entry.
"""

from .vector_text import TokenEmbeddingTable, levenshtein_raw, translation_distance
from .structured import RankingConfig, TedConfig, tree_distance, tree_edit_distance

__all__ = [
    "RankingConfig",
    "TedConfig",
    "TokenEmbeddingTable",
    "levenshtein_raw",
    "translation_distance",
    "tree_distance",
    "tree_edit_distance",
]
