"""Distance implementations grouped by payload family.

Each family has one implementation. The ranking, vector, box-overlap, span
and object-count families are batch kernels (ranking_batch, vector_batch,
box_overlap_batch, ner_batch, count_diff_batch in their modules) that score
index arrays of pairs at once; the functions exported here are the pair functions of the
families without one. The registry module wires both to names, parameters
and metric-property flags, and make_spec(...).fn scores one pair of any entry.
"""

from .vector_text import TokenEmbeddingTable, levenshtein_raw, translation_distance
from .geometry import GeometryConfig, box_distance, keypoint_distance
from .multiobject import multi_object_distance
from .structured import RankingConfig, TedConfig, tree_distance, tree_edit_distance

__all__ = [
    "GeometryConfig",
    "RankingConfig",
    "TedConfig",
    "TokenEmbeddingTable",
    "box_distance",
    "keypoint_distance",
    "levenshtein_raw",
    "multi_object_distance",
    "translation_distance",
    "tree_distance",
    "tree_edit_distance",
]
