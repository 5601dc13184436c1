"""Distance implementations grouped by payload family.

Each family has one implementation, a batch kernel that scores index arrays of
pairs at once: vector_batch and translation_batch (vector_text), ranking_batch
and tree_batch (structured), box_batch and oks_batch (geometry), ner_batch and
count_diff_batch (multiobject). The registry module wires them to names,
parameters and metric-property flags, and make_spec(...).fn scores one pair of
any entry.
"""
