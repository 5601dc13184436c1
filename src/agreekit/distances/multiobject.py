"""Lifting single-object distances to whole annotations (sets of objects).

The min-match lift averages, over the objects of one set, each object's
minimum distance into the other set, then symmetrizes by averaging both
directions. It deliberately uses per-object minima rather than a global
assignment. Note the lift does not preserve the triangle inequality even for
a metric inner distance, so every lifted registry entry is a dissimilarity.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from ..dataset import Boxes, Keypoints, Spans


def _blocks(counts: Sequence[int], ia: np.ndarray, ib: np.ndarray) -> tuple:
    """The object-pair cells of each pair (ia[t], ib[t]) of object sets, as flat arrays.

    Objects are numbered payload by payload, counts[p] of them for payload p. Returns
    (out, full, na, nb, ga, gb, rows, by_col, cols): out is every pair's value under the
    empty-set rule (0 when both sets are empty, 1 when one is), full the pairs whose sets
    are both non-empty, and na, nb their sizes. Each full pair's |A|x|B| block is laid out
    row-major: cell k pairs object ga[k] of A with object gb[k] of B, and each row starts
    at an entry of rows. by_col takes the cells column-major, each column starting at an
    entry of cols.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    first = np.cumsum(counts) - counts
    na, nb = counts[ia], counts[ib]
    out = np.where((na == 0) & (nb == 0), 0.0, 1.0)
    full = np.flatnonzero((na > 0) & (nb > 0))
    na, nb = na[full], nb[full]
    size = na * nb
    start = np.cumsum(size) - size
    pair = np.repeat(np.arange(full.size), size)
    cell = np.arange(pair.size) - start[pair]
    row, col = np.divmod(cell, nb[pair])
    ga, gb = first[ia[full]][pair] + row, first[ib[full]][pair] + col
    rows = np.flatnonzero(col == 0)
    # the same cells column-major: cell number k holds (row k % |A|, column k // |A|)
    col, row = np.divmod(cell, na[pair])
    by_col = start[pair] + row * nb[pair] + col
    return out, full, na, nb, ga, gb, rows, by_col, np.flatnonzero(row == 0)


def _mean_in_order(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The mean of each run of sizes[k] consecutive values, each run added left to right.

    Step j adds the j-th value of every run that has one, so each run is summed in object
    order from 0.0, as a plain Python loop sums it, on every Python version.
    """
    first, total = np.cumsum(sizes) - sizes, np.zeros(sizes.size)
    for j in range(int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > j)
        total[live] += values[first[live] + j]
    return total / sizes


def min_match_batch(
    counts: np.ndarray, ia: np.ndarray, ib: np.ndarray, inner: Callable
) -> np.ndarray:
    """Symmetrized mean-of-minima lift of `inner` to each pair (ia[t], ib[t]) of object sets.

    Objects are numbered payload by payload, counts[p] of them for payload p, and
    inner(ga, gb) scores the objects ga[e] and gb[e] elementwise; it must be bounded
    by 1 and bitwise symmetric. Both sets empty is perfect agreement (0); exactly one
    empty is maximal disagreement about existence (1). Otherwise each object pair of
    the _blocks layout is scored once; its rows give the A -> B minima and its columns
    the B -> A minima, both by np.minimum.reduceat.
    """
    out, full, na, nb, ga, gb, rows, by_col, cols = _blocks(counts, ia, ib)
    if full.size:
        d = inner(ga, gb)
        d_ab = _mean_in_order(np.minimum.reduceat(d, rows), na)
        d_ba = _mean_in_order(np.minimum.reduceat(d[by_col], cols), nb)
        out[full] = (d_ab + d_ba) / 2.0
    return out


def count_diff_batch(
    packed: Union[Boxes, Keypoints, Spans], ia: np.ndarray, ib: np.ndarray, normalize: bool
) -> np.ndarray:
    """|#A - #B| of the object sets of each pair (ia[t], ib[t]) of packed records.

    normalize divides it by max(#A, #B, 1). Counts are exact small integers, so
    the one division is correctly rounded.
    """
    counts = packed.counts.astype(np.int64)
    na, nb = counts[ia], counts[ib]
    diff = np.abs(na - nb)
    if not normalize:
        return diff.astype(float)
    return diff / np.maximum(np.maximum(na, nb), 1)


def ner_batch(
    packed: Spans,
    ia: np.ndarray,
    ib: np.ndarray,
    range_strict: bool,
    tag_strict: bool,
) -> np.ndarray:
    """Span-set distance of each pair (ia[t], ib[t]) of packed records, in [0, 1].

    D = 1 - 2*S_ab*S_ba / (S_ab + S_ba), the inverted harmonic mean of the two
    directional similarities; both directions zero means distance 1. Both sets
    empty is 0; exactly one empty is 1. S_ab is the mean over a's spans of the share
    of each span's tokens covered by b's usable spans: those of its tag when tag_strict,
    and of its very range when range_strict (so a span then scores 0 or 1). Each span
    is scored on its row (or column) of the _blocks cells of the min-match lift.
    """
    out, full, na, nb, ga, gb, rows, by_col, cols = _blocks(packed.counts, ia, ib)
    if not full.size:
        return out
    start, end, tag = packed.start, packed.end, packed.tag
    usable = tag[ga] == tag[gb] if tag_strict else np.ones(ga.size, dtype=bool)
    if range_strict:
        usable &= (start[ga] == start[gb]) & (end[ga] == end[gb])
    # one run of cells per span, the rows and then the columns, clips each other span to its
    # own offsets as [lo, hi), empty when unusable. The others come sorted by start, so a running
    # max of hi sweeps their union; the runs are shifted end to end, so they never mix in it.
    own, other = np.concatenate((ga, gb[by_col])), np.concatenate((gb, ga[by_col]))
    usable, runs = np.concatenate((usable, usable[by_col])), np.concatenate((rows, ga.size + cols))
    first, width = start[own], (end - start)[own]
    lo = np.clip(start[other] - first, 0, width)
    hi = np.where(usable, np.clip(end[other] - first, lo, width), lo)
    run_width = width[runs]
    shift = np.repeat(np.cumsum(run_width) - run_width, np.diff(runs, append=own.size))
    reach = np.maximum.accumulate(hi + shift)
    gain = reach - np.maximum(lo + shift, np.concatenate(([0], reach[:-1])))
    score = np.add.reduceat(gain, runs) / run_width
    s_ab, s_ba = _mean_in_order(score[:rows.size], na), _mean_in_order(score[rows.size:], nb)
    total = s_ab + s_ba
    out[full] = 1.0 - np.divide(2.0 * s_ab * s_ba, total, out=np.zeros_like(total), where=total > 0)
    return out
