"""Tree edit distance (three variants) and ranked-list distances."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..dataset import Rankings
from ..errors import DataError
from ..payloads import OrderedTree


def _postorder(tree: OrderedTree) -> tuple[list[str], list[int], list[int], int]:
    """Postorder labels; per node, the postorder index of its leftmost leaf; the
    keyroots; and the leaf count. An explicit stack walks the tree, so any tree
    that loads prepares, however deep."""
    labels, lmld, stack = [], [], [(tree, None)]
    while stack:
        node, first_leaf = stack.pop()
        if first_leaf is None:
            # the subtree's first postorder node is its leftmost leaf
            stack.append((node, len(labels)))
            stack.extend((child, None) for child in reversed(node.children))
        else:
            labels.append(node.label)
            lmld.append(first_leaf)
    # a keyroot is the highest node among those sharing a leftmost leaf
    keyroots = sorted({leaf: i for i, leaf in enumerate(lmld)}.values())
    return labels, lmld, keyroots, sum(i == leaf for i, leaf in enumerate(lmld))


def _tree_distance(a, b, variant: str) -> float:
    """The variant's distance of two _postorder trees: the unit-cost edit distance by
    Zhang and Shasha's (1989) keyroot/forest dynamic program over postorder numberings,
    over the total leaf count (norm), or minus the leaf-count difference (diff)."""
    la, ra, keys_a, leaves_a = a
    lb, rb, keys_b, leaves_b = b
    na, nb = len(la), len(lb)
    td = [[0] * nb for _ in range(na)]

    for i in keys_a:
        for j in keys_b:
            # forest distance over postorder slices ra[i]..i and rb[j]..j
            ioff, joff = ra[i] - 1, rb[j] - 1
            m, n = i - ioff, j - joff
            fd = [[0] * (n + 1) for _ in range(m + 1)]
            for x in range(1, m + 1):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n + 1):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m + 1):
                for y in range(1, n + 1):
                    ni, nj = x + ioff, y + joff
                    if ra[ni] == ra[i] and rb[nj] == rb[j]:
                        # both prefixes are whole trees rooted at ni, nj
                        relabel = 0 if la[ni] == lb[nj] else 1
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + relabel,
                        )
                        td[ni][nj] = fd[x][y]
                    else:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[ra[ni] - 1 - ioff][rb[nj] - 1 - joff] + td[ni][nj],
                        )
    ted = td[na - 1][nb - 1]
    if variant == "norm":
        return ted / (leaves_a + leaves_b)
    if variant == "diff":
        # every unit edit changes the leaf count by at most one, so
        # |leaves_a - leaves_b| <= ted and the clamp below is a pure safeguard
        return max(0, ted - abs(leaves_a - leaves_b))
    return ted


def tree_batch(
    payloads: Sequence[OrderedTree], ia: np.ndarray, ib: np.ndarray, variant: str
) -> np.ndarray:
    """The unit-cost tree edit distance of each pair (payloads[ia[t]], payloads[ib[t]]) in
    the variant "plain", "norm" or "diff" (see _tree_distance).

    Every tree in a pair is walked once into its postorder labels, leftmost
    leaves, keyroots and leaf count; the dynamic program runs per pair.
    """
    if variant not in ("plain", "norm", "diff"):
        raise DataError(f"unknown tree distance variant {variant!r}")
    ia, ib = np.asarray(ia).tolist(), np.asarray(ib).tolist()
    prepared = {k: _postorder(payloads[k]) for k in set(ia) | set(ib)}
    dists = [_tree_distance(prepared[i], prepared[j], variant) for i, j in zip(ia, ib)]
    return np.array(dists, dtype=float)


def _inversions(y: np.ndarray) -> np.ndarray:
    """Per row, the pairs i < j with y[i] > y[j], by a bottom-up merge sort.

    Blocks of up to 16 are counted by direct comparison and sorted. Each
    further level sorts blocks whose two halves are sorted; tagging a value
    with its half keeps equal values left before right, so a right value is
    inverted with exactly the left values after it."""
    rows, n = y.shape
    width = 1 << (n - 1).bit_length()
    top = int(y.max(initial=0))
    z = np.full((rows, width), top, dtype=np.int32)  # equal padding adds no inversion
    z[:, :n] = y
    base = z.reshape(rows, -1, min(width, 16))
    # compared one offset at a time, positions first, in the smallest type that holds y (which
    # is nonnegative); a row of up to 16 is one block, and no pair needs its padding
    w = min(n, 16)
    by_position = np.moveaxis(base[:, :, :w], 2, 0).astype(np.min_scalar_type(top), order="C")
    in_block = np.zeros(base.shape[:2], dtype=np.uint8)  # at most 120 pairs
    for d in range(1, w):
        in_block += (by_position[:-d] > by_position[d:]).sum(axis=0, dtype=np.uint8)
    count = in_block.sum(axis=1, dtype=np.int64)
    half = base.shape[2]
    if half < width:
        base.sort(axis=2)
    while half < width:
        keyed = (z.reshape(rows, -1, 2 * half) << 1) | np.repeat(np.array([0, 1], np.int32), half)
        keyed.sort(axis=2)
        right = keyed & 1
        count += (right * (half - np.cumsum(1 - right, axis=2, dtype=np.int32))).sum(axis=(1, 2))
        z = keyed >> 1
        half *= 2
    return count


def _ranking_rows(
    ranks: np.ndarray, ia: np.ndarray, ib: np.ndarray, mode: str, k: int
) -> np.ndarray:
    """Distances of the ranking pairs (ia[t], ib[t]), rows of one universe's rank matrix.

    ranks[r, c] is ranking r's position of universe element c."""
    rows, n = ranks.shape
    if n < 2:
        return np.zeros(ia.size)
    order = np.empty_like(ranks)  # order[r, p]: the element ranking r puts at p
    order[np.arange(rows)[:, None], ranks] = np.arange(n)
    if mode == "rho":
        y = ranks[ib[:, None], order[ia]]
        # rank x sits 2x - (n - 1) half-steps from the mean, so four times the
        # covariance and the variance are integers, and their sums are exact
        centred = 2 * np.arange(n) - (n - 1)
        cov = ((2 * y - (n - 1)) * centred).sum(axis=1) / 4
        var = int((centred * centred).sum()) / 4
        return (1.0 - cov / var) / 2.0

    k = min(k, n) if mode == "tau_at_k" else n
    top_a = order[ia, :k]
    # b's ranks of a's top k in a's order, every rank from k on tied at k
    first = np.minimum(ranks[ib[:, None], top_a], k)
    if k < n:
        in_a = ranks[ia[:, None], order[ib, :k]] < k
        # b's top-k elements outside a's top k: a ties them at k after all of
        # its own, so in (a, b) order they follow in b's order; elements of both
        # prefixes are padded past every rank and count in no pair
        rest = np.sort(np.where(in_a, k + 1, np.arange(k)), axis=1)
        y = np.concatenate([first, rest], axis=1)
        only_a, only_b = (first == k).sum(axis=1), k - in_a.sum(axis=1)
    else:  # every rank is below k = n
        y = first
        only_a = only_b = np.zeros(ia.size, dtype=np.intp)

    # tau-b by Knight's (1966) counts; no element is outside both prefixes, so
    # no pair is tied in both
    m = k + only_b
    tot = m * (m - 1) // 2
    tied_a = only_b * (only_b - 1) // 2
    tied_b = only_a * (only_a - 1) // 2
    con_minus_dis = tot - tied_a - tied_b - 2 * _inversions(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.clip(con_minus_dis / np.sqrt(tot - tied_a) / np.sqrt(tot - tied_b), -1.0, 1.0)
    tau[(tied_a == tot) | (tied_b == tot)] = 0.0
    tau[(first == np.arange(k)).all(axis=1)] = 1.0
    dist = (1.0 - tau) / 2.0
    dist[m < 2] = 0.0
    return dist


def ranking_batch(
    rankings: Rankings,
    ia: np.ndarray,
    ib: np.ndarray,
    mode: str,
    k: int = 5,
) -> np.ndarray:
    """Rank disagreement (1 - correlation) / 2 of each pair of packed records (ia[t], ib[t]).

    Every mode compares rank vectors over the union of both top-k prefixes, with
    everything outside a list's top k tied at rank k + 1; tau and rho take k = n,
    the whole universe (k, which registry.make_spec checks is at least 1, is
    tau_at_k's alone). A union of fewer than two elements scores 0. tau and
    tau_at_k use tau-b, and identical rankings score exactly 0; rho is the Pearson
    correlation of the rank vectors. Rankings over different universes raise
    DataError.

    rankings is a dataset's packed Rankings (dataset.pack_payloads("ranking", payloads)
    packs a payload list). The records of each universe read their element codes as one
    matrix, and one argsort of it gives each record's rank of every universe element, as
    the codes order as the elements do; pairs gather them, one vectorized pass per universe.
    """
    if mode not in ("tau", "rho", "tau_at_k"):
        raise DataError(f"unknown ranking distance mode {mode!r}")
    counts, elements, code, _ = rankings
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    if (code[ia] != code[ib]).any():
        raise DataError("rankings are over different element universes")
    starts = np.cumsum(counts) - counts
    out = np.empty(ia.size)
    for u in np.flatnonzero(np.bincount(code[ia])).tolist():  # np.unique would import numpy.ma
        members = np.flatnonzero(code == u)
        local = np.empty(code.size, dtype=np.intp)
        local[members] = np.arange(members.size)
        pairs = np.flatnonzero(code[ia] == u)
        ranks = np.argsort(elements[starts[members, None] + np.arange(counts[members[0]])], axis=1)
        out[pairs] = _ranking_rows(ranks, local[ia[pairs]], local[ib[pairs]], mode, k)
    return out
