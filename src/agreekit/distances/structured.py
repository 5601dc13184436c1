"""Tree edit distance (three variants) and ranked-list distances."""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

from ..errors import DataError
from ..payloads import OrderedTree, Ranking


@dataclass(frozen=True)
class TedConfig:
    """Insertion, deletion, and relabel all cost 1; only the variant is configurable."""

    variant: str = "plain"

    def __post_init__(self) -> None:
        if self.variant not in ("plain", "norm", "diff"):
            raise DataError(f"unknown tree distance variant {self.variant!r}")


@dataclass(frozen=True)
class RankingConfig:
    mode: str = "tau"
    k: int = 5

    def __post_init__(self) -> None:
        if self.mode not in ("tau", "rho", "tau_at_k"):
            raise DataError(f"unknown ranking distance mode {self.mode!r}")
        if self.k < 1:
            raise DataError("k must be at least 1")


def _postorder(tree: OrderedTree) -> tuple[list[str], list[int]]:
    """Postorder labels and, per node, the postorder index of its leftmost leaf."""
    labels: list[str] = []
    lmld: list[int] = []

    def walk(node: OrderedTree) -> int:
        first_leaf = None
        for child in node.children:
            leaf = walk(child)
            if first_leaf is None:
                first_leaf = leaf
        idx = len(labels)
        labels.append(node.label)
        lmld.append(first_leaf if first_leaf is not None else idx)
        return lmld[idx]

    walk(tree)
    return labels, lmld


def _keyroots(lmld: list[int]) -> list[int]:
    # a keyroot is the highest node among those sharing a leftmost leaf
    seen: set[int] = set()
    roots: list[int] = []
    for i in range(len(lmld) - 1, -1, -1):
        if lmld[i] not in seen:
            seen.add(lmld[i])
            roots.append(i)
    roots.reverse()
    return roots


def tree_edit_distance(a: OrderedTree, b: OrderedTree) -> int:
    """Minimal unit-cost edit script length between ordered labeled trees.

    Standard keyroot/forest dynamic program over postorder numberings.
    """
    la, ra = _postorder(a)
    lb, rb = _postorder(b)
    na, nb = len(la), len(lb)
    td = [[0] * nb for _ in range(na)]

    for i in _keyroots(ra):
        for j in _keyroots(rb):
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
    return td[na - 1][nb - 1]


def tree_distance(a: OrderedTree, b: OrderedTree, cfg: TedConfig = TedConfig()) -> float:
    ted = tree_edit_distance(a, b)
    if cfg.variant == "plain":
        return float(ted)
    leaves_a, leaves_b = a.n_leaves(), b.n_leaves()
    if cfg.variant == "norm":
        return ted / (leaves_a + leaves_b)
    # diff: every unit edit changes the leaf count by at most one, so
    # |leaves_a - leaves_b| <= ted and the clamp below is a pure safeguard
    return float(max(0, ted - abs(leaves_a - leaves_b)))


def _tau_b(va: list[int], vb: list[int]) -> float:
    """Kendall tau-b by Knight's (1966) counting; 0.0 where it is undefined."""
    if va == vb:
        # bypass the float normalization so identical rankings score exactly 1
        return 1.0
    tot = len(va) * (len(va) - 1) // 2
    pairs = sorted(zip(va, vb))
    tied_a, tied_b, tied_ab = (
        sum(c * (c - 1) // 2 for c in Counter(v).values()) for v in (va, vb, pairs)
    )
    if tied_a == tot or tied_b == tot:
        return 0.0
    # after the sort by (a, b), a discordant pair is an inversion of b
    seen: list[int] = []
    dis = 0
    for _, y in pairs:
        dis += len(seen) - bisect.bisect_right(seen, y)
        bisect.insort(seen, y)
    con_minus_dis = tot - tied_a - tied_b + tied_ab - 2 * dis
    tau = con_minus_dis / math.sqrt(tot - tied_a) / math.sqrt(tot - tied_b)
    return min(1.0, max(-1.0, tau))


def ranking_distance(a: Ranking, b: Ranking, cfg: RankingConfig = RankingConfig()) -> float:
    """Rank disagreement in [0, 1]: (1 - correlation) / 2.

    All modes compare rank vectors over the union of both top-k prefixes,
    with everything outside a list's top k tied at rank k+1; tau and rho take
    k = n, the whole universe. tau and tau_at_k use tau-b (tie handling is
    moot on true permutations); rho is the Pearson correlation of the rank
    vectors.
    """
    if sorted(a.order) != sorted(b.order):
        raise DataError("rankings are over different element universes")
    k = cfg.k if cfg.mode == "tau_at_k" else len(a.order)
    top = sorted(set(a.order[:k]) | set(b.order[:k]))
    if len(top) < 2:
        return 0.0
    pos_a = {e: i for i, e in enumerate(a.order[:k])}
    pos_b = {e: i for i, e in enumerate(b.order[:k])}
    va = [pos_a.get(e, k) for e in top]
    vb = [pos_b.get(e, k) for e in top]
    if cfg.mode != "rho":
        return (1.0 - _tau_b(va, vb)) / 2.0
    mean = (len(va) - 1) / 2.0
    cov = sum((x - mean) * (y - mean) for x, y in zip(va, vb))
    var = sum((x - mean) ** 2 for x in va)
    return (1.0 - cov / var) / 2.0
