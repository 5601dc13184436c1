import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, spearmanr

from agreekit.distances.structured import (
    RankingConfig,
    TedConfig,
    ranking_distance,
    tree_distance,
    tree_edit_distance,
)
from agreekit.errors import DataError
from agreekit.payloads import Ranking, tree_from_nested

from conftest import make_tree, tau_distance_oracle, ted_oracle


def tree(nested):
    return tree_from_nested(nested)


def rank(*order):
    return Ranking(order=tuple(order))


def test_ted_identity_and_relabel():
    a = tree(["a", ["b", "c"]])
    assert tree_edit_distance(a, a) == 0
    assert tree_edit_distance(tree("a"), tree("b")) == 1
    assert tree_edit_distance(tree("a"), tree(["a", ["x"]])) == 1


def test_ted_classic_rotation_case():
    # moving the subtree d(a b) under c costs one delete plus one insert
    t1 = tree(["f", [["d", ["a", ["c", ["b"]]]], "e"]])
    t2 = tree(["f", [["c", [["d", ["a", "b"]]]], "e"]])
    assert tree_edit_distance(t1, t2) == 2


def test_ted_chain_vs_star():
    chain = tree(["a", [["b", [["c", ["d"]]]]]])
    star = tree(["a", ["b", "c", "d"]])
    assert tree_edit_distance(chain, star) == ted_oracle(chain, star)


def test_ted_matches_recursive_oracle_randomized(rng):
    for _ in range(150):
        a = make_tree(rng, max_nodes=7)
        b = make_tree(rng, max_nodes=7)
        assert tree_edit_distance(a, b) == ted_oracle(a, b)


def test_ted_symmetry_and_triangle_randomized(rng):
    trees = [make_tree(rng, max_nodes=6) for _ in range(12)]
    for a, b in itertools.combinations(trees, 2):
        assert tree_edit_distance(a, b) == tree_edit_distance(b, a)
    for a, b, c in itertools.permutations(trees[:8], 3):
        assert tree_edit_distance(a, c) <= tree_edit_distance(a, b) + tree_edit_distance(b, c)


def test_ted_variants():
    a = tree(["a", ["b", "c"]])
    relabeled = tree(["x", ["b", "c"]])
    grown = tree(["a", ["b", "c", "d"]])
    assert tree_distance(a, relabeled, TedConfig(variant="plain")) == 1.0
    # norm divides by the total leaf count of both trees
    assert tree_distance(a, relabeled, TedConfig(variant="norm")) == pytest.approx(1 / 4)
    assert tree_distance(a, grown, TedConfig(variant="norm")) == pytest.approx(1 / 5)
    # diff subtracts the leaf-count difference from the edit count
    assert tree_distance(a, grown, TedConfig(variant="diff")) == 0.0
    assert tree_distance(a, relabeled, TedConfig(variant="diff")) == 1.0
    with pytest.raises(DataError):
        TedConfig(variant="fancy")


def test_ted_norm_can_exceed_one():
    # all-relabel chains have few leaves, so the normalized form is unbounded
    a = tree(["a", [["a", ["a"]]]])
    b = tree(["b", [["b", ["b"]]]])
    assert tree_distance(a, b, TedConfig(variant="norm")) == pytest.approx(3 / 2)


def test_tau_basics():
    a = rank("x", "y", "z", "w")
    assert ranking_distance(a, a) == 0.0
    rev = rank("w", "z", "y", "x")
    assert ranking_distance(a, rev) == 1.0
    swap = rank("y", "x", "z", "w")
    assert ranking_distance(a, swap) == pytest.approx(1 / 6)


def test_tau_matches_pair_counting_oracle(rng):
    for n in (2, 3, 5, 9, 40):
        for _ in range(10):
            a = [f"e{i}" for i in range(n)]
            b = list(a)
            rng.shuffle(a)
            rng.shuffle(b)
            got = ranking_distance(rank(*a), rank(*b))
            assert got == pytest.approx(tau_distance_oracle(a, b), abs=1e-12)


def test_tau_relabeling_invariance(rng):
    a = [f"e{i}" for i in range(8)]
    b = list(a)
    rng.shuffle(b)
    mapping = {e: f"renamed_{e}" for e in a}
    d1 = ranking_distance(rank(*a), rank(*b))
    d2 = ranking_distance(rank(*(mapping[e] for e in a)), rank(*(mapping[e] for e in b)))
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_rho_matches_scipy(rng):
    cfg = RankingConfig(mode="rho")
    for n in (2, 4, 7, 25):
        for _ in range(10):
            a = [f"e{i}" for i in range(n)]
            b = list(a)
            rng.shuffle(a)
            rng.shuffle(b)
            pos_a = {e: i for i, e in enumerate(a)}
            pos_b = {e: i for i, e in enumerate(b)}
            universe = sorted(a)
            rho = spearmanr([pos_a[e] for e in universe], [pos_b[e] for e in universe]).statistic
            got = ranking_distance(rank(*a), rank(*b), cfg)
            assert got == pytest.approx((1.0 - rho) / 2.0, abs=1e-10)


def test_rho_reversal():
    a = rank("x", "y", "z")
    assert ranking_distance(a, rank("z", "y", "x"), RankingConfig(mode="rho")) == 1.0


def test_tau_at_k_disjoint_prefixes():
    a = rank(*[f"e{i}" for i in range(10)])
    b = rank(*[f"e{i}" for i in reversed(range(10))])
    cfg = RankingConfig(mode="tau_at_k", k=3)
    # 9 discordant cross pairs, 3-way ties on both sides: tau-b = -0.75
    assert ranking_distance(a, b, cfg) == pytest.approx(0.875, abs=1e-12)


def test_tau_at_k_ignores_the_tail():
    a = rank("e0", "e1", "e2", "e3", "e4", "e5")
    b = rank("e0", "e1", "e2", "e5", "e4", "e3")
    cfg = RankingConfig(mode="tau_at_k", k=3)
    assert ranking_distance(a, b, cfg) == 0.0
    assert ranking_distance(a, b) > 0.0


def test_tau_at_k_with_large_k_equals_tau(rng):
    a = [f"e{i}" for i in range(6)]
    b = list(a)
    rng.shuffle(b)
    full = ranking_distance(rank(*a), rank(*b))
    at_k = ranking_distance(rank(*a), rank(*b), RankingConfig(mode="tau_at_k", k=6))
    assert at_k == pytest.approx(full, abs=1e-12)


def test_ranking_universe_mismatch():
    with pytest.raises(DataError):
        ranking_distance(rank("a", "b"), rank("a", "c"))
    with pytest.raises(DataError):
        ranking_distance(rank("a", "b"), rank("a", "c"), RankingConfig(mode="tau_at_k", k=1))


def test_ranking_config_validation():
    with pytest.raises(DataError):
        RankingConfig(mode="borda")
    with pytest.raises(DataError):
        RankingConfig(mode="tau_at_k", k=0)


def reference_rank_vectors(a, b, k):
    """Ranks over the union of both top-k prefixes; k for anything outside a list's top k."""
    top = sorted(set(a[:k]) | set(b[:k]))
    return ([a[:k].index(e) if e in a[:k] else k for e in top],
            [b[:k].index(e) if e in b[:k] else k for e in top])


def scipy_tau_distance(va, vb):
    # identical rankings are exactly 0; scipy's float normalization can miss 1 by an ulp
    if len(va) < 2 or va == vb:
        return 0.0
    tau = kendalltau(va, vb).statistic
    return (1.0 - (0.0 if math.isnan(tau) else tau)) / 2.0


@st.composite
def ranking_pairs(draw):
    universe = [f"e{i}" for i in range(draw(st.integers(2, 60)))]
    return draw(st.permutations(universe)), draw(st.permutations(universe))


@settings(max_examples=100, deadline=None)
@given(orders=ranking_pairs())
def test_ranking_distance_equals_scipy_reference(orders):
    a, b = orders
    for x, y in ((a, b), (b, a), (a, a)):
        n = len(x)
        va, vb = reference_rank_vectors(x, y, n)
        assert ranking_distance(rank(*x), rank(*y)) == scipy_tau_distance(va, vb)
        rho = spearmanr(va, vb).statistic
        got = ranking_distance(rank(*x), rank(*y), RankingConfig(mode="rho"))
        assert got == pytest.approx((1.0 - rho) / 2.0, abs=1e-12)
        # every k < n ties the tails, so tau-b runs on tied rank vectors
        for k in range(1, n + 1):
            got = ranking_distance(rank(*x), rank(*y), RankingConfig(mode="tau_at_k", k=k))
            assert got == scipy_tau_distance(*reference_rank_vectors(x, y, k))
