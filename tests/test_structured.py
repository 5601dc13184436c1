import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, spearmanr

from agreekit.dataset import pack_payloads
from agreekit.distances.structured import _inversions, ranking_batch, tree_batch
from agreekit.errors import DataError, UsageError
from agreekit.registry import make_spec
from agreekit.payloads import OrderedTree, Ranking, tree_from_nested

from conftest import make_tree, ranking_distance_oracle, tau_distance_oracle, ted_oracle


def tree(nested):
    return tree_from_nested(nested)


def rank(*order):
    return Ranking(order=tuple(order))


def tree_distance(a, b, variant="plain"):
    """The tree kernel on the one pair (a, b)."""
    return float(tree_batch([a, b], [0], [1], variant)[0])


def ranking_distance(a, b, mode="tau", k=5):
    """The ranking kernel on the one pair (a, b)."""
    return float(ranking_batch(pack_payloads("ranking", [a, b]), [0], [1], mode, k)[0])


def test_ted_identity_and_relabel():
    a = tree(["a", ["b", "c"]])
    assert tree_distance(a, a) == 0
    assert tree_distance(tree("a"), tree("b")) == 1
    assert tree_distance(tree("a"), tree(["a", ["x"]])) == 1


def test_ted_classic_rotation_case():
    # moving the subtree d(a b) under c costs one delete plus one insert
    t1 = tree(["f", [["d", ["a", ["c", ["b"]]]], "e"]])
    t2 = tree(["f", [["c", [["d", ["a", "b"]]]], "e"]])
    assert tree_distance(t1, t2) == 2


def deep_chain(depth, leaf="x"):
    """A root over depth - 1 single-child nodes down to leaf, built bottom-up."""
    node = OrderedTree(leaf)
    for _ in range(depth - 1):
        node = OrderedTree("x", (node,))
    return node


@pytest.mark.parametrize("variant, unequal", [("plain", 1.0), ("norm", 0.5), ("diff", 1.0)])
def test_ted_pins_equal_and_one_leaf_apart_chains(variant, unequal):
    chains = [deep_chain(40), deep_chain(40), deep_chain(40, leaf="y")]
    assert tree_batch(chains, [0, 0, 1], [1, 2, 2], variant).tolist() == [0.0, unequal, unequal]


def test_ted_chain_vs_star():
    chain = tree(["a", [["b", [["c", ["d"]]]]]])
    star = tree(["a", ["b", "c", "d"]])
    assert tree_distance(chain, star) == ted_oracle(chain, star)


def test_ted_matches_recursive_oracle_randomized(rng):
    for _ in range(150):
        a = make_tree(rng, max_nodes=7)
        b = make_tree(rng, max_nodes=7)
        assert tree_distance(a, b) == ted_oracle(a, b)


def test_ted_symmetry_and_triangle_randomized(rng):
    trees = [make_tree(rng, max_nodes=6) for _ in range(12)]
    for a, b in itertools.combinations(trees, 2):
        assert tree_distance(a, b) == tree_distance(b, a)
    for a, b, c in itertools.permutations(trees[:8], 3):
        assert tree_distance(a, c) <= tree_distance(a, b) + tree_distance(b, c)


def test_ted_variants():
    a = tree(["a", ["b", "c"]])
    relabeled = tree(["x", ["b", "c"]])
    grown = tree(["a", ["b", "c", "d"]])
    assert tree_distance(a, relabeled, "plain") == 1.0
    # norm divides by the total leaf count of both trees
    assert tree_distance(a, relabeled, "norm") == pytest.approx(1 / 4)
    assert tree_distance(a, grown, "norm") == pytest.approx(1 / 5)
    # diff subtracts the leaf-count difference from the edit count
    assert tree_distance(a, grown, "diff") == 0.0
    assert tree_distance(a, relabeled, "diff") == 1.0
    with pytest.raises(DataError, match="unknown tree distance variant 'fancy'"):
        tree_distance(a, a, "fancy")


def test_tree_kernel_walks_trees_deeper_than_the_recursion_limit():
    chain = OrderedTree(label="x")
    for _ in range(1200):
        chain = OrderedTree(label="x", children=(chain,))
    assert sys.getrecursionlimit() < 1201
    # keep the root and one node, relabeled to y, and delete the other 1,199
    trees, ia, ib = [chain, tree(["x", ["y"]])], [0, 1], [1, 0]
    assert tree_batch(trees, ia, ib, "plain").tolist() == [1200.0, 1200.0]
    assert tree_batch(trees, ia, ib, "norm").tolist() == [600.0, 600.0]
    assert tree_batch(trees, ia, ib, "diff").tolist() == [1200.0, 1200.0]


def test_ted_norm_can_exceed_one():
    # all-relabel chains have few leaves, so the normalized form is unbounded
    a = tree(["a", [["a", ["a"]]]])
    b = tree(["b", [["b", ["b"]]]])
    assert tree_distance(a, b, "norm") == pytest.approx(3 / 2)


def test_tau_basics():
    a = rank("x", "y", "z", "w")
    assert ranking_distance(a, a) == 0.0
    rev = rank("w", "z", "y", "x")
    assert ranking_distance(a, rev) == 1.0
    swap = rank("y", "x", "z", "w")
    assert ranking_distance(a, swap) == pytest.approx(1 / 6)


def test_tau_matches_pair_counting_oracle(rng):
    for n in (2, 3, 5, 9, 16, 17, 33, 40):
        for _ in range(10):
            a = [f"e{i}" for i in range(n)]
            b = list(a)
            rng.shuffle(a)
            rng.shuffle(b)
            got = ranking_distance(rank(*a), rank(*b))
            assert got == pytest.approx(tau_distance_oracle(a, b), abs=1e-12)


@pytest.mark.parametrize("top", [0, 255, 256, 65_536])
def test_inversions_match_pair_counting_in_each_block_dtype(top):
    # base blocks compare in the smallest unsigned type that holds the largest value:
    # uint8 up to 255, uint16 from 256, uint32 from 65,536; ties and block edges included
    rng = np.random.default_rng(top)
    for n in (1, 2, 15, 16, 17, 33, 40):
        y = rng.integers(0, top + 1, size=(12, n))
        y[0, 0] = top
        y[1] = y[1, 0]  # one row all ties
        want = [sum(int(r[i] > r[j]) for i in range(n) for j in range(i + 1, n)) for r in y]
        got = _inversions(y)
        assert got.dtype == np.int64 and got.tolist() == want


def test_tau_relabeling_invariance(rng):
    a = [f"e{i}" for i in range(8)]
    b = list(a)
    rng.shuffle(b)
    mapping = {e: f"renamed_{e}" for e in a}
    d1 = ranking_distance(rank(*a), rank(*b))
    d2 = ranking_distance(rank(*(mapping[e] for e in a)), rank(*(mapping[e] for e in b)))
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_rho_matches_scipy(rng):
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
            got = ranking_distance(rank(*a), rank(*b), "rho")
            assert got == pytest.approx((1.0 - rho) / 2.0, abs=1e-10)


def test_rho_reversal():
    a = rank("x", "y", "z")
    assert ranking_distance(a, rank("z", "y", "x"), "rho") == 1.0


def test_tau_at_k_disjoint_prefixes():
    a = rank(*[f"e{i}" for i in range(10)])
    b = rank(*[f"e{i}" for i in reversed(range(10))])
    # 9 discordant cross pairs, 3-way ties on both sides: tau-b = -0.75
    assert ranking_distance(a, b, "tau_at_k", 3) == pytest.approx(0.875, abs=1e-12)


def test_tau_at_k_ignores_the_tail():
    a = rank("e0", "e1", "e2", "e3", "e4", "e5")
    b = rank("e0", "e1", "e2", "e5", "e4", "e3")
    assert ranking_distance(a, b, "tau_at_k", 3) == 0.0
    assert ranking_distance(a, b) > 0.0


def test_tau_at_k_with_large_k_equals_tau(rng):
    a = [f"e{i}" for i in range(6)]
    b = list(a)
    rng.shuffle(b)
    full = ranking_distance(rank(*a), rank(*b))
    at_k = ranking_distance(rank(*a), rank(*b), "tau_at_k", 6)
    assert at_k == pytest.approx(full, abs=1e-12)


def test_ranking_universe_mismatch():
    with pytest.raises(DataError):
        ranking_distance(rank("a", "b"), rank("a", "c"))
    with pytest.raises(DataError):
        ranking_distance(rank("a", "b"), rank("a", "c"), "tau_at_k", 1)


def test_ranking_config_validation():
    with pytest.raises(DataError, match="unknown ranking distance mode 'borda'"):
        ranking_distance(rank("a", "b"), rank("b", "a"), "borda")
    with pytest.raises(UsageError, match="k must be an integer of at least 1, got 0"):
        make_spec("tau_at_k", "ranking", {"k": 0})


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
    n = len(a)
    # the pairs (a, b), (b, a), (a, a), one kernel call per configuration
    packed = pack_payloads("ranking", [rank(*a), rank(*b)])
    ia, ib = np.array([0, 1, 0]), np.array([1, 0, 0])
    tau = ranking_batch(packed, ia, ib, "tau")
    rho_d = ranking_batch(packed, ia, ib, "rho")
    # every k < n ties the tails, so tau-b runs on tied rank vectors
    at_k = [ranking_batch(packed, ia, ib, "tau_at_k", k) for k in range(1, n + 1)]
    for t, (x, y) in enumerate(((a, b), (b, a), (a, a))):
        va, vb = reference_rank_vectors(x, y, n)
        assert tau[t] == scipy_tau_distance(va, vb)
        rho = spearmanr(va, vb).statistic
        assert rho_d[t] == pytest.approx((1.0 - rho) / 2.0, abs=1e-12)
        for k in range(1, n + 1):
            assert at_k[k - 1][t] == scipy_tau_distance(*reference_rank_vectors(x, y, k))


@st.composite
def ranking_batches(draw):
    """Rankings over one universe of 1 to 40 elements, some repeated, and pairs of them.

    Past 16 elements, or k > 8 for tau_at_k, the inversion count merges sorted blocks."""
    universe = [f"e{i}" for i in range(draw(st.integers(1, 40)))]
    orders = draw(st.lists(st.permutations(universe), min_size=1, max_size=6))
    orders += orders[: draw(st.integers(0, len(orders)))]
    index = st.integers(0, len(orders) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=30))
    return [rank(*order) for order in orders], pairs


@settings(max_examples=200, deadline=None)
@given(batch=ranking_batches(), k=st.integers(1, 11))
@example(batch=([rank("e0")], [(0, 0)]), k=1)  # a one-element universe
@example(batch=([rank("a", "b", "c"), rank("a", "b", "c"), rank("b", "a", "c")],
                [(0, 1), (0, 2), (2, 0), (1, 1)]), k=1)  # identical rankings; k = 1
@example(batch=([rank("a", "b", "c"), rank("c", "a", "b")], [(0, 1), (1, 0)]), k=5)  # k > n
@example(batch=([rank(*"abcdef"), rank(*"fbdcea")], [(0, 1), (1, 0)]), k=2)  # tied tails
def test_ranking_batch_equals_loop(batch, k):
    payloads, pairs = batch
    ia, ib = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    for mode in ("tau", "rho", "tau_at_k"):
        loop = np.array([ranking_distance_oracle(payloads[i], payloads[j], mode, k)
                         for i, j in pairs])
        packed = pack_payloads("ranking", payloads)
        assert np.array_equal(ranking_batch(packed, ia, ib, mode, k), loop), mode


def test_ranking_batch_scores_each_universe_and_rejects_pairs_across_them():
    payloads = [rank("a", "b", "c"), rank("x", "y"), rank("c", "b", "a"), rank("y", "x")]
    ia, ib = np.array([0, 1, 2, 3]), np.array([2, 3, 2, 1])
    for mode in ("tau", "rho", "tau_at_k"):
        loop = [ranking_distance_oracle(payloads[i], payloads[j], mode, 1) for i, j in zip(ia, ib)]
        packed = pack_payloads("ranking", payloads)
        assert np.array_equal(ranking_batch(packed, ia, ib, mode, 1), loop)
        with pytest.raises(DataError) as scalar:
            ranking_distance_oracle(payloads[0], payloads[1], mode, 1)
        with pytest.raises(DataError) as batched:
            ranking_batch(packed, np.array([0, 0]), np.array([2, 1]), mode, 1)
        assert str(batched.value) == str(scalar.value)
