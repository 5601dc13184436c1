import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit.dataset import pack_payloads
from agreekit.distances.vector_text import TokenEmbeddingTable, translation_batch, vector_batch
from agreekit.errors import DataError
from agreekit.payloads import NumericVector, TokenSequence

from conftest import levenshtein_raw as full_dp_levenshtein
from conftest import translation_distance as translation_oracle
from conftest import vector_distance_oracle

UNIT = [(0.0, 1.0)] * 6


def vec(*values):
    return NumericVector(values=tuple(values))


def vector_distance(a, b, mode, ranges=None):
    """The vector kernel on the one pair (a, b)."""
    return float(vector_batch(pack_payloads("vector", [a, b]), [0], [1], mode, ranges)[0])


def toks(*tokens, sid=None):
    return TokenSequence(tokens=tuple(tokens), sentence_id=sid)


def translation_distance(a, b, mode, *, raw=False, embeddings=None):
    """The token kernel on the one pair (a, b)."""
    return float(translation_batch([a, b], [0], [1], mode, raw, embeddings)[0])


def levenshtein_raw(a, b):
    """The token kernel's raw edit distance of the one pair of token tuples (a, b)."""
    return translation_distance(toks(*a), toks(*b), "levenshtein", raw=True)


def test_binary_fraction_unequal():
    a = vec(1.0, 2.0, 3.0, 4.0)
    b = vec(1.0, 9.0, 3.0, 8.0)
    assert vector_distance(a, b, "binary") == 0.5
    assert vector_distance(a, a, "binary") == 0.0


def test_euclidean_single_dimension_offset():
    a = vec(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    b = vec(0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert vector_distance(a, b, "euclidean", UNIT) == pytest.approx(
        math.sqrt(0.25 / 6), abs=1e-12
    )


def test_euclidean_normalizes_by_range_width():
    a = vec(0.0)
    b = vec(5.0)
    assert vector_distance(a, b, "euclidean", [(0.0, 10.0)]) == pytest.approx(0.5)
    with pytest.raises(DataError):
        vector_distance(a, b, "euclidean", None)
    with pytest.raises(DataError):
        vector_distance(a, b, "euclidean", [(0.0, 0.0)])


def test_vector_length_mismatch():
    with pytest.raises(DataError):
        vector_distance(vec(1.0), vec(1.0, 2.0), "binary")


def test_levenshtein_raw_basics():
    assert levenshtein_raw((), ()) == 0
    assert levenshtein_raw(("a",), ()) == 1
    assert levenshtein_raw(("the", "cat", "sat"), ("the", "dog", "sat")) == 1
    assert levenshtein_raw(("a", "b", "c"), ("b", "c", "d")) == 2


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.sampled_from("abc"), max_size=90), b=st.lists(st.sampled_from("abc"), max_size=90))
def test_bit_vector_levenshtein_equals_the_full_dp(a, b):
    # up to 90 tokens: bit vectors of several 30-bit int digits, patterns longer and shorter
    assert levenshtein_raw(a, b) == full_dp_levenshtein(a, b)
    want = full_dp_levenshtein(a, b) / max(len(a), len(b), 1)
    assert translation_distance(toks(*a), toks(*b), "levenshtein") == want


def test_levenshtein_normalized():
    a = toks("the", "cat", "sat")
    b = toks("the", "dog", "sat")
    assert translation_distance(a, b, "levenshtein") == pytest.approx(1 / 3)
    assert translation_distance(a, b, "levenshtein", raw=True) == 1.0
    assert translation_distance(toks(), toks(), "levenshtein") == 0.0


def test_normalized_levenshtein_triangle_violation():
    # the reason the normalized variant is registered as a dissimilarity
    x, y, z = toks("a", "b"), toks("a", "b", "a"), toks("b", "a")
    d = lambda p, q: translation_distance(p, q, "levenshtein")
    assert d(x, z) == 1.0
    assert d(x, y) + d(y, z) == pytest.approx(2 / 3)
    assert d(x, z) > d(x, y) + d(y, z)


def test_bleu_distance_frozen_arithmetic():
    a = toks("the", "cat", "sat", "on", "the", "mat")
    b = toks("the", "cat", "on", "the", "mat")
    # forward: precisions 5/6, 3/5, 1/4, smoothed ln(6)/30, brevity penalty 1
    s_ab = math.exp(
        0.25 * (math.log(5 / 6) + math.log(3 / 5) + math.log(1 / 4) + math.log(math.log(6) / 30))
    )
    # backward: precisions 1, 3/4, 1/3, smoothed ln(5)/20, brevity exp(1 - 6/5)
    s_ba = math.exp(-0.2) * math.exp(
        0.25 * (math.log(3 / 4) + math.log(1 / 3) + math.log(math.log(5) / 20))
    )
    expected = 1.0 - (s_ab + s_ba) / 2.0
    assert translation_distance(a, b, "bleu") == pytest.approx(expected, abs=1e-12)
    assert translation_distance(b, a, "bleu") == pytest.approx(expected, abs=1e-12)


def test_bleu_short_sentences_reweigh_orders():
    a = toks("x", "y")
    b = toks("x", "z")
    # orders 1..2 only: precisions 1/2 and smoothed ln(2)/10, so sqrt(ln2/20)
    expected = 1.0 - math.sqrt(0.5 * math.log(2) / 10)
    assert translation_distance(a, b, "bleu") == pytest.approx(expected, abs=1e-12)
    assert translation_distance(a, a, "bleu") == 0.0
    assert translation_distance(toks("q"), toks("q"), "bleu") == 0.0


def test_bleu_no_unigram_overlap_is_max_distance():
    assert translation_distance(toks("a", "b"), toks("c", "d"), "bleu") == 1.0


def test_gleu_distance_frozen_arithmetic():
    a = toks("the", "cat", "sat", "on", "the", "mat")
    b = toks("the", "cat", "on", "the", "mat")
    # pooled clipped matches 5+3+1+0 = 9; n-gram totals 18 vs 14
    assert translation_distance(a, b, "gleu") == pytest.approx(1.0 - 9 / 18, abs=1e-12)
    assert translation_distance(toks("x", "y"), toks("x", "z"), "gleu") == pytest.approx(
        1.0 - 1 / 3, abs=1e-12
    )
    assert translation_distance(a, a, "gleu") == 0.0


# one to three tokens reweigh BLEU's orders; two words give repeated n-grams, whose clipped
# counts the kernel counts once per pair
short_or_repeating = (st.lists(st.sampled_from("ab"), min_size=1, max_size=3)
                      | st.lists(st.sampled_from("ab"), min_size=4, max_size=12))


@settings(max_examples=200, deadline=None)
@given(sequences=st.lists(short_or_repeating, min_size=2, max_size=6), data=st.data())
def test_bleu_and_gleu_equal_the_sentence_oracle(sequences, data):
    payloads = [toks(*tokens) for tokens in sequences]
    index = st.integers(0, len(payloads) - 1)
    ia, ib = zip(*data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12)))
    for mode in ("bleu", "gleu"):
        got = translation_batch(payloads, np.array(ia), np.array(ib), mode).tolist()
        want = [translation_oracle(payloads[i], payloads[j], mode) for i, j in zip(ia, ib)]
        assert list(map(float.hex, got)) == list(map(float.hex, want)), mode


def test_bleu_gleu_reject_empty_sequences():
    for mode in ("bleu", "gleu"):
        with pytest.raises(DataError):
            translation_distance(toks(), toks("x"), mode)


def test_embedding_f1():
    table = TokenEmbeddingTable(
        {"s1": [[1.0, 0.0], [0.0, 1.0]], "s2": [[1.0, 0.0], [1.0, 0.0]]}
    )
    a = toks("u", "v", sid="s1")
    b = toks("w", "q", sid="s2")
    # cosine rows against s2: [1, 1] and [0, 0] -> P = 0.5, R = 1, F1 = 2/3
    assert translation_distance(a, b, "embedding_f1", embeddings=table) == pytest.approx(1 / 3)
    assert translation_distance(a, a, "embedding_f1", embeddings=table) == 0.0


def test_embedding_lookup_errors_name_the_gap():
    table = TokenEmbeddingTable({"s1": [[1.0, 0.0]]})
    with pytest.raises(DataError, match="no embeddings"):
        translation_distance(
            toks("u", sid="zz"), toks("u", sid="s1"), "embedding_f1", embeddings=table
        )
    with pytest.raises(DataError, match="'v'"):
        translation_distance(
            toks("u", "v", sid="s1"), toks("u", sid="s1"), "embedding_f1", embeddings=table
        )


S1, S2 = toks("u", "v", sid="s1"), toks("w", sid="s2")
EMPTY, UNKNOWN, SHORT, NO_ID = toks(sid="s2"), toks("u", sid="zz"), toks("u", "v", sid="s2"), toks("u")


@pytest.mark.parametrize("mode, pairs", [
    ("bleu", [(S1, S2), (S1, EMPTY)]),
    ("gleu", [(S1, S2), (EMPTY, S1)]),
    ("embedding_f1", [(S1, S2), (S1, EMPTY)]),
    ("embedding_f1", [(S1, S2), (S1, UNKNOWN)]),
    ("embedding_f1", [(S1, S2), (SHORT, S1)]),
    ("embedding_f1", [(S1, S2), (S2, NO_ID)]),
    ("embedding_f1", [(UNKNOWN, EMPTY), (NO_ID, S1)]),  # a pair's empty sequence comes first
    ("embedding_f1", [(UNKNOWN, NO_ID)]),  # then the first sequence's lookup
])
def test_translation_batch_raises_what_the_loop_raises(mode, pairs):
    table = TokenEmbeddingTable({"s1": [[1.0, 0.0], [0.0, 1.0]], "s2": [[1.0, 0.0]]})
    payloads = [p for pair in pairs for p in pair]
    ia, ib = np.arange(0, len(payloads), 2), np.arange(1, len(payloads), 2)
    with pytest.raises(DataError) as loop:
        [translation_oracle(payloads[i], payloads[j], mode, embeddings=table) for i, j in zip(ia, ib)]
    with pytest.raises(DataError) as batched:
        translation_batch(payloads, ia, ib, mode, embeddings=table)
    assert str(batched.value) == str(loop.value)


def test_embedding_f1_looks_up_only_sequences_in_a_pair():
    table = TokenEmbeddingTable({"s1": [[1.0, 0.0], [0.0, 1.0]], "s2": [[1.0, 0.0]]})
    payloads = [S1, UNKNOWN, S2, NO_ID]
    got = translation_batch(payloads, [0, 2, 0], [2, 0, 0], "embedding_f1", embeddings=table)
    assert got.tolist() == [translation_oracle(payloads[i], payloads[j], "embedding_f1",
                                               embeddings=table) for i, j in [(0, 2), (2, 0), (0, 0)]]


@pytest.mark.parametrize("row", [[1e155, 0.0], [1e154, 1e154], [-1e308, 5e-324]])
def test_an_embedding_row_whose_squared_norm_overflows_is_rejected(row):
    # it scored an identical pair 1: inf / inf made every cosine nan, and nan F1 counted 0
    with pytest.raises(DataError, match="sentence 's' have a row whose squared norm overflows"):
        TokenEmbeddingTable({"s": [[1.0, 0.0], row]})


def test_the_largest_embedding_rows_score_an_identical_pair_zero():
    a = toks("u", "v", sid="s")
    table = TokenEmbeddingTable({"s": [[1e154, 0.0], [0.0, -1e154]]})
    assert translation_distance(a, a, "embedding_f1", embeddings=table) == 0.0


def test_embedding_dimension_mismatch_rejected():
    with pytest.raises(DataError):
        TokenEmbeddingTable({"s1": [[1.0, 0.0]], "s2": [[1.0, 0.0, 0.0]]})


@pytest.mark.parametrize(
    "payloads, mode, ranges",
    [
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3)], "binary", None),  # second pair: lengths
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3)], "euclidean", UNIT[:2]),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", None),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", UNIT[:3]),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", [(0.0, 1.0), (2.0, 2.0)]),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "manhattan", None),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", [(0.0, math.inf), (2.0, 2.0)]),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", [(0.0, 1.0), (-math.inf, 1.0)]),
        ([vec(0.1, 0.2), vec(0.5, 0.9), vec(0.3, 0.4)], "euclidean", [(0.0, 1.0), (0.0, math.nan)]),
    ],
)
def test_vector_batch_raises_what_the_loop_raises(payloads, mode, ranges):
    ia, ib = np.array([0, 1]), np.array([1, 2])
    with pytest.raises(DataError) as loop:
        [vector_distance_oracle(payloads[i], payloads[j], mode, ranges) for i, j in zip(ia, ib)]
    with pytest.raises(DataError) as batched:
        vector_batch(pack_payloads("vector", payloads), ia, ib, mode, ranges)
    assert str(batched.value) == str(loop.value)


def test_vector_batch_pads_vectors_of_other_lengths():
    payloads = [vec(0.1, 0.2, 0.7), vec(0.3), vec(0.1, 0.5, 0.7), vec(0.3)]
    ia, ib = np.array([0, 1, 2]), np.array([2, 3, 0])
    loop = [vector_distance_oracle(payloads[i], payloads[j], "binary") for i, j in zip(ia, ib)]
    assert np.array_equal(vector_batch(pack_payloads("vector", payloads), ia, ib, "binary"), loop)
