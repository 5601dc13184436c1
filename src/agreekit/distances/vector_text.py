"""Distances for numeric vectors and token sequences.

All functions return dissimilarities: 0 for identical inputs, larger means
more different. Similarity scores (BLEU, GLEU, embedding F1) are inverted as
d = 1 - s; the raw score orientation is noted per function for traceability.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..dataset import Vectors
from ..errors import DataError, NumericError
from ..payloads import TokenSequence

Ranges = Sequence[tuple[float, float]]


@np.errstate(over="ignore")
def squares(x: np.ndarray) -> np.ndarray:
    """x * x elementwise, for every kernel that squares.

    A product is correctly rounded, where the platform's pow need not be, so every
    platform gives the same squares. A finite x whose square overflows raises NumericError.
    """
    values = x * x
    if (np.isinf(values) & ~np.isinf(x)).any():
        raise NumericError("a squared difference overflows the float range")
    return values


def fold(rows: Iterable[np.ndarray], shape) -> np.ndarray:
    """rows added left to right to a 0.0 array of the given shape: unlike numpy's pairwise
    sum or 3.12's compensated `sum`, the same bits everywhere. The set-lift means and
    euclidean's terms go through it; oks_batch's masked per-point loop and _bleu's scalar
    loop add left to right from 0.0 in the same way."""
    total = np.zeros(shape)
    for row in rows:
        total += row
    return total


# a difference or its quotient by a width can overflow to inf, and the distance with it;
# DistanceSamples rejects an inf distance, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def vector_batch(
    vectors: Vectors,
    ia: np.ndarray,
    ib: np.ndarray,
    mode: str,
    ranges: Optional[Ranges] = None,
) -> np.ndarray:
    """The mode's distance of each pair of packed records (ia[t], ib[t]), in [0, 1].

    binary: the fraction of unequal elements. euclidean: the RMSE of the
    differences, each divided by its dimension's range width hi - lo (the raw
    score orientation elsewhere is 1 - RMSE).

    vectors is a dataset's packed Vectors (dataset.pack_payloads("vector", payloads)
    packs a payload list); its values fill one zero-padded matrix, a row per record.
    Euclidean squares its terms with `squares` and folds them one dimension at a time
    (`fold`); a term that overflows to inf makes the distance inf. A length
    mismatch, an unknown mode and missing, miscounted, zero-width or non-finite ranges
    raise DataError at the first pair they affect.
    """
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    lengths = vectors.counts
    widths = np.array([float(hi) - float(lo) for lo, hi in ranges or ()])
    # an infinite width would drop its dimension, (x - y) / inf being 0; NaN poisons the sum
    bad_widths = ~((widths > 0) & (widths < np.inf))
    bad = lengths[ia] != lengths[ib]
    if mode != "binary":
        bad |= (mode != "euclidean") | (ranges is None) | bad_widths.any()
        bad |= lengths[ia] != widths.size
    if bad.any():
        t = int(np.argmax(bad))
        n, n_b = int(lengths[ia[t]]), int(lengths[ib[t]])
        if n != n_b:
            raise DataError(f"vector length mismatch: {n} != {n_b}")
        if mode != "euclidean":
            raise DataError(f"unknown vector distance mode {mode!r}")
        if ranges is None:
            raise DataError("euclidean vector distance requires per-dimension ranges")
        if len(ranges) != n:
            raise DataError(f"got {len(ranges)} ranges for {n}-dimensional vectors")
        lo, hi = ranges[int(np.argmax(bad_widths))]
        kind = "zero-width" if float(hi) - float(lo) <= 0 else "non-finite"
        raise DataError(f"{kind} range [{lo}, {hi}]")
    values = np.zeros((lengths.size, lengths.max(initial=0)))
    values[np.arange(values.shape[1]) < lengths[:, None]] = vectors.values
    a, b = values[ia], values[ib]
    if mode == "binary":
        return (a != b).sum(axis=1) / lengths[ia]
    terms = (a[:, : widths.size] - b[:, : widths.size]) / widths
    return np.sqrt(fold(squares(terms).T, ia.size) / widths.size)


def _bitmasks(seq: TokenSequence) -> tuple[tuple[str, ...], dict[str, int]]:
    """The tokens, and per token the bitmask of the positions where it occurs."""
    masks: dict[str, int] = {}
    for i, token in enumerate(seq.tokens):
        masks[token] = masks.get(token, 0) | 1 << i
    return seq.tokens, masks


def _edit_distance(a, b, raw: bool) -> float:
    """Token edit distance (insert/delete/substitute, unit costs) of two _bitmasks, over
    the longer length unless raw.

    Myers's (1999) bit-vector algorithm in Hyyrö's (2003) form for the global
    distance: one DP column down the longer sequence is held in two bit vectors,
    pv and mv, of its +1 and -1 vertical steps, and each token of the shorter one
    advances it in a few integer operations."""
    (ta, masks), (tb, _) = (a, b) if len(a[0]) >= len(b[0]) else (b, a)
    m = len(ta)
    if not m:
        return 0
    full, last = (1 << m) - 1, 1 << (m - 1)
    pv, mv, score = full, 0, m
    for token in tb:
        eq = masks.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))  # bits from m up are left over, and never read
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | (full ^ (xv | ph))) & full
        mv = ph & xv
    return score if raw else score / m


def _ngram_counts(seq: TokenSequence) -> tuple[int, list[Counter]]:
    """The length, and the 1- to 4-gram counts, of a token sequence."""
    tokens = seq.tokens
    return len(tokens), [
        Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)) for n in range(1, 5)
    ]


def _clipped(a: Counter, b: Counter) -> int:
    """Sum of min(c_a, c_b) over the n-grams of a and b, the same whichever comes first."""
    return sum(min(c, b.get(g, 0)) for g, c in a.items())


_BLEU_SMOOTHING_K = 5.0


def _bleu(hyp_len: int, ref_len: int, clipped: list[int]) -> float:
    """Sentence BLEU of a hypothesis of hyp_len tokens against a reference of ref_len, whose
    1- to 4-gram counts clip to clipped, with brevity penalty and length-decaying smoothing.

    Zero-count n-gram precisions of order i are replaced by
    (ln(hyp_len) / (k * 2^invcnt)) / denominator with k = _BLEU_SMOOTHING_K,
    invcnt starting at 1 and incrementing for each smoothed order, applied
    only when hyp_len > 1.
    Weights are uniform over orders 1..4, or over 1..hyp_len for hypotheses
    shorter than 4 tokens so identical short sentences still score 1. The weighted
    log precisions are added left to right, from 0.0.
    """
    max_order = min(4, hyp_len)
    weight = 1.0 / max_order
    if clipped[0] == 0:
        return 0.0

    # every precision is positive: an order past the first exists only when hyp_len > 1
    log_score, invcnt = 0.0, 1
    for order, num in enumerate(clipped[:max_order]):
        den = hyp_len - order  # the hypothesis's n-grams of this order
        if num == 0 and hyp_len > 1:
            p = (math.log(hyp_len) / (_BLEU_SMOOTHING_K * 2**invcnt)) / den
            invcnt += 1
        else:
            p = num / den
        log_score += weight * math.log(p)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_score)


def _bleu_distance(a, b) -> float:
    """1 - the mean BLEU of two _ngram_counts both ways, from one count of the clipped n-grams."""
    clipped = [_clipped(x, y) for x, y in zip(a[1], b[1])]
    return 1.0 - (_bleu(a[0], b[0], clipped) + _bleu(b[0], a[0], clipped)) / 2.0


def _gleu_distance(a, b) -> float:
    """1 - sentence GLEU of two _ngram_counts: pooled 1..4-gram matches / max(a's n-grams,
    b's n-grams), min(precision, recall) of the pooled counts, the same both ways. L tokens
    hold max(0, L - n + 1) n-grams of each order n, so the longer sequence has more."""
    tp = sum(_clipped(x, y) for x, y in zip(a[1], b[1]))
    longer = max(a[0], b[0])
    return 1.0 - tp / sum(max(0, longer - order) for order in range(4))


class TokenEmbeddingTable:
    """Read-only map from sentence id to a (n_tokens, dim) embedding matrix."""

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        self._vectors = {}
        dim = None
        for sid, mat in vectors.items():
            try:
                arr = np.asarray(mat, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"embeddings for sentence {sid!r} are not numeric: {exc}") from exc
            if arr.ndim != 2:
                raise DataError(f"embeddings for sentence {sid!r} are not a 2-d matrix")
            if not np.isfinite(arr).all():
                raise DataError(f"embeddings for sentence {sid!r} are not all finite")
            with np.errstate(over="ignore"):  # an inf norm would make every cosine nan
                if not np.isfinite(np.linalg.norm(arr, axis=1)).all():
                    raise DataError(f"embeddings for sentence {sid!r} have a row whose "
                                    "squared norm overflows")
            if dim is None:
                dim = arr.shape[1]
            elif arr.shape[1] != dim:
                raise DataError(
                    f"embedding dimension mismatch for sentence {sid!r}: "
                    f"{arr.shape[1]} != {dim}"
                )
            arr.setflags(write=False)
            self._vectors[str(sid)] = arr

    def lookup(self, seq: TokenSequence) -> np.ndarray:
        if seq.sentence_id is None:
            raise DataError("token sequence has no sentence_id; cannot look up embeddings")
        mat = self._vectors.get(seq.sentence_id)
        if mat is None:
            raise DataError(f"no embeddings for sentence {seq.sentence_id!r}")
        if mat.shape[0] < len(seq.tokens):
            missing = seq.tokens[mat.shape[0]]
            raise DataError(
                f"sentence {seq.sentence_id!r} has {mat.shape[0]} embedding rows for "
                f"{len(seq.tokens)} tokens; first uncovered token is {missing!r}"
            )
        return mat[: len(seq.tokens)]


def _embedded(seq: TokenSequence, table: Optional[TokenEmbeddingTable]) -> tuple:
    if table is None:
        raise DataError("embedding_f1 requires a token embedding table")
    va = table.lookup(seq)
    return va, np.linalg.norm(va, axis=1)


def _embedding_f1(a, b) -> float:
    (va, na), (vb, nb) = a, b
    sims = va @ vb.T
    denom = np.outer(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    # cos(0-vector, 0-vector) is taken as 1 so identical payloads stay at distance 0
    both_zero = np.outer(na == 0, nb == 0)
    sims = np.where(both_zero, 1.0, sims)
    precision = float(sims.max(axis=1).mean())
    recall = float(sims.max(axis=0).mean())
    if precision + recall <= 0:
        return 1.0
    f1 = 2 * precision * recall / (precision + recall)
    return 1.0 - min(1.0, max(0.0, f1))


def translation_batch(
    payloads: Sequence[TokenSequence],
    ia: np.ndarray,
    ib: np.ndarray,
    mode: str,
    raw: bool = False,
    embeddings: Optional[TokenEmbeddingTable] = None,
) -> np.ndarray:
    """The mode's distance of each pair (payloads[ia[t]], payloads[ib[t]]).

    levenshtein: edit distance / max length (raw=True skips normalization).
    bleu, gleu: 1 - symmetrized sentence score.
    embedding_f1: 1 - F1 of greedy max-cosine token matching.

    Each payload in a pair is prepared once, in pair order: its token bitmasks,
    its n-gram counts, or its embedding rows and their norms. So a payload in no
    pair is never looked up, and an empty sequence (bleu, gleu, embedding_f1) or
    a failed embedding lookup raises DataError at the first pair it affects.
    """
    if mode == "levenshtein":
        prepare, score = _bitmasks, partial(_edit_distance, raw=raw)
    elif mode in ("bleu", "gleu"):
        prepare, score = _ngram_counts, _bleu_distance if mode == "bleu" else _gleu_distance
    elif mode == "embedding_f1":
        prepare, score = partial(_embedded, table=embeddings), _embedding_f1
    else:
        raise DataError(f"unknown translation distance mode {mode!r}")
    ia, ib = np.asarray(ia).tolist(), np.asarray(ib).tolist()
    need_tokens = mode != "levenshtein"
    prepared: list = [None] * len(payloads)
    for i, j in zip(ia, ib):
        if need_tokens and not (payloads[i].tokens and payloads[j].tokens):
            raise DataError(f"{mode} distance is undefined for empty token sequences")
        if prepared[i] is None:
            prepared[i] = prepare(payloads[i])
        if prepared[j] is None:
            prepared[j] = prepare(payloads[j])
    return np.array([score(prepared[i], prepared[j]) for i, j in zip(ia, ib)], dtype=float)
