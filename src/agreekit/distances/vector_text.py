"""Distances for numeric vectors and token sequences.

All functions return dissimilarities: 0 for identical inputs, larger means
more different. Similarity scores (BLEU, GLEU, embedding F1) are inverted as
d = 1 - s; the raw score orientation is noted per function for traceability.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import DataError
from ..payloads import NumericVector, TokenSequence

Ranges = Sequence[tuple[float, float]]


def vector_distance(
    a: NumericVector, b: NumericVector, mode: str, ranges: Optional[Ranges] = None
) -> float:
    """Binary: fraction of unequal elements. Euclidean: RMSE of range-normalized values.

    Both lie in [0, 1]. Euclidean requires per-dimension ranges; the raw score
    orientation elsewhere is 1 - RMSE, we return the RMSE itself.
    """
    va, vb = a.values, b.values
    if len(va) != len(vb):
        raise DataError(f"vector length mismatch: {len(va)} != {len(vb)}")
    if mode == "binary":
        return sum(1 for x, y in zip(va, vb) if x != y) / len(va)
    if mode == "euclidean":
        if ranges is None:
            raise DataError("euclidean vector distance requires per-dimension ranges")
        if len(ranges) != len(va):
            raise DataError(f"got {len(ranges)} ranges for {len(va)}-dimensional vectors")
        acc = 0.0
        for x, y, (lo, hi) in zip(va, vb, ranges):
            width = float(hi) - float(lo)
            if width <= 0:
                raise DataError(f"zero-width range [{lo}, {hi}]")
            acc += ((x - y) / width) ** 2
        return math.sqrt(acc / len(va))
    raise DataError(f"unknown vector distance mode {mode!r}")


def levenshtein_raw(a: Sequence[str], b: Sequence[str]) -> int:
    """Token edit distance (insert/delete/substitute, unit costs), iterative DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ta != tb),
            )
        prev = cur
    return prev[len(b)]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


_BLEU_SMOOTHING_K = 5.0


def _bleu(hyp: Sequence[str], ref: Sequence[str]) -> float:
    """Sentence BLEU with brevity penalty and length-decaying smoothing.

    Zero-count n-gram precisions of order i are replaced by
    (ln(hyp_len) / (k * 2^invcnt)) / denominator with k = _BLEU_SMOOTHING_K,
    invcnt starting at 1 and incrementing for each smoothed order, applied
    only when hyp_len > 1.
    Weights are uniform over orders 1..4, or over 1..hyp_len for hypotheses
    shorter than 4 tokens so identical short sentences still score 1.
    """
    hyp_len, ref_len = len(hyp), len(ref)
    max_order = min(4, hyp_len)
    weights = [1.0 / max_order] * max_order

    numerators = []
    denominators = []
    for n in range(1, max_order + 1):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        numerators.append(clipped)
        denominators.append(max(1, sum(hyp_counts.values())))

    if numerators[0] == 0:
        return 0.0

    precisions = []
    invcnt = 1
    for num, den in zip(numerators, denominators):
        if num == 0 and hyp_len > 1:
            precisions.append((math.log(hyp_len) / (_BLEU_SMOOTHING_K * 2**invcnt)) / den)
            invcnt += 1
        else:
            precisions.append(num / den)

    if any(p <= 0 for p in precisions):
        return 0.0
    log_score = sum(w * math.log(p) for w, p in zip(weights, precisions))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_score)


def _gleu(hyp: Sequence[str], ref: Sequence[str]) -> float:
    """Sentence GLEU: pooled 1..4-gram matches / max(hyp n-grams, ref n-grams).

    Equals min(precision, recall) over the pooled counts and is symmetric.
    """
    tp = 0
    hyp_total = 0
    ref_total = 0
    for n in range(1, 5):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        tp += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        hyp_total += sum(hyp_counts.values())
        ref_total += sum(ref_counts.values())
    denom = max(hyp_total, ref_total)
    if denom == 0:
        return 0.0
    return tp / denom


class TokenEmbeddingTable:
    """Read-only map from sentence id to a (n_tokens, dim) embedding matrix."""

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        self._vectors = {}
        dim = None
        for sid, mat in vectors.items():
            arr = np.asarray(mat, dtype=float)
            if arr.ndim != 2:
                raise DataError(f"embeddings for sentence {sid!r} are not a 2-d matrix")
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


def _embedding_f1(a: TokenSequence, b: TokenSequence, table: TokenEmbeddingTable) -> float:
    va = table.lookup(a)
    vb = table.lookup(b)
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
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


def translation_distance(
    a: TokenSequence,
    b: TokenSequence,
    mode: str,
    *,
    raw: bool = False,
    embeddings: Optional[TokenEmbeddingTable] = None,
) -> float:
    """Token-sequence distance in the selected mode.

    levenshtein: edit distance / max length (raw=True skips normalization).
    bleu, gleu: 1 - symmetrized sentence score.
    embedding_f1: 1 - F1 of greedy max-cosine token matching.
    """
    ta, tb = a.tokens, b.tokens
    if mode == "levenshtein":
        dist = levenshtein_raw(ta, tb)
        if raw:
            return float(dist)
        m = max(len(ta), len(tb))
        return dist / m if m else 0.0
    if not ta or not tb:
        raise DataError(f"{mode} distance is undefined for empty token sequences")
    if mode == "bleu":
        return 1.0 - (_bleu(ta, tb) + _bleu(tb, ta)) / 2.0
    if mode == "gleu":
        return 1.0 - (_gleu(ta, tb) + _gleu(tb, ta)) / 2.0
    if mode == "embedding_f1":
        if embeddings is None:
            raise DataError("embedding_f1 requires a token embedding table")
        return _embedding_f1(a, b, embeddings)
    raise DataError(f"unknown translation distance mode {mode!r}")
