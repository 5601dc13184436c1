"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `CRITERION n: PASS/FAIL (...)` verdict line; run
with `pytest tests/test_acceptance.py -v -s` to see them alongside pytest's
own output. Criterion 9 is optional and skips unless a translations dataset
is available (tests/data/translations.jsonl or $AGREE_TRANSLATIONS).
"""

import itertools
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from agreekit.io import load_dataset
from agreekit.kde import fit_kde, kde_cdf
from agreekit.noise import NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import Ranking, TokenSequence, tree_from_nested
from agreekit.properties import check_metric_properties
from agreekit.registry import make_spec, registry_summary
from agreekit.stats import (
    DistanceSamples,
    agreement_report,
    krippendorff_alpha,
    ks_measure,
    sigma_measure,
)

from conftest import (
    kde_pdf,
    make_payloads,
    tau_distance_oracle,
    ted_oracle,
    uniform_random_vector_dataset,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _samples(observed, expected) -> DistanceSamples:
    o = np.asarray(observed, dtype=float)
    e = np.asarray(expected, dtype=float)
    return DistanceSamples(observed=o, expected=e, distance_name="synthetic", seed=0)


def _normal_grid(mean: float, sd: float, n: int) -> np.ndarray:
    # deterministic normal sample: quantiles at (i + 0.5) / n; symmetric, so
    # the sample mean equals `mean` to machine precision
    return mean + sd * ndtri((np.arange(n) + 0.5) / n)


def test_criterion_1_chance_correction_identities():
    zero = _samples(np.zeros(20), np.linspace(0.2, 0.8, 40))
    a1, s1 = krippendorff_alpha(zero), sigma_measure(zero)

    equal_means = _samples([0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.15, 0.35])
    a0 = krippendorff_alpha(equal_means)

    gold, meta = random_gold("ranking", 6, 3)
    ds = generate_cst_dataset(
        gold, NoiseSpec(task="ranking", level=0.0, n_annotators=3, seed=3), meta=meta
    )
    rep = agreement_report(ds, make_spec("tau", "ranking", meta=ds.meta), seed=0)

    ok = (
        abs(a1 - 1.0) <= 1e-12
        and abs(s1 - 1.0) <= 1e-12
        and abs(a0) <= 1e-12
        and rep.alpha == 1.0
        and rep.sigma == 1.0
    )
    _verdict(
        1,
        ok,
        f"zero-distance alpha={a1} sigma={s1}, equal-means alpha={a0}, "
        f"zero-noise pipeline alpha={rep.alpha} sigma={rep.sigma}",
    )


def test_criterion_2_null_calibration():
    alphas, sigmas, rejected = [], [], 0
    n_trials = 1000
    for trial in range(n_trials):
        ds = uniform_random_vector_dataset(50, 3, 5, seed=trial)
        rep = agreement_report(ds, make_spec("euclidean", "vector", meta=ds.meta), seed=trial)
        alphas.append(rep.alpha)
        sigmas.append(rep.sigma)
        rejected += rep.ks_pvalue < 0.05
    mean_alpha = float(np.mean(alphas))
    mean_sigma = float(np.mean(sigmas))
    reject_rate = rejected / n_trials
    ok = (
        -0.05 <= mean_alpha <= 0.05
        and 0.03 <= mean_sigma <= 0.08
        and 0.03 <= reject_rate <= 0.08
    )
    _verdict(
        2,
        ok,
        f"{n_trials} null trials: mean alpha={mean_alpha:.5f}, "
        f"mean sigma={mean_sigma:.4f}, KS rejection rate={reject_rate:.3f}",
    )


def test_criterion_3_overlap_discrimination():
    # same mean ratio (0.2 / 0.5) on both sides, very different overlap
    tight = _samples(_normal_grid(0.2, 0.01, 101), np.linspace(0.35, 0.65, 400))
    wide = _samples(_normal_grid(0.2, 0.06, 101), np.linspace(0.05, 0.95, 400))
    a_tight, a_wide = krippendorff_alpha(tight), krippendorff_alpha(wide)
    s_tight, s_wide = sigma_measure(tight), sigma_measure(wide)
    ok = abs(a_tight - a_wide) <= 1e-9 and (s_tight - s_wide) >= 0.4
    _verdict(
        3,
        ok,
        f"alpha {a_tight:.12f} vs {a_wide:.12f}, "
        f"sigma {s_tight:.4f} vs {s_wide:.4f} (gap {s_tight - s_wide:.4f})",
    )


def test_criterion_4_noise_monotonicity():
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    details = []
    ok = True
    for task, dist in (("ranking", "tau"), ("vector", "euclidean")):
        mean_sigma, mean_ks = [], []
        zero_alpha_one = zero_sigma_min = None
        for level in levels:
            sig, ks = [], []
            for seed in range(10):
                gold, meta = random_gold(task, 30, seed)
                spec = NoiseSpec(task=task, level=level, n_annotators=3, seed=seed)
                ds = generate_cst_dataset(gold, spec, meta=meta)
                rep = agreement_report(ds, make_spec(dist, ds.kind, meta=ds.meta), seed=seed)
                sig.append(rep.sigma)
                ks.append(rep.ks_measure)
                if level == 0.0:
                    zero_alpha_one = (rep.alpha == 1.0) and (zero_alpha_one in (None, True))
            if level == 0.0:
                zero_sigma_min = min(sig)
            mean_sigma.append(float(np.mean(sig)))
            mean_ks.append(float(np.mean(ks)))
        sig_mono = all(b <= a + 1e-12 for a, b in zip(mean_sigma, mean_sigma[1:]))
        ks_mono = all(b <= a + 1e-12 for a, b in zip(mean_ks, mean_ks[1:]))
        ok = ok and sig_mono and ks_mono and zero_alpha_one and zero_sigma_min >= 0.95
        details.append(
            f"{task}: sigma {['%.3f' % s for s in mean_sigma]} mono={sig_mono}, "
            f"ks mono={ks_mono}, zero-noise alpha==1 and sigma>={zero_sigma_min:.2f}"
        )
    _verdict(4, ok, "; ".join(details))


def test_criterion_5_distance_ordering_on_ner():
    wins = 0
    for seed in range(10):
        gold, meta = random_gold("spans", 10, seed)
        spec = NoiseSpec(task="spans", level=0.5, n_annotators=3, seed=seed)
        ds = generate_cst_dataset(gold, spec, meta=meta)
        ks = {}
        for name in ("ner_both_lenient", "count_diff"):
            rep = agreement_report(ds, make_spec(name, "spans", meta=ds.meta), seed=seed)
            ks[name] = rep.ks_measure
        wins += ks["ner_both_lenient"] > ks["count_diff"]
    ok = wins >= 9
    _verdict(5, ok, f"lenient span KS beat count_diff KS in {wins}/10 seeds")


@lru_cache(maxsize=None)
def _lev_brute(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _lev_brute(a[1:], b) + 1,
        _lev_brute(a, b[1:]) + 1,
        _lev_brute(a[1:], b[1:]) + (a[0] != b[0]),
    )


def _nested_forests(m: int, labels) -> list:
    if m == 0:
        return [()]
    out = []
    for first in range(1, m + 1):
        for t in _nested_trees(first, labels):
            for rest in _nested_forests(m - first, labels):
                out.append((t,) + rest)
    return out


def _nested_trees(n: int, labels) -> list:
    return [
        [lab, list(kids)]
        for kids in _nested_forests(n - 1, labels)
        for lab in labels
    ]


def test_criterion_6_oracle_equivalences():
    parts = []
    ok = True

    # token Levenshtein vs brute recursion, all string pairs, |alphabet|=3, len<=6
    strings = [
        "".join(chars)
        for n in range(7)
        for chars in itertools.product("abc", repeat=n)
    ]
    spec = make_spec("levenshtein", "tokens", params={"raw": True})
    payloads = [TokenSequence(tokens=tuple(s)) for s in strings]
    first, second = np.triu_indices(len(strings))  # every pair i <= j
    got = spec.batch(payloads, first, second)
    mismatches = sum(
        d != _lev_brute(strings[i], strings[j])
        for d, i, j in zip(got.tolist(), first.tolist(), second.tolist())
    )
    ok = ok and mismatches == 0
    parts.append(f"levenshtein {len(strings)} strings, {mismatches} mismatches")

    # TED vs exhaustive recursion over every ordered 2-label tree with <=4 nodes
    nested = [t for n in range(1, 5) for t in _nested_trees(n, ("A", "B"))]
    trees = [tree_from_nested(t) for t in nested]
    spec = make_spec("ted", "tree")
    first, second = np.divmod(np.arange(len(trees) ** 2), len(trees))  # every ordered pair
    got = spec.batch(trees, first, second)
    ted_bad = sum(
        d != ted_oracle(trees[i], trees[j])
        for d, i, j in zip(got.tolist(), first.tolist(), second.tolist())
    )
    ok = ok and len(trees) == 102 and ted_bad == 0
    parts.append(f"ted {len(trees)} trees all pairs, {ted_bad} mismatches")

    # Kendall tau vs pair counting: identity-vs-all for n<=8, all pairs for n=5
    spec = make_spec("tau", "ranking")
    worst = 0.0
    for n in range(2, 9):
        ident = tuple(range(n))
        perms = list(itertools.permutations(ident))
        got = spec.batch([Ranking(order=p) for p in [ident] + perms],
                         np.zeros(len(perms), dtype=np.intp), np.arange(1, len(perms) + 1))
        for d, perm in zip(got.tolist(), perms):
            worst = max(worst, abs(d - tau_distance_oracle(ident, perm)))
    perms5 = list(itertools.permutations(range(5)))
    first, second = np.divmod(np.arange(len(perms5) ** 2), len(perms5))
    got = spec.batch([Ranking(order=p) for p in perms5], first, second)
    for d, i, j in zip(got.tolist(), first.tolist(), second.tolist()):
        worst = max(worst, abs(d - tau_distance_oracle(perms5[i], perms5[j])))
    ok = ok and worst <= 1e-15  # exact up to one float rounding step
    parts.append(f"tau worst |diff|={worst:.1e}")

    # asymptotic KS p inside the 95% interval of a 10k-permutation estimate
    s = _samples(np.arange(1.0, 31.0), np.arange(10.5, 40.5))
    asym = ks_measure(s).pvalue
    perm_p = ks_measure(s, n_permutations=10_000).pvalue
    half = 1.96 * np.sqrt(perm_p * (1.0 - perm_p) / 10_000)
    ok = ok and (perm_p - half) <= asym <= (perm_p + half)
    parts.append(
        f"ks asym p={asym:.5f} in [{perm_p - half:.5f}, {perm_p + half:.5f}]"
    )

    _verdict(6, ok, "; ".join(parts))


def test_criterion_7_metric_property_suites():
    metrics = [(name, kinds) for name, kinds, _, dissimilarity in registry_summary()
               if not dissimilarity]
    meta_by_name = {"euclidean": {"ranges": [[0.0, 1.0]] * 5}}
    results = []
    ok = True
    for name, kinds in metrics:
        for kind in kinds:
            spec = make_spec(name, kind, meta=meta_by_name.get(name, {}))
            report = check_metric_properties(
                spec, make_payloads(kind, 200), tolerance=1e-9
            )
            ok = ok and report.passed()
            results.append(f"{name}/{kind}={'ok' if report.passed() else 'FAIL'}")
    _verdict(7, ok, f"{len(results)} suites of 200 payloads: " + ", ".join(results))


def test_criterion_8_kde_cdf_quadrature():
    worst = 0.0
    for size in (2, 10, 500):
        rng = np.random.default_rng([size, 0xCDF])
        model = fit_kde(rng.beta(2.0, 5.0, size))
        for t in np.linspace(0.005, 0.995, 100):
            integral, _ = quad(lambda x: kde_pdf(model, x), 0.0, float(t), limit=200)
            worst = max(worst, abs(integral - kde_cdf(model, float(t))))
    ok = worst <= 1e-6
    _verdict(8, ok, f"max |quadrature - cdf| = {worst:.2e} over sizes 2/10/500")


def test_criterion_9_translations_benchmark():
    default = Path(__file__).parent / "data" / "translations.jsonl"
    path = os.environ.get("AGREE_TRANSLATIONS", str(default))
    if not os.path.exists(path):
        print("CRITERION 9: SKIP (optional: no translations dataset present)")
        pytest.skip("translations dataset not available")
    ds = load_dataset(path)
    ks = {}
    sigma = {}
    for name in ("gleu", "bleu", "levenshtein"):
        rep = agreement_report(ds, make_spec(name, "tokens", meta=ds.meta), seed=0)
        ks[name] = rep.ks_measure
        sigma[name] = rep.sigma
    ok = ks["gleu"] > ks["bleu"] > ks["levenshtein"] and abs(sigma["gleu"] - 0.81) <= 0.1
    _verdict(
        9,
        ok,
        f"KS order gleu={ks['gleu']:.4f} > bleu={ks['bleu']:.4f} > "
        f"lev={ks['levenshtein']:.4f}, sigma(gleu)={sigma['gleu']:.4f}",
    )
