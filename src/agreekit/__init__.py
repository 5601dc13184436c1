"""Agreement measures for complex annotation tasks.

Measures how well annotators agree when labels are structured objects
(vectors, token sequences, box/keypoint sets, NER spans, trees, rankings)
rather than categories. Three measures run over any pairwise distance
function: Krippendorff's alpha in its general distance form, a tail measure
sigma (fraction of observed distances falling below the p-th percentile of
the chance distribution, estimated by KDE), and a one-sided two-sample
Kolmogorov-Smirnov test of observed against chance distances.

Typical use:

    from agreekit import io, registry, agreement_report
    ds = io.load_dataset("annotations.jsonl")
    spec = registry.make_spec("tau", ds.kind, meta=ds.meta)
    report = agreement_report(ds, spec, seed=0)
    print(report.alpha, report.sigma, report.ks_measure)

agreement_reports(ds, specs, ...) scores several distances as `agree compare`
does: it plans pairs once, so all share one Do and one De, and takes each
report's counts from that plan. It checks only that the payloads share one
kind; validate_dataset(ds) lists the violations.

The `agree` console script exposes the same pipeline plus a noise simulator
and a metric-property checker.

`import agreekit` loads no submodule. Each public name below is defined in
the module `_PUBLIC` lists it under (`agreekit.stats.agreement_report`, and so
on), which is imported the first time the name is asked for (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "dataset": ("AnnotationRecord", "Dataset", "validate_dataset"),
    "errors": ("AgreeError", "DataError", "NumericError", "UsageError"),
    "kde": ("KdeModel", "fit_kde", "kde_cdf", "scott_bandwidth"),
    "noise": ("NoiseSpec", "generate_cst_dataset", "perturb", "random_gold"),
    "payloads": ("Box", "BoxSet", "KeypointObject", "KeypointSet", "NumericVector",
                 "OrderedTree", "Ranking", "Span", "SpanSet", "TokenSequence"),
    "properties": ("PropertyReport", "check_metric_properties"),
    "registry": ("DistanceSpec", "make_spec", "registry_names", "registry_summary"),
    "stats": ("AgreementReport", "DistanceSamples", "KsResult", "agreement_report",
              "agreement_reports", "expected_pairs", "krippendorff_alpha", "ks_measure",
              "ks_statistic", "observed_pairs", "sigma_measure"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    if name in _PUBLIC or name == "distances":  # agreekit.<module> after a bare import
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
