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
"""

from .dataset import AnnotationRecord, Dataset, validate_dataset
from .errors import AgreeError, DataError, NumericError, UsageError
from .kde import KdeModel, fit_kde, kde_cdf, scott_bandwidth
from .noise import NoiseSpec, generate_cst_dataset, perturb, random_gold
from .payloads import (
    Box,
    BoxSet,
    KeypointObject,
    KeypointSet,
    NumericVector,
    OrderedTree,
    Ranking,
    Span,
    SpanSet,
    TokenSequence,
)
from .properties import PropertyReport, check_metric_properties
from .registry import DistanceSpec, make_spec, registry_names, registry_summary
from .stats import (
    AgreementReport,
    DistanceSamples,
    KsResult,
    agreement_report,
    agreement_reports,
    expected_pairs,
    krippendorff_alpha,
    ks_measure,
    ks_statistic,
    observed_pairs,
    sigma_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AgreeError",
    "AgreementReport",
    "AnnotationRecord",
    "Box",
    "BoxSet",
    "DataError",
    "Dataset",
    "DistanceSamples",
    "DistanceSpec",
    "KdeModel",
    "KeypointObject",
    "KeypointSet",
    "KsResult",
    "NoiseSpec",
    "NumericError",
    "NumericVector",
    "OrderedTree",
    "PropertyReport",
    "Ranking",
    "Span",
    "SpanSet",
    "TokenSequence",
    "UsageError",
    "agreement_report",
    "agreement_reports",
    "check_metric_properties",
    "expected_pairs",
    "fit_kde",
    "generate_cst_dataset",
    "kde_cdf",
    "krippendorff_alpha",
    "ks_measure",
    "ks_statistic",
    "make_spec",
    "observed_pairs",
    "perturb",
    "random_gold",
    "registry_names",
    "registry_summary",
    "scott_bandwidth",
    "sigma_measure",
    "validate_dataset",
    "__version__",
]
