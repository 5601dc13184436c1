"""Command-line interface.

Subcommands:
    compute       full pipeline for one distance, prints a summary table
    compare       run several distances and rank them by KS measure
    hist          export the observed/expected histograms as CSV
    simulate      generate a noisy synthetic dataset
    check-metric  test metric axioms on payloads sampled from a dataset

Exit codes: 0 success, 2 usage (unknown distance, bad flags), 3 data
validation, 4 numeric failure. All randomness derives from --seed; rerunning
a command with the same inputs produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from . import io as aio
from . import registry
from .dataset import Dataset, validate_dataset
from .errors import AgreeError, DataError, UsageError
from .payloads import TASKS
from .stats import agreement_reports, check_measure_args
from .stats import count_expected_pairs  # noqa: F401 perfbench/tracing.py wraps it here by name


def _parse_kv(pairs: Optional[Sequence[str]], flag: str) -> dict:
    out: dict = {}
    for raw in pairs or ():
        if "=" not in raw:
            raise UsageError(f"{flag} expects key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
        except ValueError as exc:  # JSON that Python will not read, such as a 5,000-digit integer
            raise UsageError(f"{flag} {key}: {exc}") from exc
    return out


def _load(args: argparse.Namespace) -> tuple[Dataset, dict]:
    """The dataset with --meta merged into its meta, and the --param pairs. Both flags are
    parsed before the input is read, so a malformed pair is a usage error whatever the input."""
    meta, params = _parse_kv(args.meta, "--meta"), _parse_kv(args.param, "--param")
    dataset = aio.load_dataset(args.input)
    # the dataset's meta is its own dict: merging into it keeps the records' one sort
    dataset.meta.update(meta)
    return dataset, params


def _resolve_de_samples(value: Optional[str]) -> Optional[int]:
    if value is None:
        return None
    if value == "all":  # a size at or above the available pairs takes them all
        return sys.maxsize
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"--de-samples expects an integer or 'all', got {value!r}") from exc


def _specs(args: argparse.Namespace, dataset: Dataset, accepted: list, params: dict) -> list:
    """One spec per (name, registry.accepted_params(name)) of accepted. Each takes the --param
    keys it accepts; a key that no named distance accepts goes to all, so make_spec rejects it."""
    table = aio.load_embeddings(args.embeddings) if args.embeddings else None
    unclaimed = set(params).difference(*(keys for _, keys in accepted))
    specs = []
    for name, keys in accepted:
        own = {k: v for k, v in params.items() if k in keys or k in unclaimed}
        specs.append(registry.make_spec(name, dataset.kind, own, dataset.meta, table))
    return specs


def _reports(args: argparse.Namespace, names: Sequence[str]) -> list:
    """compute, compare and hist: check the flags and names, load and validate the
    dataset, build the specs, and report every distance on one pair plan."""
    de_sample_size = _resolve_de_samples(args.de_samples)
    check_measure_args(p=args.p, de_sample_size=de_sample_size, seed=args.seed,
                       bandwidth=args.kde_bandwidth, n_permutations=args.exact_ks)
    accepted = [(name, registry.accepted_params(name)) for name in names]  # or UsageError
    dataset, params = _load(args)
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(f"validation: {v}", file=sys.stderr)
        if not args.allow_violations:
            raise DataError(f"{len(violations)} validation violation(s); "
                            "use --allow-violations to proceed anyway")
    specs = _specs(args, dataset, accepted, params)
    return agreement_reports(
        dataset, specs, p=args.p, seed=args.seed, bandwidth=args.kde_bandwidth,
        de_sample_size=de_sample_size,
        n_permutations=args.exact_ks, exclude_same_annotator=args.exclude_same_annotator,
    )


def _print_report(report) -> None:
    c = report.counts
    print(f"distance   : {report.distance_name}")
    if report.distance_params:
        print(f"params     : {json.dumps(report.distance_params, sort_keys=True)}")
    print(f"alpha      : {report.alpha:.4f}")
    print(f"sigma      : {report.sigma:.4f}")
    print(
        f"ks         : stat={report.ks_statistic:.4f} "
        f"p={report.ks_pvalue:.4g} measure={report.ks_measure:.4f}"
    )
    print(
        f"pairs      : observed={c['observed_pairs']} "
        f"expected_used={c['expected_pairs_used']} "
        f"expected_available={c['expected_pairs_available']}"
    )
    print(f"diagnostics: {', '.join(report.diagnostics) if report.diagnostics else '(none)'}")


def cmd_compute(args: argparse.Namespace) -> int:
    (report,) = _reports(args, [args.distance])
    _print_report(report)
    if args.out:
        aio.write_report(args.out, report.to_dict())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = [n for chunk in args.distances for n in chunk.split(",") if n]
    if not names:
        raise UsageError("--distances expects at least one registry name")
    reports = _reports(args, names)
    reports.sort(key=lambda r: (-r.ks_measure, -r.sigma, r.distance_name))
    header = f"{'rank':<5} {'distance':<18} {'alpha':>9} {'sigma':>8} {'ks_stat':>8} {'ks_measure':>11}"
    print(header)
    for i, r in enumerate(reports, start=1):
        print(
            f"{i:<5} {r.distance_name:<18} {r.alpha:>9.4f} {r.sigma:>8.4f} "
            f"{r.ks_statistic:>8.4f} {r.ks_measure:>11.4f}"
        )
    if args.out:
        payload = {
            "ranking": [r.distance_name for r in reports],
            "reports": [r.to_dict() for r in reports],
        }
        aio.write_report(args.out, payload)
    return 0


def cmd_hist(args: argparse.Namespace) -> int:
    (report,) = _reports(args, [args.distance])
    lines = ["sample,bin_lo,bin_hi,count"]
    for sample, bins in (("observed", report.observed_hist), ("expected", report.expected_hist)):
        for lo, hi, count in bins:
            lines.append(f"{sample},{lo!r},{hi!r},{count}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .noise import NoiseSpec, generate_cst_dataset, random_gold  # only simulate runs it

    if not 0.0 <= args.noise <= 1.0:
        raise UsageError("--noise must lie in [0, 1]")
    if args.items < 1 or args.annotators < 2:
        raise UsageError("need --items >= 1 and --annotators >= 2")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    gold, meta = random_gold(args.task, args.items, args.seed)
    spec = NoiseSpec(
        task=args.task, level=args.noise, n_annotators=args.annotators, seed=args.seed
    )
    dataset = generate_cst_dataset(gold, spec, meta=meta)
    if args.out:
        aio.write_dataset(args.out, dataset)
    else:
        for line in aio.dataset_lines(dataset):
            print(line)
    return 0


def cmd_check_metric(args: argparse.Namespace) -> int:
    from .properties import check_metric_properties  # only check-metric runs it

    if args.sample_size < 1:
        raise UsageError("--sample-size must be >= 1")
    if not 0.0 <= args.tolerance < math.inf:
        raise UsageError("--tolerance must be finite and nonnegative")
    accepted = [(args.distance, registry.accepted_params(args.distance))]  # or UsageError
    dataset, params = _load(args)
    (spec,) = _specs(args, dataset, accepted, params)
    seen: list = []
    for payload in dataset.payloads():
        if payload not in seen:
            seen.append(payload)
        if len(seen) >= args.sample_size:
            break
    report = check_metric_properties(spec, seen, tolerance=args.tolerance)
    print(report.describe())
    if spec.dissimilarity:
        print("note: registered as a dissimilarity; triangle inequality not required")
    if not report.passed(include_triangle=not spec.dissimilarity):
        raise DataError(f"{args.distance} failed required metric properties")
    print("ok")
    return 0


def _add_common(sub: argparse.ArgumentParser, multi: bool = False) -> None:
    sub.add_argument("--input", required=True, help="dataset JSONL file")
    if multi:
        sub.add_argument(
            "--distances", required=True, action="append", metavar="NAME[,NAME...]",
            help="registry names, comma-separated or repeated",
        )
    else:
        sub.add_argument("--distance", required=True, help="registry name")
    sub.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="distance parameter (JSON value, repeatable)")
    sub.add_argument("--meta", action="append", metavar="KEY=VALUE",
                     help="override dataset meta (JSON value, repeatable)")
    sub.add_argument("--p", type=float, default=0.05, help="sigma tail threshold")
    sub.add_argument("--de-samples", default=None, metavar="N|all",
                     help="expected-distance sample size (default 10x observed)")
    sub.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub.add_argument("--kde-bandwidth", type=float, default=None,
                     help="override the KDE bandwidth")
    sub.add_argument("--exact-ks", type=int, default=0, metavar="N",
                     help="use an N-permutation KS p-value instead of the asymptotic one")
    sub.add_argument("--exclude-same-annotator", action="store_true",
                     help="drop same-annotator pairs from the expected sample")
    sub.add_argument("--embeddings", default=None, metavar="FILE",
                     help="token embedding JSONL (embedding_f1 only)")
    sub.add_argument("--allow-violations", action="store_true",
                     help="warn instead of failing on dataset validation violations")
    sub.add_argument("--out", default=None, help="write the report/CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agree",
        description="Agreement measures (alpha, sigma, KS) over pluggable distances.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="run the pipeline for one distance")
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("compare", help="rank several distances by KS measure")
    _add_common(p, multi=True)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("hist", help="export distance histograms as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_hist)

    p = subs.add_parser("simulate", help="generate a noisy synthetic dataset")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--items", type=int, default=20)
    p.add_argument("--annotators", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.25, help="noise level in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output JSONL (stdout if omitted)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("check-metric", help="test metric axioms on sampled payloads")
    p.add_argument("--distance", required=True, help="registry name")
    p.add_argument("--input", required=True, help="dataset JSONL file")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--meta", action="append", metavar="KEY=VALUE")
    p.add_argument("--embeddings", default=None, metavar="FILE")
    p.add_argument("--sample-size", type=int, default=12)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_check_metric)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except AgreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
