"""agreekit benchmark: timed ``agree`` passes on simulated workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's input for the seed, computes the reference
values the reports must match, then runs passes one after another (a closed
loop with one client) for S seconds: a pass starts only while a typical one
still ends within them. Each pass is a fresh
child process that calls ``agreekit.cli.main(argv)`` under an address-space
limit and is checked for correct output. With ``--trace 1`` the passes
alternate between untraced and traced, and the per-layer metrics come from
the traced ones. Every metric is printed with its unit; the last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# address-space cap of each pass, well under the machine's ~7 GB
LIMIT_MB = 4096
PASS_TIMEOUT_S = 60
# planned pairs per registry entry in the per-distance probe
PROBE_PAIRS = 500
# the simulated payload kinds and the workload whose input stands for each
PROBE_KINDS = {"ranking": "ranking-tau", "spans": "spans-ner", "boxes": "boxes-compare"}
LAYERS = ("io.load", "io.write", "dataset.validate", "stats.plan", "distances.eval",
          "kde.sigma", "stats.ks", "stats.hist")


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def run_pass(argv: list[str], result_path: str, traced: bool, limit_mb: int = LIMIT_MB) -> dict:
    """One child pass; returns its result with "status" and, if it ran, its timings."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, str(limit_mb),
           "1" if traced else "0", "--", *argv]
    if os.path.exists(result_path):
        os.remove(result_path)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PASS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"status": f"crashed (exit {proc.returncode}): {tail[0]}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["status"] == "ok":
        result["setup_s"] = result["imported_at"] - launched
        if result["exit_code"] != 0:
            result["status"] = f"agree exited {result['exit_code']}"
    return result


def probe_distances(workload, dataset, seed: int) -> dict[str, float]:
    """µs per pair of every registry entry that accepts a simulated payload kind.

    Each kind is timed on up to PROBE_PAIRS of the pairs the package plans for
    that kind's workload input at this seed (this run's own input for its own
    kind). An entry accepting several kinds is timed over all of their pairs.
    """
    from agreekit import registry, stats

    import workloads

    seconds: dict[str, float] = {}
    evals: dict[str, int] = {}
    for kind, name in PROBE_KINDS.items():
        ds = dataset if workload.task == kind else workloads.build_dataset(
            workloads.WORKLOADS[name], seed)
        obs = stats.observed_pairs(ds)
        want = min(10 * len(obs), stats.count_expected_pairs(ds))
        planned = obs + stats.expected_pairs(ds, want, seed)
        step = max(1, len(planned) // PROBE_PAIRS)
        pairs = [(a.payload, b.payload) for a, b in planned[::step][:PROBE_PAIRS]]
        for entry, kinds, _summary, _dissimilarity in registry.registry_summary():
            if kind not in kinds:
                continue
            fn = registry.make_spec(entry, kind, meta=ds.meta).fn
            start = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            seconds[entry] = seconds.get(entry, 0.0) + time.perf_counter() - start
            evals[entry] = evals.get(entry, 0) + len(pairs)
    return {entry: seconds[entry] / evals[entry] * 1e6 for entry in sorted(seconds)}


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"no tail percentile (n={n} < 20)"
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6f} s (n={n})"


def end_to_end(ok: list[dict]) -> dict:
    return {
        "report_s": (statistics.median(p["report_s"] for p in ok), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in ok), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], ref_s: list[float],
              probe: dict[str, float]) -> dict:
    """Layer metrics of the traced pass with the median traced report time."""
    def total(p):
        return sum(p["trace"]["self_s"].values())

    ordered = sorted(traced, key=total)
    pass_ = ordered[(len(ordered) - 1) // 2]
    trace = pass_["trace"]
    self_s, counts, peak = trace["self_s"], trace["counts"], trace["peak_mb"]
    evals = counts.get("distances.evals", 0)
    metrics = {
        "trace.report_s": (total(pass_), "s"),
        "trace.overhead_ratio": (
            statistics.median(total(p) for p in traced)
            / statistics.median(p["report_s"] for p in untraced), "ratio"),
        "cli.unattributed_s": (self_s.get("cli", 0.0), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (self_s.get(layer, 0.0), "s")
    metrics.update({
        "dataset.validate_calls": (counts.get("dataset.validate_calls", 0), "count"),
        "stats.plan_calls": (counts.get("stats.plan_calls", 0), "count"),
        "stats.candidate_pairs": (counts.get("stats.candidate_pairs", 0), "count"),
        "stats.ks_permutations": (counts.get("stats.ks_permutations", 0), "count"),
        "distances.evals": (evals, "count"),
        "distances.us_per_pair": (self_s.get("distances.eval", 0.0) / max(evals, 1) * 1e6, "us"),
        "distances.distinct_pair_ratio": (trace["distinct_pairs"] / max(evals, 1), "ratio"),
        "distances.identical_pair_ratio": (trace["identical_pairs"] / max(evals, 1), "ratio"),
        "kde.peak_mb": (peak.get("kde.sigma", 0.0), "MB"),
        "stats.ks_peak_mb": (peak.get("stats.ks", 0.0), "MB"),
        "host.ref_loop_s": (statistics.median(ref_s), "s"),
    })
    for entry, us in probe.items():
        metrics[f"distances.{entry}.us_per_pair"] = (us, "us")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "agreekit", "cli.py")):
        print(f"error: no agreekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import oracle
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced_run = args.trace == 1
    workdir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        input_path = os.path.join(workdir, "input.jsonl")
        out_path = os.path.join(workdir, "report.json")
        dataset = workloads.write_input(workload, args.seed, input_path)
        expected = oracle.expected_values(dataset, workload.distances, args.seed,
                                          workload.n_permutations)
        cli_argv = workload.argv(input_path, out_path, args.seed)

        passes: list[dict] = []
        ref_s: list[float] = []
        durations: list[float] = []
        min_passes = 2 if traced_run else 1
        start = time.monotonic()
        # start a pass only if a typical one still ends within --seconds
        while len(passes) < min_passes or (
                time.monotonic() - start + statistics.median(durations) <= args.seconds):
            began = time.monotonic()
            traced = traced_run and len(passes) % 2 == 1
            ref_s.append(reference_loop_s())
            if os.path.exists(out_path):
                os.remove(out_path)
            result = run_pass(cli_argv, os.path.join(workdir, "result.json"), traced)
            result["traced"] = traced
            if result["status"] == "ok":
                found = check.problems(out_path, workload, expected)
                if found:
                    result["status"] = "wrong output: " + "; ".join(found)
            if result["status"] != "ok":
                print(f"pass {len(passes) + 1} failed: {result['status']}", file=sys.stderr)
            passes.append(result)
            durations.append(time.monotonic() - began)
        probe = probe_distances(workload, dataset, args.seed) if traced_run else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [p for p in passes if p["status"] == "ok"]
    untraced = [p for p in ok if not p["traced"]]
    traced_ok = [p for p in ok if p["traced"]]
    failed = len(passes) - len(ok)
    if not untraced or (traced_run and not traced_ok):
        print("error: no pass succeeded; nothing to report", file=sys.stderr)
        return 1

    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced_ok)} traced), closed loop, one client")
    e2e = end_to_end(untraced)
    for name, (value, unit) in e2e.items():
        print(f"{name:<36} {value:.6f} {unit}")
    print(f"{'report_s tail':<36} {tail_percentile([p['report_s'] for p in untraced])}")
    print(f"{'failed_frac':<36} {failed / len(passes):.6f} ratio ({failed}/{len(passes)})")
    metrics = e2e
    if not traced_run:
        print(f"{'host.ref_loop_s':<36} {statistics.median(ref_s):.6f} s")
    else:
        metrics = per_layer(untraced, traced_ok, ref_s, probe)
        for name, (value, unit) in metrics.items():
            print(f"{name:<36} {value:.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
