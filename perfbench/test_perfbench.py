"""The benchmark's own tests. Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# the cheapest workload; every test that runs passes uses it
CHEAP = "spans-ner"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", CHEAP, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced_result():
    return _bench(0)


@pytest.fixture(scope="module")
def traced_result():
    return _bench(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_input_bytes(tmp_path, name):
    w = workloads.WORKLOADS[name]
    paths = [tmp_path / f"{i}.jsonl" for i in range(3)]
    workloads.write_input(w, 3, str(paths[0]))
    workloads.write_input(w, 3, str(paths[1]))
    workloads.write_input(w, 4, str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_known_counts_follow_from_the_sizes(name):
    w = workloads.WORKLOADS[name]
    records = w.items * w.annotators
    assert w.observed_pairs == w.items * w.annotators * (w.annotators - 1) // 2
    assert w.expected_pairs_used == 10 * w.observed_pairs
    assert w.expected_pairs_available == records * (records - 1) // 2 - w.observed_pairs


def test_reference_matches_the_first_release_reports():
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert {g["workload"] for g in goldens} == set(workloads.WORKLOADS)
    for golden in goldens:
        w = workloads.WORKLOADS[golden["workload"]]
        dataset = workloads.build_dataset(w, golden["seed"])
        got = oracle.expected_values(dataset, w.distances, golden["seed"], w.n_permutations)
        for name, values in golden["values"].items():
            for key, want in values.items():
                assert math.isclose(got[name][key], want, abs_tol=check.TOLERANCE), (
                    golden["workload"], golden["seed"], name, key)


def test_output_check_rejects_a_wrong_report(tmp_path):
    from agreekit import cli

    w = workloads.WORKLOADS[CHEAP]
    dataset = workloads.write_input(w, 2, str(tmp_path / "in.jsonl"))
    out = tmp_path / "report.json"
    assert cli.main(w.argv(str(tmp_path / "in.jsonl"), str(out), 2)) == 0
    expected = oracle.expected_values(dataset, w.distances, 2, w.n_permutations)
    assert check.problems(str(out), w, expected) == []

    report = json.loads(out.read_text())
    report["alpha"] += 1e-6
    report["counts"]["expected_pairs_used"] -= 1
    out.write_text(json.dumps(report))
    found = check.problems(str(out), w, expected)
    assert any("alpha" in p for p in found) and any("expected_pairs_used" in p for p in found)

    report["sigma"] = 1.5
    out.write_text(json.dumps(report))
    assert any(p.startswith("schema") for p in check.problems(str(out), w, expected))


def test_a_pass_over_the_memory_limit_is_recorded_not_crashed(tmp_path):
    w = workloads.WORKLOADS[CHEAP]
    workloads.write_input(w, 1, str(tmp_path / "in.jsonl"))
    argv = w.argv(str(tmp_path / "in.jsonl"), str(tmp_path / "out.json"), 1)
    # enough to import the package, far too little for the |Do| x 3|De| KDE matrix
    result = run.run_pass(argv, str(tmp_path / "result.json"), traced=False, limit_mb=512)
    assert result["status"] == "over_budget"
    assert not (tmp_path / "out.json").exists()


def _check_names(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = result["metrics"]
    assert list(printed) == [m["name"] for m in declared]
    for m in declared:
        assert NAME.match(m["name"]), m["name"]
        assert printed[m["name"]]["unit"] == m["unit"]
        assert isinstance(printed[m["name"]]["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric(untraced_result):
    _check_names(untraced_result, _spec()["end_to_end"])
    assert all(m["value"] > 0 for m in untraced_result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced_result):
    _check_names(traced_result, _spec()["per_layer"])


def test_layer_self_times_add_up_to_the_traced_report_time(traced_result):
    m = {k: v["value"] for k, v in traced_result["metrics"].items()}
    layers = sum(m[f"{layer}_s"] for layer in run.LAYERS)
    assert math.isclose(layers + m["cli.unattributed_s"], m["trace.report_s"], rel_tol=1e-9)
    assert m["kde.sigma_s"] > 0 and m["distances.evals"] == 16_500
    assert m["dataset.validate_calls"] == 2 and m["stats.plan_calls"] == 1


def test_workloads_in_the_spec_match_the_benchmark():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
