"""The output check every pass must pass.

A report passes when it validates against ``agreekit.io.REPORT_SCHEMA``,
carries the workload's exact pair counts, and has alpha, sigma and the KS
measure within ``TOLERANCE`` of the reference values from ``oracle``.
"""

from __future__ import annotations

import json
import math

import jsonschema

# absolute tolerance on alpha, sigma and the KS measure; the reference
# reproduces the first release's reports exactly, so this only absorbs
# last-digit changes in summation order
TOLERANCE = 1e-9


def problems(out_path: str, workload, expected: dict) -> list[str]:
    """Everything wrong with a pass's report file; empty when it is correct."""
    from agreekit.io import REPORT_SCHEMA

    try:
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        reports = payload["reports"] if workload.command == "compare" else [payload]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    found = []
    valid = []
    for report in reports:
        try:
            jsonschema.validate(report, REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            found.append(f"schema: {exc.message}")
        else:
            valid.append(report)
    names = sorted(r["distance"]["name"] for r in valid)
    if not found and names != sorted(workload.distances):
        found.append(f"report distances {names} != {sorted(workload.distances)}")
    for report in valid:
        name = report["distance"]["name"]
        counts = report["counts"]
        for key in ("observed_pairs", "expected_pairs_used", "expected_pairs_available"):
            if counts[key] != getattr(workload, key):
                found.append(f"{name}: {key} {counts[key]} != {getattr(workload, key)}")
        if name not in expected:
            continue
        got = {"alpha": report["alpha"], "sigma": report["sigma"],
               "ks_measure": report["ks"]["measure"]}
        for key, want in expected[name].items():
            if not math.isclose(got[key], want, rel_tol=0.0, abs_tol=TOLERANCE):
                found.append(f"{name}: {key} {got[key]!r} != reference {want!r}")
    if workload.command == "compare":
        ranking = sorted(expected, key=lambda n: (-expected[n]["ks_measure"],
                                                  -expected[n]["sigma"], n))
        if payload.get("ranking") != ranking:
            found.append(f"ranking {payload.get('ranking')} != {ranking}")
    return found
