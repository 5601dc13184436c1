"""Layer spans for a traced pass, recorded from outside the package.

``install`` replaces the package functions at each layer boundary with
wrappers that open a span around the call. A name bound with
``from x import y`` is replaced where it is looked up (``validate_dataset``
in both ``cli`` and ``stats``, for example). Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of the spans opened
inside it, so the self times of all spans, the root ``cli`` span included,
add up to the root's duration. Distance evaluations are too many to record
one by one: each adds its duration to the ``distances.eval`` total and to
the child time of the span that encloses it.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import time
import tracemalloc
from collections import defaultdict

ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.pairs: list[tuple[str, object, object]] = []  # (distance, a, b)
        self._stack: list[list] = []  # [name, start, child seconds]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root span; returns its result."""
        self.begin(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def summary(self) -> dict:
        identical = sum(1 for _, a, b in self.pairs if a == b)
        distinct = len({(name, frozenset((a, b))) for name, a, b in self.pairs})
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "peak_mb": dict(self.peak_mb),
            "identical_pairs": identical,
            "distinct_pairs": distinct,
        }


def _wrap(tracer: Tracer, module, attr: str, layer: str, *, on_call=None,
          peak: bool = False) -> None:
    fn = getattr(module, attr)  # AttributeError if a refactor moved it

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        tracer.begin(layer)
        if peak:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_mb[layer] = max(tracer.peak_mb[layer], peak_bytes / 2**20)
            tracer.end()

    setattr(module, attr, wrapper)


class _WriteSpan:
    """Context manager around a file the CLI opens itself; ends the io.write span."""

    def __init__(self, tracer: Tracer, fh) -> None:
        self._tracer, self._fh = tracer, fh

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer.end()


def _timed_spec(tracer: Tracer, spec):
    fn, name = spec.fn, spec.name
    stack, pairs, self_s, counts = tracer._stack, tracer.pairs, tracer.self_s, tracer.counts

    def timed(a, b):
        start = time.perf_counter()
        d = fn(a, b)
        duration = time.perf_counter() - start
        self_s["distances.eval"] += duration
        stack[-1][2] += duration
        counts["distances.evals"] += 1
        pairs.append((name, a, b))
        return d

    return dataclasses.replace(spec, fn=timed)


def install() -> Tracer:
    """Wrap every layer boundary of the imported package; returns the tracer."""
    from agreekit import cli, io, registry, stats

    tracer = Tracer()

    def count(name: str):
        def on_call(*args, **kwargs):
            tracer.counts[name] += 1
        return on_call

    def on_plan(dataset, *args, **kwargs):
        n = len(dataset.records)
        tracer.counts["stats.plan_calls"] += 1
        tracer.counts["stats.candidate_pairs"] += n * (n - 1) // 2

    def on_ks(samples, n_permutations=0, **kwargs):
        tracer.counts["stats.ks_permutations"] += int(n_permutations)

    _wrap(tracer, io, "load_dataset", "io.load")
    _wrap(tracer, io, "write_report", "io.write")
    for module in (cli, stats):
        _wrap(tracer, module, "validate_dataset", "dataset.validate",
              on_call=count("dataset.validate_calls"))
        _wrap(tracer, module, "count_expected_pairs", "stats.plan")
    _wrap(tracer, stats, "observed_pairs", "stats.plan")
    _wrap(tracer, stats, "expected_pairs", "stats.plan", on_call=on_plan)
    _wrap(tracer, stats, "sigma_measure", "kde.sigma", peak=True)
    _wrap(tracer, stats, "ks_measure", "stats.ks", on_call=on_ks, peak=True)
    _wrap(tracer, stats, "histogram", "stats.hist")
    _wrap(tracer, stats, "diagnostics_flags", "stats.hist")

    make_spec = registry.make_spec

    @functools.wraps(make_spec)
    def traced_make_spec(*args, **kwargs):
        return _timed_spec(tracer, make_spec(*args, **kwargs))

    registry.make_spec = traced_make_spec

    # compare and hist write their output with a plain open() in cli
    def traced_open(*args, **kwargs):
        tracer.begin("io.write")
        try:
            fh = builtins.open(*args, **kwargs)
        except BaseException:
            tracer.end()
            raise
        return _WriteSpan(tracer, fh)

    cli.open = traced_open
    return tracer
