"""One timed pass: a fresh interpreter that runs ``agreekit.cli.main(argv)``.

Usage: child.py RESULT_JSON LIMIT_MB TRACE -- CLI_ARGS...

The first thing it does is cap its own address space at LIMIT_MB, so a pass
that needs more memory fails with MemoryError instead of exhausting the
machine; the pass is then recorded as "over_budget". The result file holds
the moment ``agreekit.cli`` finished importing (``time.monotonic``, which
the parent compares with the moment it launched this process), the wall
time of ``cli.main``, its exit code, the process's own peak RSS and, with
TRACE=1, the layer trace.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    result_path, limit_mb, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    limit = limit_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    result: dict = {"status": "ok"}
    try:
        sys.path.insert(0, SRC)
        import agreekit.cli as cli

        result["imported_at"] = time.monotonic()
        if traced:
            sys.path.insert(0, HERE)
            import tracing

            tracer = tracing.install()
            start = time.perf_counter()
            result["exit_code"] = tracer.run(cli.main, argv)
            result["report_s"] = time.perf_counter() - start
            result["trace"] = tracer.summary()
        else:
            start = time.perf_counter()
            result["exit_code"] = cli.main(argv)
            result["report_s"] = time.perf_counter() - start
    except MemoryError:
        result = {"status": "over_budget"}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
