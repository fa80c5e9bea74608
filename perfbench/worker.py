"""One workload in a fresh interpreter; started by run.py, never by hand.

    worker.py WORKLOAD SEED WORKDIR SECONDS MODE

MODE is `setup` (set up, report, exit), `plain` (untimed checks around
timed repetitions of the workload for SECONDS) or `trace` (untraced
repetitions for half of SECONDS, then traced ones for the other half).
The result is one JSON line on stdout.  `ready` is a CLOCK_MONOTONIC
reading, a clock the parent process shares, taken when the inputs are
ready; peak RSS is this process's own, from getrusage(RUSAGE_SELF).
"""

import json
import platform
import resource
import statistics
import sys
import time

import tracer
import workloads


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _repeat(wl, expected, workload, seconds, reps, tr=None):
    """Time repetitions that fit in `seconds` (at least one)."""
    attempted = failed = 0
    mismatches = []
    begin = _now()
    while True:
        if tr is not None:
            tr.reset()
        t0 = time.perf_counter()
        try:
            raw = wl.run()
            wall = time.perf_counter() - t0
            summary = wl.summarize(raw)
        except Exception as e:  # a crashing operation counts as a failed one
            wall = time.perf_counter() - t0
            print(f"workload raised {type(e).__name__}: {e}", file=sys.stderr)
            summary = None
        a, f, bad = workloads.check(workload, summary, expected)
        attempted += a
        failed += f
        mismatches += bad
        rep = {"wall_s": wall}
        if tr is not None:
            rep["layers"] = tr.aggregate()
        reps.append(rep)
        # stop unless a further repetition of typical length still fits
        typical = statistics.median(r["wall_s"] for r in reps)
        if _now() - begin + typical > seconds:
            return attempted, failed, mismatches


def main(argv):
    workload, seed, workdir, seconds, mode = argv[0], int(argv[1]), argv[2], float(argv[3]), argv[4]
    t0 = time.perf_counter()
    import mapscat  # noqa: F401  (the import is what set-up measures first)

    import_s = time.perf_counter() - t0
    inputs = workloads.write_inputs(workload, seed, workdir)
    wl = workloads.make(workload, inputs, workdir)
    out = {"ready": _now(), "import_s": import_s,
           "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__}
    if mode != "setup":
        expected = workloads.load_invariants()[workload]
        plain, traced = [], []
        budget = seconds / 2 if mode == "trace" else seconds
        attempted, failed, bad = _repeat(wl, expected, workload, budget, plain)
        if mode == "trace":
            tr = tracer.Tracer()
            tr.install()
            a, f, b = _repeat(wl, expected, workload, budget, traced, tr)
            attempted, failed, bad = attempted + a, failed + f, bad + b
            tr.write_spans(f"{workdir}/spans.json")
            out["layers"] = {  # median_low: counts stay whole numbers
                name: statistics.median_low(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            out["traced_wall_s"] = [r["wall_s"] for r in traced]
        out.update(
            wall_s=[r["wall_s"] for r in plain],
            attempted=attempted,
            failed=failed,
            mismatches=sorted(set(bad)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
