"""Run one mapscat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gamma-a4 --seed 1 --seconds 20 --trace 0

Run from the root of a mapscat checkout; the package is imported from
``src/``.  Each run starts fresh interpreters one at a time (no pools):
SETUP_SAMPLES - 1 that only set up, then one that sets up and repeats
the workload's timed phase for --seconds, checking every result against
``invariants.json``.  Inputs and reports go to ``.perfbench_work/``.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb); with --trace 1 the run is split into
untraced and traced halves and the metrics are the per-layer ones.
See README.md next to this file for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh-interpreter set-ups per run; setup_s is their median
DEADLINE_S = 170  # for the whole run, every child included


class BenchError(RuntimeError):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(args, mode, workdir, env, deadline):
    """Run worker.py to completion; return (its result, spawn time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(workdir), str(args.seconds), mode]
    spawned = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - _now(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def measure(args, root):
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    deadline = _now() + DEADLINE_S

    setup_s, import_s = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["trace" if args.trace else "plain"]:
        res, spawned = _child(args, mode, workdir, env, deadline)
        setup_s.append(res["ready"] - spawned)
        import_s.append(res["import_s"])

    wall_s = statistics.median(res["wall_s"])
    print(f"env python={res['python']} numpy={res['numpy']} nproc={os.cpu_count()}")
    print(
        f"{args.workload} seed={args.seed}: wall_s={wall_s:.3f} s (median of {len(res['wall_s'])}) "
        f"setup_s={statistics.median(setup_s):.3f} s (median of {len(setup_s)}) "
        f"peak_rss_mb={res['peak_rss_mb']:.1f} MB "
        f"fail_frac={res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']})"
    )
    if res["mismatches"]:
        print(f"mismatches: {', '.join(res['mismatches'])}", file=sys.stderr)

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = statistics.median(import_s)
        values["trace.overhead_s"] = statistics.median(res["traced_wall_s"]) - wall_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.metric_names()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mapscat" / "__init__.py").is_file():
        print("error: src/mapscat not found; run from the root of a mapscat checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args, root)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
