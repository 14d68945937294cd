"""Run the benchmark and print every metric by name, with its unit.

Usage, from the repository root::

    python3 bench/run.py --workload <name|all> --seed N [--seconds S]
                         [--trace 0|1] [--smoke]

Each workload runs in a fresh ``python -m bench.workload`` process, so
its peak RSS, its thread caps and any attribute the tracer rebinds
belong to it alone.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones (and writes
``bench/out/<workload>/trace.json`` and ``layers.json``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the run itself broke (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: a run has 180 s to finish, set-up included
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """The workload process's environment.

    ``repro`` comes from this checkout's ``src``; ``REPRO_*`` knobs of the
    caller are dropped so they cannot change what is measured.  BLAS runs
    one thread: a training process is then one thread, and a serving
    process is the load generator plus the front's dispatcher, within
    nproc=2 (single-threaded BLAS is also the faster setting for these
    matrix sizes on the 2-vCPU reference host).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool):
    """The workload process's result dict, or None when it broke."""
    cmd = [sys.executable, "-m", "bench.workload", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: dict, units: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']})")
    print("host: " + json.dumps(result["host"], sort_keys=True))
    print("info: " + json.dumps(result["info"], sort_keys=True))
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {result['metrics'][name]:>14.6g} {unit}")
    if result.get("self_times"):
        print(f"  self time, ranked{'':<{width - 17}}  {'s':>14}  share")
        for name, seconds, share in result["self_times"]:
            print(f"  {name:<{width}}  {seconds:>14.4f}  {share:6.1%}")
    for problem in result["checks"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    # a terminated run still kills and reaps its workload process, which
    # subprocess.run does on any exception
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              args.smoke)
        if result is None:
            return 2
        if set(result["metrics"]) != set(units):
            print(f"{name}: measured metrics {sorted(result['metrics'])} "
                  f"differ from BENCHMARK.json's {sorted(units)}",
                  file=sys.stderr)
            return 2
        report(result, units)
        print(json.dumps({
            "correct": not result["checks"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: {"value": result["metrics"][n], "unit": unit}
                        for n, unit in units.items()}}), flush=True)
        if result["checks"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
