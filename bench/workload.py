"""One workload in a fresh process: ``python -m bench.workload ...``.

``bench/run.py`` starts this module once per workload and reads the one
JSON line it prints: the result dict with ``metrics``, failed output
``checks``, ``attempted``/``failed`` counts and the host facts.  A traced
run also writes ``bench/out/<workload>/trace.json`` (the ``repro.obs``
Chrome format) and ``layers.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
from pathlib import Path

from repro.cli import main as repro_cli
from repro.obs import dropped_event_count, export_trace

from . import serving, training

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
SERVING = "serve-ann"


def host_facts() -> dict:
    """Where a result was measured: cores, CPU, numpy/BLAS build, commit."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git": git_sha()}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError), open(git / "packed-refs") as packed:
        for line in packed:
            if line.rstrip().endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def write_trace(out_dir: Path, result: dict) -> list:
    """Export the trace, check it, write ``layers.json``; returns problems."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = str(out_dir / "trace.json")
    export_trace(path)
    problems = []
    if dropped_event_count():
        problems.append(f"{dropped_event_count()} trace events dropped")
    with contextlib.redirect_stdout(io.StringIO()):
        if repro_cli(["trace", path]) != 0:
            problems.append(f"{path} does not load in `repro trace`")
    with open(out_dir / "layers.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return problems


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(training.WORKLOADS) + [SERVING])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    name, trace = args.workload, bool(args.trace)

    if name == SERVING:
        own = serving.LAYER_METRICS
        result = serving.run(args.seed, args.seconds, trace,
                             args.smoke, str(OUT / f"tmp-{os.getpid()}"))
    else:
        own = training.LAYER_METRICS
        result = training.run(name, args.seed, args.seconds, trace,
                              args.smoke)
    result.update(workload=name, seed=args.seed, host=host_facts())
    if trace:
        if set(result["metrics"]) != set(own):
            raise RuntimeError(f"{name} measured {sorted(result['metrics'])}"
                               f", expected {sorted(own)}")
        # a layer the workload never enters did no work: it reads 0
        result["metrics"] = {
            metric: result["metrics"].get(metric, 0.0)
            for metric in training.LAYER_METRICS + serving.LAYER_METRICS}
        result["checks"] += write_trace(OUT / name, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
