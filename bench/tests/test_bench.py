"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (outside the tier-1
suite, whose ``testpaths`` is ``tests``).  About a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers, training

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: a forced bad output per workload kind, appended to a copy of ``src``
FAULTS = {
    "graphaug-gowalla": ("src/repro/core/graphaug.py", """
_loss = GraphAug.loss
GraphAug.loss = lambda self, *args: _loss(self, *args) * float("nan")
"""),
    "serve-ann": ("src/repro/serve/front.py", """
_answer = AsyncRequestFront._answer


def _answer_reversed(self, batch):
    for pending in batch:
        pending.user_ids = pending.user_ids[::-1]
    _answer(self, batch)


AsyncRequestFront._answer = _answer_reversed
"""),
}


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=170)


def results(proc: subprocess.CompletedProcess) -> list:
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def current_attributes() -> dict:
    out = {}
    for module_name, path, _ in layers.TRACE_POINTS:
        owner, attr = layers.resolve(module_name, path)
        out[module_name, path] = vars(owner)[attr]
    return out


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_the_declared_metrics(trace):
    proc = bench(ROOT, "--workload", "all", "--smoke", "--seconds", "1",
                 "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    runs = results(proc)
    assert len(runs) == len(SPEC["workloads"])
    for result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == declared


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = current_attributes()

    def refuse(self):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(layers.LayerTracer, "install", refuse)
    result = training.run("graphaug-gowalla", seed=3, seconds=0.5,
                          trace=False, smoke=True)
    assert result["checks"] == []
    assert same_objects(current_attributes(), before)


def test_traced_run_restores_every_rebound_attribute():
    before = current_attributes()
    result = training.run("graphaug-gowalla", seed=3, seconds=0.5,
                          trace=True, smoke=True)
    assert result["checks"] == []
    assert result["metrics"]["core.augmentor.s"] > 0
    assert same_objects(current_attributes(), before)


def test_install_and_remove_cover_every_trace_point():
    before = current_attributes()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        during = current_attributes()
        assert all(during[k] is not before[k]
                   and during[k].__wrapped__ is before[k] for k in before)
    finally:
        tracer.remove()
    assert same_objects(current_attributes(), before)


def copy_benchmark(dest: Path, with_src: bool) -> None:
    parts = ("bench", "src") if with_src else ("bench",)
    for part in parts:
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


@pytest.mark.parametrize("workload", sorted(FAULTS))
def test_a_bad_output_fails_the_command(tmp_path, workload):
    copy_benchmark(tmp_path, with_src=True)
    path, fault = FAULTS[workload]
    with open(tmp_path / path, "a") as handle:
        handle.write(fault)
    proc = bench(tmp_path, "--workload", workload, "--smoke", "--seconds",
                 "1", "--seed", "3")
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert results(proc)[-1]["correct"] is False


def test_without_the_program_nothing_is_reported(tmp_path):
    copy_benchmark(tmp_path, with_src=False)
    proc = bench(tmp_path, "--workload", "graphaug-gowalla", "--seed", "3")
    assert proc.returncode != 0
    assert results(proc) == []
