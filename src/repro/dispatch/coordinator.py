"""Sweep-level dispatch: enqueue grids, launch workers, merge results.

This module is the bridge between the broker (:mod:`.queue`) and the
existing sweep surface (:mod:`repro.api.sweep`): a dispatched sweep
uses the *same* cell names, run-directory layout, ``sweep.json``
manifest and aggregation artifacts as a local :func:`repro.api.run_sweep`
— only the execution engine differs.  That equivalence is not
aspirational: the chaos tests certify a dispatched sweep's run
directories bit-identical (``run_dir_fingerprint``) to the sequential
baseline, SIGKILLed workers and all.

Typical shapes::

    # one machine: run_sweep(specs, sweep_dir, workers=2) enqueues the
    # cells and runs two local workers (see repro.api.sweep)

    # cross-machine: enqueue here, run `repro worker <dir>` anywhere
    enqueue_sweep(specs, sweep_dir)
    ... workers claim cells over the shared filesystem ...
    wait_for_queue(sweep_dir)
    results = collect_results(sweep_dir)
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

from ..api.experiment import RunResult
from ..api.rundir import (STATUS_FAILED, read_status, write_failed_run_dir)
from ..api.sweep import assign_cell_names, merge_sweep_manifest
from ..api.spec import ExperimentSpec
from ..obs import span
from .queue import (DEAD, DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS,
                    DEFAULT_RETRY_BACKOFF, DONE, QueueBroker, make_task)


def enqueue_sweep(specs: Iterable, sweep_dir: str,
                  max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                  retry_backoff: float = DEFAULT_RETRY_BACKOFF
                  ) -> List[str]:
    """Queue a grid of experiment specs for dispatch; returns cell names.

    Cell names come from the sweep engine's own
    :func:`~repro.api.sweep.assign_cell_names` (collision suffixes and
    all) and the cells are recorded as ``pending`` in the ordinary
    ``sweep.json`` manifest, so status tooling, resume and aggregation
    see a dispatched sweep exactly as they would a local one.
    """
    parsed = [spec if isinstance(spec, ExperimentSpec)
              else ExperimentSpec.from_dict(spec) for spec in specs]
    if not parsed:
        raise ValueError("enqueue_sweep needs at least one spec")
    os.makedirs(sweep_dir, exist_ok=True)
    cells = assign_cell_names(parsed)
    broker = QueueBroker(sweep_dir)
    broker.init_queue()
    with span("dispatch.enqueue_sweep", cells=len(cells)):
        for name, spec in cells:
            broker.enqueue(make_task(name, spec.to_dict(),
                                     max_attempts=max_attempts,
                                     retry_backoff=retry_backoff))
        merge_sweep_manifest(
            sweep_dir,
            [{"name": name, "spec": spec.to_dict(),
              "status": "pending", "error": None}
             for name, spec in cells],
            workers=None)
    return [name for name, _ in cells]


def wait_for_queue(sweep_dir: str, timeout: Optional[float] = None,
                   poll_interval: float = 0.5) -> bool:
    """Block until the queue settles (nothing pending or leased).

    Runs the reaper on every poll, so a sweep whose last worker died
    still converges: the coordinator itself expires the orphaned lease
    and (once attempts run out) dead-letters the cell.  Returns ``True``
    when settled, ``False`` on timeout.
    """
    broker = QueueBroker(sweep_dir)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        broker.reap_expired()
        if broker.settled():
            return True
        if deadline is not None and time.monotonic() > deadline:
            return False
        time.sleep(poll_interval)


def collect_results(sweep_dir: str) -> List[RunResult]:
    """Merge a settled queue back into the sweep's canonical records.

    For every cell in the queue: ``done`` records become
    :class:`RunResult` objects straight from their stored summaries,
    and ``dead`` records become failed results — stamping a failure
    record into the cell's run directory when the dead cell left no
    terminal status of its own (e.g. its worker was killed on every
    attempt).  The ``sweep.json`` manifest statuses are updated, so
    downstream tooling cannot tell a dispatched sweep from a local one.
    """
    broker = QueueBroker(sweep_dir)
    results: List[RunResult] = []
    manifest_cells: List[Dict] = []
    with span("dispatch.collect", sweep_dir=sweep_dir):
        for state in (DONE, DEAD):
            for name in broker.names(state):
                task = broker.read_task(state, name)
                if task is None:
                    continue
                run_dir = os.path.join(sweep_dir, name)
                if state == DONE:
                    result = RunResult.from_summary(task["result"])
                else:
                    error = task.get("error") or "dead-lettered"
                    status = read_status(run_dir) \
                        if os.path.isdir(run_dir) else None
                    if status is None or status.get("status") not in (
                            STATUS_FAILED,):
                        write_failed_run_dir(run_dir, task["payload"],
                                             error, "")
                    result = RunResult(
                        spec=ExperimentSpec.from_dict(task["payload"]),
                        metrics={}, run_dir=run_dir,
                        status=STATUS_FAILED, error=error)
                results.append(result)
                manifest_cells.append(
                    {"name": name, "spec": task["payload"],
                     "status": result.status, "error": result.error})
        if manifest_cells:
            merge_sweep_manifest(sweep_dir, manifest_cells, workers=None)
    return results


def launch_worker(sweep_dir: str, worker_id: Optional[str] = None,
                  lease_ttl: float = DEFAULT_LEASE_TTL,
                  drain_when_empty: bool = True,
                  poll_interval: float = 0.25,
                  extra_env: Optional[Dict[str, str]] = None,
                  stdout=None) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess against ``sweep_dir``.

    The child runs ``python -m repro worker ...`` with ``PYTHONPATH``
    extended so the running ``repro`` package resolves regardless of
    how the parent was launched.  ``extra_env`` merges into the child's
    environment — the chaos tests use it to arm
    ``REPRO_FAULT_KILL_AFTER_EPOCH``.  ``stdout`` is handed to
    :class:`subprocess.Popen` (``None`` inherits the caller's).
    """
    import repro
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    if extra_env:
        env.update(extra_env)
    cmd = [sys.executable, "-m", "repro", "worker", sweep_dir,
           "--lease-ttl", str(lease_ttl),
           "--poll-interval", str(poll_interval)]
    if worker_id:
        cmd += ["--worker-id", worker_id]
    if drain_when_empty:
        cmd += ["--drain-when-empty"]
    return subprocess.Popen(cmd, env=env, stdout=stdout)
