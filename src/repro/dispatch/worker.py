"""The dispatch worker: a daemon loop that claims and runs queue cells.

One worker is one process — started as ``repro worker <sweep_dir>`` on
any machine that mounts the sweep directory, or in-process for tests via
:meth:`DispatchWorker.run`.  The loop is deliberately dumb: claim the
next runnable cell from the broker, run its spec through
:func:`repro.api.run_cell`, ack the outcome, repeat.  All scheduling
intelligence (retries, lease reaping, dead-lettering) lives in the
broker, so adding workers never adds coordination state.

Liveness is the worker process: while a task executes, a keepalive
thread renews its queue lease every third of the TTL, so dataset loads,
model builds, long epochs and post-fit probes never outlive the lease,
however rarely the cell heartbeats.  A worker that dies (or is frozen)
stops renewing, its lease goes stale on both the wall and broker
clocks, and the reaper hands the cell to someone else.

Crash-safety of the work itself is idempotence: before running a cell
the worker checks whether the run directory already
validates as complete for the task's spec (a previous owner finished
but died before acking) and, if so, acks the persisted summary without
re-training; a half-written directory from a killed owner is cleared
and re-run from scratch, so retried cells produce byte-identical run
directories (``run_dir_fingerprint``-certified in the chaos tests).
"""

from __future__ import annotations

import os
import shutil
import socket
import threading
import time
import traceback as _traceback
from typing import Dict, Optional

from ..api.experiment import RunResult, run_cell
from ..api.rundir import run_dir_is_complete
from ..obs import counter, set_process_label, span
from .queue import DEFAULT_LEASE_TTL, QueueBroker

#: seconds between queue scans when nothing is claimable
DEFAULT_POLL_INTERVAL = 0.5


def default_worker_id() -> str:
    """A globally-unique worker identity: ``<host>:<pid>``."""
    return f"{socket.gethostname()}:{os.getpid()}"


class DispatchWorker:
    """Claim-and-run daemon for one sweep directory's dispatch queue.

    Parameters
    ----------
    sweep_dir:
        The sweep directory holding the queue (and receiving run dirs).
    worker_id:
        Identity stamped into leases; defaults to ``<host>:<pid>``.
    lease_ttl:
        Seconds a lease stays valid without renewal; the worker renews
        it every ``lease_ttl / 3`` seconds while a task runs.
    drain_when_empty:
        When true, the worker exits once the queue settles (nothing
        pending or leased) instead of polling forever — the mode batch
        launchers use so a finished sweep reaps its own workers.
    poll_interval:
        Seconds between scans when nothing is claimable.
    max_tasks:
        Optional cap on tasks executed before returning (tests).
    """

    def __init__(self, sweep_dir: str, worker_id: Optional[str] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 drain_when_empty: bool = False,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 max_tasks: Optional[int] = None):
        self.broker = QueueBroker(sweep_dir)
        self.sweep_dir = sweep_dir
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = float(lease_ttl)
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.drain_when_empty = bool(drain_when_empty)
        self.poll_interval = float(poll_interval)
        self.max_tasks = max_tasks
        self.tasks_run = 0
        #: per-process dataset cache shared across this worker's
        #: experiment cells: each ``(dataset, seed, options)`` loads once
        #: per worker, not once per cell
        self._dataset_cache: Dict = {}

    # ------------------------------------------------------------------ #

    def run_dir_for(self, name: str) -> str:
        """The run directory a dispatched cell writes: ``<sweep>/<name>``."""
        return os.path.join(self.sweep_dir, name)

    # ------------------------------------------------------------------ #

    def run(self) -> int:
        """The daemon loop; returns the number of tasks executed.

        Exits when the drain sentinel appears, when ``drain_when_empty``
        is set and the queue settles, or when ``max_tasks`` is reached.
        """
        set_process_label(f"dispatch-worker {self.worker_id}")
        while True:
            if self.broker.drain_requested():
                return self.tasks_run
            if self.max_tasks is not None \
                    and self.tasks_run >= self.max_tasks:
                return self.tasks_run
            task = self.broker.claim(self.worker_id, ttl=self.lease_ttl)
            if task is None:
                if self.drain_when_empty and self.broker.settled():
                    return self.tasks_run
                time.sleep(self.poll_interval)
                continue
            self.execute(task)
            self.tasks_run += 1

    def execute(self, task: Dict) -> None:
        """Run one claimed task and ack its outcome to the broker.

        Every exception path ends in an ack: either ``ack_done`` with
        the (possibly failed-status) result summary, or ``ack_failed``
        routing the cell through retry/dead-letter.  A cell whose
        summary says ``failed`` is acked *failed* — the run directory
        keeps the failure record, but the queue retries it, which is
        the whole point of dispatching.
        """
        name = task["name"]
        stop = threading.Event()
        keepalive = threading.Thread(target=self._keep_lease,
                                     args=(name, stop), daemon=True)
        keepalive.start()
        try:
            try:
                with span("dispatch.task", cell=name,
                          worker=self.worker_id):
                    summary = self._run_cell(task)
            finally:
                # stopped before any ack, so no renewal can rewrite the
                # lease file after the ack has moved the task on
                stop.set()
                keepalive.join()
        except Exception as exc:        # noqa: BLE001 — worker isolation
            counter("dispatch.task_errors",
                    help="task executions that raised in the worker").inc()
            self._ack(name, failed=True,
                      error=f"{type(exc).__name__}: {exc}",
                      traceback_text=_traceback.format_exc())
            return
        if summary.get("status") == "failed":
            self._ack(name, failed=True,
                      error=summary.get("error") or "failed",
                      traceback_text=summary.get("traceback"),
                      summary=summary)
        else:
            self._ack(name, summary=summary)

    def _keep_lease(self, name: str, stop: threading.Event) -> None:
        """Renew ``name``'s lease every ``lease_ttl / 3`` until ``stop``."""
        while not stop.wait(self.lease_ttl / 3):
            try:
                self.broker.renew(name, self.worker_id)
            except OSError:             # a transient filesystem error:
                pass                    # the next tick retries

    def _ack(self, name: str, summary: Optional[Dict] = None,
             failed: bool = False, error: Optional[str] = None,
             traceback_text: Optional[str] = None) -> None:
        """Ack an outcome, tolerating a lease lost to the reaper.

        If the worker stalled past its lease (no renewal reached the
        queue within the TTL), the reaper may have re-routed the cell
        before this ack lands; the work is then re-run elsewhere, which
        is safe because execution is idempotent (completed run dirs are
        adopted, not re-trained).
        """
        try:
            if failed:
                self.broker.ack_failed(name, error or "failed",
                                       traceback_text, result=summary)
            else:
                self.broker.ack_done(name, summary)
        except KeyError:
            counter("dispatch.lost_leases",
                    help="acks dropped because the lease was reaped "
                    "mid-task").inc()

    def _run_cell(self, task: Dict) -> Dict:
        """Run (or adopt) one cell in its run directory; returns its summary.

        Adoption first: a directory that already validates as complete
        for this spec came from a previous owner that finished the
        work but died before acking — re-acking its persisted summary
        preserves both the result and the bit-identical fingerprint.
        Anything else on disk is a half-written remnant and is cleared
        so the re-run starts from a clean claim, exactly like the sweep
        engine's resume path.
        """
        spec_dict = task["payload"]
        run_dir = self.run_dir_for(task["name"])
        if os.path.isdir(run_dir):
            if run_dir_is_complete(run_dir, spec_dict):
                counter("dispatch.adoptions",
                        help="completed run dirs adopted without "
                        "re-running").inc()
                return RunResult.load(run_dir).summary()
            shutil.rmtree(run_dir)
        os.makedirs(run_dir)
        return run_cell(spec_dict, run_dir, verbose=task.get("verbose"),
                        dataset_cache=self._dataset_cache)
