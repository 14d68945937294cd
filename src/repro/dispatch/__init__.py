"""Cross-machine sweep dispatch over a shared filesystem.

The dispatch subsystem turns a sweep directory into a job queue: a
filesystem broker (:mod:`.queue`) holds cells as atomically-renamed
JSON files under ``<sweep_dir>/queue/``, independent worker processes
(:mod:`.worker`, CLI ``repro worker <sweep_dir>``) on any machine that
mounts the directory claim cells under crash-safe leases, and a
coordinator (:mod:`.coordinator`) merges the finished cells back into
the ordinary ``sweep.json`` manifest.  Every queued cell is one
:class:`~repro.api.ExperimentSpec` dict, run through
:func:`repro.api.run_cell`.

On one machine, ``repro.api.run_sweep(specs, "runs/my-sweep",
workers=2)`` runs on this queue with two local workers.  Cross-machine:
:func:`enqueue_sweep` here, ``repro worker runs/my-sweep`` on every box,
then :func:`wait_for_queue` + :func:`collect_results` anywhere
(:func:`repro.api.aggregate_results` writes the leaderboard).
"""

from .queue import (DEAD, DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS,
                    DEFAULT_RETRY_BACKOFF, DONE, DRAIN_SENTINEL, FAILED,
                    LEASED, PENDING, QUEUE_DIRNAME, STATES, TASK_SCHEMA,
                    QueueBroker, make_task)
from .worker import DEFAULT_POLL_INTERVAL, DispatchWorker, default_worker_id
from .coordinator import (collect_results, enqueue_sweep, launch_worker,
                          wait_for_queue)

__all__ = [
    "QUEUE_DIRNAME", "TASK_SCHEMA", "STATES", "PENDING", "LEASED", "DONE",
    "DEAD", "FAILED", "DRAIN_SENTINEL", "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS", "DEFAULT_RETRY_BACKOFF", "QueueBroker",
    "make_task",
    "DEFAULT_POLL_INTERVAL", "DispatchWorker", "default_worker_id",
    "enqueue_sweep", "wait_for_queue", "collect_results", "launch_worker",
]
