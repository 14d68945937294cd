"""Cross-machine sweep dispatch over a shared filesystem.

The dispatch subsystem turns a sweep directory into a job queue: a
filesystem broker (:mod:`.queue`) holds cells as atomically-renamed
JSON files under ``<sweep_dir>/queue/``, independent worker processes
(:mod:`.worker`, CLI ``repro worker <sweep_dir>``) on any machine that
mounts the directory claim cells under crash-safe leases, and a
coordinator (:mod:`.coordinator`) merges the finished cells back into
the ordinary ``sweep.json`` manifest and aggregation artifacts.  Cells
can form small DAGs with artifact hand-offs (:mod:`.dag`) — train a
model, publish its snapshot, evaluate the snapshot — gated purely by
done records in the queue.

On one machine, ``repro.api.run_sweep(specs, "runs/my-sweep",
workers=2)`` runs on this queue with two local workers.  Cross-machine:
:func:`enqueue_sweep` here, ``repro worker runs/my-sweep`` on every box,
then :func:`wait_for_queue` + :func:`collect_results` anywhere.
"""

from .queue import (DEAD, DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS,
                    DEFAULT_RETRY_BACKOFF, DONE, DRAIN_SENTINEL, FAILED,
                    LEASED, PENDING, QUEUE_DIRNAME, STATES, TASK_SCHEMA,
                    QueueBroker, make_task)
from .dag import (ARTIFACT_REF_PREFIX, artifact_refs, parse_artifact_ref,
                  resolve_artifacts, task_kinds, validate_pipeline)
from .worker import DEFAULT_POLL_INTERVAL, DispatchWorker, default_worker_id
from .coordinator import (collect_results, dispatch_report,
                          enqueue_pipeline, enqueue_sweep, launch_worker,
                          wait_for_queue)

__all__ = [
    "QUEUE_DIRNAME", "TASK_SCHEMA", "STATES", "PENDING", "LEASED", "DONE",
    "DEAD", "FAILED", "DRAIN_SENTINEL", "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS", "DEFAULT_RETRY_BACKOFF", "QueueBroker",
    "make_task",
    "ARTIFACT_REF_PREFIX", "parse_artifact_ref", "artifact_refs",
    "resolve_artifacts", "task_kinds", "validate_pipeline",
    "DEFAULT_POLL_INTERVAL", "DispatchWorker", "default_worker_id",
    "enqueue_sweep", "enqueue_pipeline", "wait_for_queue",
    "collect_results", "dispatch_report", "launch_worker",
]
