"""The filesystem broker: a crash-safe work queue under ``<sweep_dir>/queue/``.

Any number of worker processes — on any machine that mounts the sweep
directory — coordinate through nothing but atomically-renamed JSON
files.  There is no server, no socket and no database: the POSIX
guarantees of ``os.rename`` / ``os.replace`` within one filesystem are
the whole synchronization protocol, which is exactly the property that
lets a sweep span hosts that share only an NFS mount.

Broker layout
-------------

::

    <sweep_dir>/queue/
      pending/<cell>.json   # runnable (or backing-off) tasks
      leased/<cell>.json    # claimed by a worker; carries the lease
      done/<cell>.json      # finished tasks + their result summaries
      dead/<cell>.json      # dead-lettered after max_attempts —
                            # terminal failures
      failed/<cell>.attempt-N.json   # per-attempt failure archive
      DRAIN                 # sentinel: workers exit at the next loop
      .clock                # mtime probe backing broker_now()

Task files carry the ``dispatch-task/v1`` schema: the cell ``name``,
its ``payload`` (a plain :class:`~repro.api.ExperimentSpec` dict, the
sweep engine's existing wire format), ``attempts`` / ``max_attempts``
retry bookkeeping and, once claimed, the ``lease``.

State transitions are single atomic renames: claiming a cell is
``pending/x.json -> leased/x.json`` (two racing workers cannot both
win: exactly one ``rename`` succeeds, the loser gets ``FileNotFoundError``
and moves on), completion is a write into ``done/`` followed by
removing the lease file, and a failed attempt either re-enters
``pending/`` (with an attempt count and exponential backoff) or lands
in ``dead/``.

Leases and clocks
-----------------
A claimed task carries a lease: worker id, host, pid, TTL and a
deadline.  The worker renews it from a keepalive thread while the task
runs (:class:`repro.dispatch.DispatchWorker`).
Staleness is judged on **two clocks** and a lease only expires when
both agree: the wall-clock deadline stamped by the owning worker *and*
the lease file's mtime age measured against :meth:`QueueBroker.broker_now`
— the shared filesystem's own clock, read by touching a probe file.  A
worker whose wall clock is skewed therefore cannot have its lease
stolen while it is still renewing, and a dead worker's lease expires
even if it stamped a deadline far in the future.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..obs import counter, span

#: directory (under the sweep dir) holding the broker state
QUEUE_DIRNAME = "queue"

#: schema stamped on every task file
TASK_SCHEMA = "dispatch-task/v1"

#: the broker's task states (each is a subdirectory of the queue)
PENDING = "pending"
LEASED = "leased"
DONE = "done"
DEAD = "dead"
#: per-attempt failure archive (not a task state: tasks never live here,
#: their attempt post-mortems do)
FAILED = "failed"

STATES = (PENDING, LEASED, DONE, DEAD)

#: drain sentinel file: when present, workers exit at the next loop turn
DRAIN_SENTINEL = "DRAIN"

#: mtime probe file backing :meth:`QueueBroker.broker_now`
CLOCK_PROBE = ".clock"

#: default lease time-to-live (seconds); a worker renews every third of
#: it while a task runs, so the TTL only needs to exceed a stall of the
#: worker process (plus filesystem attribute-cache lag), not the cell
DEFAULT_LEASE_TTL = 60.0

#: default attempt budget before a cell is dead-lettered
DEFAULT_MAX_ATTEMPTS = 3

#: base of the exponential retry backoff: attempt ``n`` re-enters the
#: queue no earlier than ``backoff * 2**(n-1)`` seconds after it failed
DEFAULT_RETRY_BACKOFF = 1.0


_TMP_COUNTER = itertools.count()


def _unique_suffix() -> str:
    """A token no other writer (process *or* thread) can collide with."""
    return f"{os.getpid()}.{threading.get_ident()}.{next(_TMP_COUNTER)}"


def _write_json_atomic(path: str, payload: Dict) -> str:
    """Write JSON via a same-directory temp file + ``os.replace``.

    Readers never observe a torn file, and the replace refreshes the
    destination mtime — which is what the lease-staleness check keys on.
    The temp name embeds a pid/thread/counter token so concurrent
    writers of the same task cannot collide on the intermediate file.
    """
    tmp = f"{path}.{_unique_suffix()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def make_task(name: str, payload: Dict,
              max_attempts: int = DEFAULT_MAX_ATTEMPTS,
              retry_backoff: float = DEFAULT_RETRY_BACKOFF) -> Dict:
    """Build one ``dispatch-task/v1`` payload (not yet enqueued).

    ``payload`` is a plain :class:`~repro.api.ExperimentSpec` dict (the
    sweep engine's wire format, unchanged).
    """
    if int(max_attempts) < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    return {"schema": TASK_SCHEMA, "name": str(name), "payload": payload,
            "attempts": 0, "max_attempts": int(max_attempts),
            "retry_backoff": float(retry_backoff), "not_before": None,
            "lease": None, "result": None, "error": None}


class QueueBroker:
    """File-based task broker for one sweep directory (see module docs).

    Every method is safe to call from any process on any machine
    sharing the directory; the broker holds no in-memory state beyond
    paths, so constructing one is free and there is exactly one source
    of truth — the filesystem.
    """

    def __init__(self, sweep_dir: str):
        self.sweep_dir = sweep_dir
        self.queue_dir = os.path.join(sweep_dir, QUEUE_DIRNAME)

    # ------------------------------------------------------------------ #
    # layout + clock
    # ------------------------------------------------------------------ #

    def init_queue(self) -> str:
        """Create the broker layout (idempotent); returns the queue dir."""
        for state in STATES + (FAILED,):
            os.makedirs(os.path.join(self.queue_dir, state), exist_ok=True)
        return self.queue_dir

    def exists(self) -> bool:
        """Whether this sweep directory holds an initialized queue."""
        return os.path.isdir(os.path.join(self.queue_dir, PENDING))

    def _require_queue(self) -> None:
        if not self.exists():
            raise FileNotFoundError(
                f"{self.sweep_dir!r} holds no dispatch queue (expected "
                f"{self.queue_dir!r}; enqueue cells first — see "
                "repro.dispatch.enqueue_sweep)")

    def broker_now(self) -> float:
        """The shared filesystem's clock: mtime of a just-touched probe.

        All workers read the *same* clock regardless of their own
        wall-clock skew, because the timestamp is assigned by the
        filesystem that hosts the queue.  This is the arbiter for lease
        mtime-age and retry ``not_before`` checks.
        """
        probe = os.path.join(self.queue_dir, CLOCK_PROBE)
        with open(probe, "w") as handle:
            handle.write(str(os.getpid()))
        return os.stat(probe).st_mtime

    # ------------------------------------------------------------------ #
    # file plumbing
    # ------------------------------------------------------------------ #

    def _path(self, state: str, name: str) -> str:
        return os.path.join(self.queue_dir, state, f"{name}.json")

    def _read(self, state: str, name: str) -> Optional[Dict]:
        try:
            with open(self._path(state, name)) as handle:
                return json.load(handle)
        except (FileNotFoundError, ValueError):
            # a concurrent rename (or a mid-write reader on a non-POSIX
            # fs) is indistinguishable from absence; callers retry on
            # the next scan
            return None

    def names(self, state: str) -> List[str]:
        """Sorted cell names currently in ``state``."""
        directory = os.path.join(self.queue_dir, state)
        try:
            entries = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(entry[:-len(".json")] for entry in entries
                      if entry.endswith(".json"))

    def read_task(self, state: str, name: str) -> Optional[Dict]:
        """The task payload of ``name`` in ``state`` (None when absent)."""
        return self._read(state, name)

    def find_task(self, name: str) -> Optional[str]:
        """Which state currently holds ``name`` (None when nowhere)."""
        for state in STATES:
            if os.path.exists(self._path(state, name)):
                return state
        return None

    # ------------------------------------------------------------------ #
    # producing
    # ------------------------------------------------------------------ #

    def enqueue(self, task: Dict) -> bool:
        """Add one :func:`make_task` payload to ``pending/``.

        Idempotent by name: a task already present in any state is left
        untouched (re-enqueueing a finished sweep re-runs nothing),
        and the write is atomic, so a worker scanning ``pending/``
        never sees a half-written task.  Returns whether the task was
        actually added.
        """
        if task.get("schema") != TASK_SCHEMA:
            raise ValueError(f"not a {TASK_SCHEMA} task: "
                             f"{task.get('schema')!r}")
        self.init_queue()
        name = task["name"]
        if self.find_task(name) is not None:
            return False
        _write_json_atomic(self._path(PENDING, name), task)
        counter("dispatch.enqueued",
                help="tasks added to dispatch queues").inc()
        return True

    # ------------------------------------------------------------------ #
    # claiming + leases
    # ------------------------------------------------------------------ #

    def claim(self, worker_id: str,
              ttl: float = DEFAULT_LEASE_TTL) -> Optional[Dict]:
        """Claim the next runnable pending task for ``worker_id``.

        Runs the reaper first (any worker may — it is idempotent), then
        scans ``pending/`` in sorted order and takes the first task
        whose retry backoff has elapsed.  The claim itself is one
        atomic rename into ``leased/``; the winner then stamps the
        lease (worker id, host, pid, TTL, deadline).
        Returns the claimed task, or ``None`` when nothing is runnable
        right now.
        """
        self._require_queue()
        with span("dispatch.claim", worker=worker_id):
            self.reap_expired()
            now = self.broker_now()
            for name in self.names(PENDING):
                task = self._read(PENDING, name)
                if task is None:
                    continue
                not_before = task.get("not_before")
                if not_before is not None and now < not_before:
                    continue
                try:
                    os.rename(self._path(PENDING, name),
                              self._path(LEASED, name))
                except (FileNotFoundError, OSError):
                    continue        # another worker won the rename race
                task["lease"] = {
                    "worker": worker_id,
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "ttl": float(ttl),
                    "acquired": time.time(),
                    "renewed": time.time(),
                    "deadline": time.time() + float(ttl),
                }
                _write_json_atomic(self._path(LEASED, name), task)
                counter("dispatch.claims",
                        help="queue cells claimed by workers").inc()
                return task
        return None

    def renew(self, name: str, worker_id: str) -> bool:
        """Extend ``name``'s lease (the worker's keepalive); returns success.

        Renewing rewrites the lease file, which both pushes the
        wall-clock deadline out by the lease TTL and refreshes the
        file's mtime — the two clocks the reaper checks.  A renewal by
        anyone but the lease's owner is refused: if the lease was
        already reaped and re-claimed elsewhere, the original worker
        learns (via the ``False`` return) that it lost the cell.
        """
        task = self._read(LEASED, name)
        if task is None or not task.get("lease"):
            return False
        if task["lease"].get("worker") != worker_id:
            return False
        task["lease"]["renewed"] = time.time()
        task["lease"]["deadline"] = time.time() + task["lease"]["ttl"]
        _write_json_atomic(self._path(LEASED, name), task)
        return True

    # ------------------------------------------------------------------ #
    # completion + failure
    # ------------------------------------------------------------------ #

    def ack_done(self, name: str, result: Optional[Dict] = None) -> Dict:
        """Record ``name`` as finished; moves it to ``done/``.

        ``result`` (the cell's JSON result summary,
        :meth:`repro.api.RunResult.summary`) rides along in the done
        record as the audit trail.  The done record is written
        *before* the lease file is removed, so a crash between the two
        leaves a duplicate the reaper cleans up — never a lost result.
        """
        task = self._read(LEASED, name) or self._read(PENDING, name)
        if task is None:
            raise KeyError(f"no claimed task {name!r} to complete")
        task["result"] = result
        task["lease"] = None
        _write_json_atomic(self._path(DONE, name), task)
        for state in (LEASED, PENDING):
            try:
                os.unlink(self._path(state, name))
            except FileNotFoundError:
                pass
        counter("dispatch.completions",
                help="queue cells finished successfully").inc()
        return task

    def _take_ownership(self, name: str) -> Optional[Tuple[str, Dict]]:
        """Atomically detach ``name``'s leased/pending file for mutation.

        Renames the task file to a uniquely-suffixed token, so exactly
        one of any number of concurrent failure-routers (a worker acking
        its own cell, reapers in other processes) wins; everyone else
        gets ``None``.  Returns ``(token_path, task)`` for the winner —
        who must remove the token once the replacement state is written.
        """
        for state in (LEASED, PENDING):
            source = self._path(state, name)
            token = f"{source}.{_unique_suffix()}.taken"
            try:
                os.rename(source, token)
            except (FileNotFoundError, OSError):
                continue
            try:
                with open(token) as handle:
                    return token, json.load(handle)
            except (FileNotFoundError, ValueError):
                return None
        return None

    def ack_failed(self, name: str, error: str,
                   traceback_text: Optional[str] = None,
                   result: Optional[Dict] = None) -> Dict:
        """Record a failed attempt; retry with backoff or dead-letter.

        The attempt post-mortem is archived under ``failed/`` either
        way.  While attempts remain, the task re-enters ``pending/``
        with ``not_before`` pushed out by the exponential backoff (on
        the broker clock); once ``max_attempts`` is exhausted it moves
        to ``dead/``, keeping ``result`` (the failed summary, if any).
        Single-winner: the task file is atomically detached first, so a
        worker acking its own crash and a reaper expiring the same lease
        cannot both count an attempt.  Returns the updated task.
        """
        owned = self._take_ownership(name)
        if owned is None:
            raise KeyError(f"no task {name!r} to fail (already "
                           "re-routed by another process?)")
        token, task = owned
        task["attempts"] = int(task.get("attempts", 0)) + 1
        attempt = task["attempts"]
        worker = (task.get("lease") or {}).get("worker")
        task["lease"] = None
        _write_json_atomic(
            os.path.join(self.queue_dir, FAILED,
                         f"{name}.attempt-{attempt}.json"),
            {"name": name, "attempt": attempt, "worker": worker,
             "error": error, "traceback": traceback_text,
             "wall_time": time.time()})
        if attempt >= int(task.get("max_attempts", 1)):
            task["error"] = error
            task["result"] = result
            target = DEAD
            counter("dispatch.dead_letters",
                    help="cells dead-lettered after max_attempts").inc()
        else:
            backoff = float(task.get("retry_backoff",
                                     DEFAULT_RETRY_BACKOFF))
            task["not_before"] = (self.broker_now()
                                  + backoff * 2 ** (attempt - 1))
            task["error"] = None
            target = PENDING
            counter("dispatch.retries",
                    help="failed cells re-queued for another worker").inc()
        _write_json_atomic(self._path(target, name), task)
        try:
            os.unlink(token)
        except FileNotFoundError:
            pass
        return task

    def forget(self, name: str) -> None:
        """Delete every record of ``name`` (any state, failure archive),
        so a producer can enqueue that name again (see :meth:`enqueue`)."""
        failed_dir = os.path.join(self.queue_dir, FAILED)
        archived = [os.path.join(failed_dir, entry)
                    for entry in (os.listdir(failed_dir)
                                  if os.path.isdir(failed_dir) else ())
                    if entry.startswith(f"{name}.attempt-")]
        for path in [self._path(state, name) for state in STATES] \
                + archived:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    def remove_if_empty(self) -> bool:
        """Delete the queue layout unless a state directory still holds
        a record or a drain is requested; returns whether it is gone."""
        if self.drain_requested():
            return False
        try:
            for state in STATES + (FAILED,):
                os.rmdir(os.path.join(self.queue_dir, state))
            probe = os.path.join(self.queue_dir, CLOCK_PROBE)
            if os.path.exists(probe):
                os.unlink(probe)
            os.rmdir(self.queue_dir)
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # the reaper
    # ------------------------------------------------------------------ #

    def lease_expired(self, task: Dict, now_wall: Optional[float] = None,
                      now_broker: Optional[float] = None,
                      mtime: Optional[float] = None) -> bool:
        """Whether a leased task's lease is stale on *both* clocks.

        Expiry requires (a) the owning worker's own wall-clock deadline
        to have passed and (b) the lease file's mtime — stamped by the
        shared filesystem at the last renewal — to be older than the
        TTL relative to :meth:`broker_now`.  Requiring both means a
        live worker with a skewed clock keeps its lease (its renewals
        keep the mtime fresh), while a dead worker cannot keep one by
        having stamped a generous deadline (its mtime goes stale).
        """
        lease = task.get("lease")
        if not lease:
            # claim in progress: the winner's rename landed but its lease
            # stamp hasn't.  The stamp is milliseconds away, so judge by
            # the file's ctime (which the rename refreshed — its mtime is
            # still the enqueue time) and only call it debris once a full
            # default TTL has passed without the stamp appearing (the
            # claimer died in the window).
            try:
                ctime = os.stat(self._path(LEASED,
                                           task["name"])).st_ctime
            except FileNotFoundError:
                return False
            now_broker = self.broker_now() if now_broker is None \
                else now_broker
            return (now_broker - ctime) > DEFAULT_LEASE_TTL
        if mtime is None:
            try:
                mtime = os.stat(self._path(LEASED, task["name"])).st_mtime
            except FileNotFoundError:
                return False
        now_wall = time.time() if now_wall is None else now_wall
        now_broker = self.broker_now() if now_broker is None else now_broker
        wall_expired = now_wall > float(lease.get("deadline", 0.0))
        mtime_expired = (now_broker - mtime) > float(
            lease.get("ttl", DEFAULT_LEASE_TTL))
        return wall_expired and mtime_expired

    def reap_expired(self) -> List[str]:
        """Expire stale leases back into the retry path; returns names.

        Safe for any process to run at any time: completed duplicates
        (a done record whose lease file survived an ill-timed crash)
        are simply unlinked, and genuinely stale leases go through the
        same attempt-counting retry/dead-letter logic as an ordinary
        failure, with the error naming the worker that went dark.
        """
        reaped = []
        now_wall = time.time()
        now_broker = None
        self._recover_orphaned_tokens()
        for name in self.names(LEASED):
            if os.path.exists(self._path(DONE, name)):
                # crash debris between ack_done's write and unlink
                try:
                    os.unlink(self._path(LEASED, name))
                except FileNotFoundError:
                    pass
                continue
            task = self._read(LEASED, name)
            if task is None:
                continue
            if now_broker is None:
                now_broker = self.broker_now()
            if not self.lease_expired(task, now_wall=now_wall,
                                      now_broker=now_broker):
                continue
            lease = task.get("lease") or {}
            try:
                self.ack_failed(
                    name,
                    f"lease expired: worker {lease.get('worker')!r} "
                    f"(host {lease.get('host')!r}, pid {lease.get('pid')})"
                    " stopped renewing")
            except KeyError:
                continue        # a concurrent reaper won the detach race
            counter("dispatch.lease_expirations",
                    help="leases expired by the reaper").inc()
            reaped.append(name)
        return reaped

    def _recover_orphaned_tokens(self) -> None:
        """Restore ``.taken`` detach tokens whose owner died mid-route.

        :meth:`_take_ownership` renames a task file to a token before
        rewriting its state; a router crashing in that (tiny) window
        would otherwise lose the task.  Tokens older than the default
        TTL whose original file never reappeared are renamed back, after
        which ordinary reaping/claiming resumes.
        """
        now_broker = None
        for state in (LEASED, PENDING):
            directory = os.path.join(self.queue_dir, state)
            try:
                entries = os.listdir(directory)
            except FileNotFoundError:
                continue
            for entry in entries:
                if not entry.endswith(".taken"):
                    continue
                token = os.path.join(directory, entry)
                original = os.path.join(
                    directory, entry[:entry.index(".json") + len(".json")])
                try:
                    age_base = os.stat(token).st_ctime
                except FileNotFoundError:
                    continue
                if now_broker is None:
                    now_broker = self.broker_now()
                if (now_broker - age_base) <= DEFAULT_LEASE_TTL:
                    continue
                if os.path.exists(original) or \
                        self.find_task(os.path.basename(original)[:-5]) \
                        is not None:
                    # the route did land somewhere; the token is debris
                    try:
                        os.unlink(token)
                    except FileNotFoundError:
                        pass
                    continue
                try:
                    os.rename(token, original)
                except (FileNotFoundError, OSError):
                    pass

    # ------------------------------------------------------------------ #
    # drain + status
    # ------------------------------------------------------------------ #

    def drain(self) -> str:
        """Write the drain sentinel: workers exit at their next loop turn."""
        path = os.path.join(self.queue_dir, DRAIN_SENTINEL)
        with open(path, "w") as handle:
            handle.write("drain\n")
        return path

    def drain_requested(self) -> bool:
        """Whether the drain sentinel is present."""
        return os.path.exists(os.path.join(self.queue_dir, DRAIN_SENTINEL))

    def settled(self) -> bool:
        """Whether no work remains in flight (pending and leased empty)."""
        return not self.names(PENDING) and not self.names(LEASED)

    def status(self) -> Dict:
        """One structured snapshot of the whole queue (for sweep-status).

        Returns counts per state plus per-cell detail: lease ages and
        owners, attempt counts, whether each pending cell is ready or
        waiting out a retry backoff, and dead-letter errors.  The only
        write is the ``.clock`` probe behind :meth:`broker_now`; no task
        state changes, so it is safe against a live sweep.
        """
        self._require_queue()
        now_wall = time.time()
        now_broker = self.broker_now()
        pending, leases, dead = [], [], []
        for name in self.names(PENDING):
            task = self._read(PENDING, name) or {}
            not_before = task.get("not_before")
            waiting = not_before is not None and now_broker < not_before
            pending.append({"name": name,
                            "attempts": task.get("attempts", 0),
                            "ready": not waiting,
                            "backoff_wait": waiting})
        for name in self.names(LEASED):
            task = self._read(LEASED, name) or {}
            lease = task.get("lease") or {}
            leases.append({"name": name,
                           "worker": lease.get("worker"),
                           "host": lease.get("host"),
                           "pid": lease.get("pid"),
                           "attempts": task.get("attempts", 0),
                           "age_seconds": max(0.0, now_wall
                                              - lease.get("acquired",
                                                          now_wall)),
                           "renewed_seconds_ago":
                               max(0.0, now_wall - lease.get("renewed",
                                                             now_wall)),
                           "ttl": lease.get("ttl")})
        for name in self.names(DEAD):
            task = self._read(DEAD, name) or {}
            dead.append({"name": name,
                         "attempts": task.get("attempts", 0),
                         "error": task.get("error")})
        return {"sweep_dir": self.sweep_dir,
                "counts": {state: len(self.names(state))
                           for state in STATES},
                "drain_requested": self.drain_requested(),
                "pending": pending, "leases": leases, "dead": dead,
                "done": self.names(DONE)}
