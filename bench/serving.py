"""Serving workload: ANN top-k from a memory-mapped snapshot, via the front.

A clustered snapshot of 100k users x 20k items x d=32 is saved in format
v3 with its IVF index, loaded with ``mmap=True`` and served with
``backend="ann"`` behind ``AsyncRequestFront(window_ms=2, k=20)``.  Each
read asks for 16 users drawn Zipf(1.1) over a seeded permutation, so a
few hot users recur (and hit the ANN probe cache) while the tail is cold.
The load generator is the process's main thread; the front's dispatcher
is the only other thread.

Four phases share the run's seconds:

* ``r80`` / ``r160``: open-loop Poisson reads at 80 and 160 req/s.  The
  ``cap`` phase measured 250-420 req/s on the 2-vCPU reference host,
  and small open-loop batches cost more per user than its 1024-user
  ones, so 300 req/s crossed the knee whenever that host slowed down;
* ``mixed``: ``r80`` reads plus 10 ``partial_update`` writes/s of 8
  edges, issued from the same open-loop schedule;
* ``cap``: reads submitted as fast as the front's backpressure allows.

Open-loop latency is timed from each request's due time; a refused or
failed request counts as infinitely late.
"""

from __future__ import annotations

import bisect
import os
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.obs import (enable_tracing, instant_event, reset_tracing,
                       snapshot_events, span)
from repro.serve import (AsyncRequestFront, BackpressureError,
                         DEFAULT_RECALL_BUDGET, RecommenderService,
                         recall_at_k, save_embedding_snapshot)

from .layers import LayerTracer, SpanTree, mean, percentile

USERS, ITEMS, DIM, CENTERS = 100_000, 20_000, 32, 100
SMOKE_USERS, SMOKE_ITEMS = 5_000, ITEMS
SEEN_PER_USER = 4
REQUEST_USERS = 16
ZIPF_A = 1.1
WINDOW_MS = 2.0
K = 20
#: backpressure cap of the front: 64 requests of 16 users
MAX_PENDING_USERS = 1024
WRITE_EDGES = 8
SETUP_REPEATS = 5
DATA_SEED = 0
TRACE_CAPACITY = 1 << 22
#: how long a request may stay unanswered once its phase has ended
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Phase:
    name: str
    share: float             # of the run's seconds
    read_rate: float = 0.0   # open-loop reads/s; 0 = as fast as allowed
    write_rate: float = 0.0  # open-loop writes/s


PHASES = (Phase("r80", 0.3, 80.0), Phase("r160", 0.2, 160.0),
          Phase("mixed", 0.2, 80.0, 10.0), Phase("cap", 0.3))
OPEN_LOOP = tuple(p.name for p in PHASES if p.read_rate)

LAYER_METRICS = tuple(
    f"{metric}.{phase.name}" for phase in PHASES for metric in (
        "read_ms.p50", "read_ms.p99",
        "serve.front.queue_wait_ms.p50", "serve.front.queue_wait_ms.p99",
        "serve.front.batch_users.mean", "serve.recommend_ms.p50",
        "serve.recommend_ms.p99", "serve.busy.frac",
        "serve.ann.candidates_ms.p50", "serve.ann.scored.frac",
        "serve.rank_ms.p50", "serve.rejected", "loadgen.late_ms.p99")
) + ("write_ms.p90", "serve.partial_update_ms.p50", "fail_frac")


class _Inputs:
    """The snapshot's tables (from ``DATA_SEED``) and the request stream.

    The tables are fixed like a corpus; ``seed`` drives which users ask,
    when, and what the writes fold in.
    """

    def __init__(self, seed: int, num_users: int, num_items: int):
        rng = np.random.default_rng(DATA_SEED)
        centers = rng.standard_normal((CENTERS, DIM)) * 3.0
        self.items = (centers[rng.integers(0, CENTERS, num_items)]
                      + rng.standard_normal((num_items, DIM)) * 0.4
                      ).astype(np.float32)
        self.users = (centers[rng.integers(0, CENTERS, num_users)]
                      + rng.standard_normal((num_users, DIM)) * 0.4
                      ).astype(np.float32)
        rows = np.repeat(np.arange(num_users), SEEN_PER_USER)
        cols = rng.integers(0, num_items, len(rows))
        self.seen = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                  shape=(num_users, num_items))
        self.seen.data[:] = 1.0
        self.order = rng.permutation(num_users)
        self.rng = np.random.default_rng(seed)

    def requests(self, count: int) -> np.ndarray:
        """``(count, REQUEST_USERS)`` user ids, Zipf over the permutation."""
        need = count * REQUEST_USERS
        ranks = np.empty(0, dtype=np.int64)
        while len(ranks) < need:
            draw = self.rng.zipf(ZIPF_A, size=need)
            ranks = np.concatenate([ranks, draw[draw <= len(self.order)]])
        return self.order[ranks[:need] - 1].reshape(count, REQUEST_USERS)

    def arrivals(self, rate: float, seconds: float) -> np.ndarray:
        """Poisson arrival offsets in ``[0, seconds)``."""
        if not rate:
            return np.empty(0)
        gaps = self.rng.exponential(1.0 / rate,
                                    size=int(rate * seconds * 1.5) + 32)
        offsets = np.cumsum(gaps)
        return offsets[offsets < seconds]


@dataclass
class _PhaseLog:
    """What the load generator saw in one phase."""

    name: str
    users: np.ndarray                       # (requests, REQUEST_USERS)
    due: np.ndarray                         # perf_counter seconds
    done: np.ndarray                        # NaN = no answer
    answers: List[Optional[np.ndarray]]
    late_s: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    #: per request: (row, items) pairs folded in before it was submitted
    folded: Dict[int, list] = field(default_factory=dict)
    rejected: int = 0
    failed: int = 0

    def latency_ms(self) -> np.ndarray:
        lat = (self.done - self.due) * 1e3
        lat[np.isnan(lat)] = np.inf
        return lat


class _LoadGenerator:
    """Drives the phases from the calling thread."""

    def __init__(self, front, service, inputs: _Inputs,
                 tracer: Optional[LayerTracer]):
        self.front, self.service, self.inputs = front, service, inputs
        self.tracer = tracer
        self.trace = tracer is not None
        self.next_id = 0
        self.folded: Dict[int, set] = {}

    def _submit(self, log: _PhaseLog, i: int, futures: list) -> bool:
        req = self.next_id + i
        if self.trace:
            instant_event("loadgen.submit", req=req)
        try:
            future = self.front.submit(log.users[i])
        except BackpressureError:
            return False
        done, trace = log.done, self.trace

        def stamp(_, i=i, req=req):
            done[i] = time.perf_counter()
            if trace:
                instant_event("loadgen.done", req=req)

        future.add_done_callback(stamp)
        futures[i] = future
        return True

    def _drain(self, log: _PhaseLog, futures: list) -> None:
        for i, future in enumerate(futures):
            if future is None:
                continue
            try:
                log.answers[i] = future.result(timeout=DRAIN_TIMEOUT_S)
            except Exception:                         # counted, not raised
                log.failed += 1
                log.done[i] = np.nan
        self.next_id += len(log.users)

    def open_loop(self, phase: Phase, seconds: float) -> _PhaseLog:
        reads = self.inputs.arrivals(phase.read_rate, seconds)
        writes = self.inputs.arrivals(phase.write_rate, seconds)
        plan = self._plan_writes(len(writes))
        log = _PhaseLog(phase.name, self.inputs.requests(len(reads)),
                        np.empty(len(reads)), np.full(len(reads), np.nan),
                        [None] * len(reads))
        futures: list = [None] * len(reads)
        schedule = sorted([(t, 1, j) for j, t in enumerate(writes)]
                          + [(t, 0, i) for i, t in enumerate(reads)])
        with self._phase(phase):
            self._run_schedule(log, schedule, plan, time.perf_counter(),
                               futures)
            self._drain(log, futures)
        return log

    @contextmanager
    def _phase(self, phase: Phase):
        if self.tracer is not None:
            self.tracer.phase = phase.name
        try:
            with span("loadgen.phase", phase=phase.name):
                yield
        finally:
            if self.tracer is not None:
                self.tracer.phase = ""

    def _run_schedule(self, log: _PhaseLog, schedule: list, plan: list,
                      start: float, futures: list) -> None:
        for offset, is_write, i in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            log.late_s.append(time.perf_counter() - due)
            if is_write:
                users, items = plan[i]
                self.service.partial_update(users, items)
                log.write_ms.append((time.perf_counter() - due) * 1e3)
                for user, item in zip(users.tolist(), items.tolist()):
                    self.folded.setdefault(user, set()).add(item)
                continue
            log.due[i] = due
            pairs = [(row, tuple(self.folded[user]))
                     for row, user in enumerate(log.users[i].tolist())
                     if user in self.folded]
            if pairs:
                log.folded[i] = pairs
            if not self._submit(log, i, futures):
                log.rejected += 1

    def _plan_writes(self, count: int) -> list:
        """Each write folds in a hot user's next current recommendation."""
        if not count:
            return []
        users = self.inputs.requests(
            -(-count * WRITE_EDGES // REQUEST_USERS)).ravel()
        users = users[:count * WRITE_EDGES]
        unique = np.unique(users)
        top = dict(zip(unique.tolist(),
                       self.service.recommend(unique, k=K).tolist()))
        taken: Dict[int, int] = {}
        items = []
        for user in users.tolist():
            rank = taken.get(user, 0)
            taken[user] = rank + 1
            items.append(top[user][rank % K])
        items = np.asarray(items, dtype=np.int64)
        return [(users[j:j + WRITE_EDGES], items[j:j + WRITE_EDGES])
                for j in range(0, len(users), WRITE_EDGES)]

    def as_fast_as_allowed(self, phase: Phase, seconds: float) -> _PhaseLog:
        pool = self.inputs.requests(int(seconds * 1000) + 64)
        log = _PhaseLog(phase.name, pool, np.empty(len(pool)),
                        np.full(len(pool), np.nan), [None] * len(pool))
        futures: list = [None] * len(pool)
        with self._phase(phase):
            start = time.perf_counter()
            end, sent = start + seconds, 0
            while sent < len(pool) and time.perf_counter() < end:
                log.due[sent] = time.perf_counter()
                if self._submit(log, sent, futures):
                    sent += 1
                else:               # flow control here, not a failure
                    log.rejected += 1
                    time.sleep(0.001)
            log.users, log.due = pool[:sent], log.due[:sent]
            log.done, log.answers = log.done[:sent], log.answers[:sent]
            self._drain(log, futures[:sent])
        return log


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        work_dir: str) -> dict:
    """Run the serving workload; returns the child result dict."""
    num_users, num_items = ((SMOKE_USERS, SMOKE_ITEMS) if smoke
                            else (USERS, ITEMS))
    inputs = _Inputs(seed, num_users, num_items)
    first = inputs.requests(1)[0]
    os.makedirs(work_dir, exist_ok=True)
    setup_seconds = []
    front = service = path = None
    try:
        for rep in range(SETUP_REPEATS):
            if front is not None:
                front.close()
                service.close()
                os.remove(path)
            start = time.perf_counter()
            path = save_embedding_snapshot(
                os.path.join(work_dir, f"snapshot-{rep}.npz"),
                inputs.users, inputs.items, train_matrix=inputs.seen,
                dataset_name="bench-serve")
            service = RecommenderService.from_snapshot(path, backend="ann",
                                                       mmap=True)
            front = AsyncRequestFront(service, window_ms=WINDOW_MS, k=K,
                                      max_pending_users=MAX_PENDING_USERS)
            front.submit(first).result()
            setup_seconds.append(time.perf_counter() - start)

        tracer = LayerTracer() if trace else None
        if trace:
            reset_tracing(TRACE_CAPACITY)
            tracer.install()
            enable_tracing(True)
        loadgen = _LoadGenerator(front, service, inputs, tracer)
        logs: Dict[str, _PhaseLog] = {}
        checks: List[str] = []
        try:
            for phase in PHASES:
                drive = (loadgen.open_loop if phase.read_rate
                         else loadgen.as_fast_as_allowed)
                logs[phase.name] = drive(phase, phase.share * seconds)
                if phase.name == "r160":
                    # every read so far saw the snapshot's state: compare
                    # the front with direct calls and ANN with exact
                    pre_write = [logs["r80"], logs["r160"]]
                    direct, touched = _check_front(service, pre_write,
                                                   checks)
                    with RecommenderService.from_snapshot(
                            path, backend="exact", mmap=True) as exact:
                        recall = recall_at_k(direct, exact.recommend(
                            touched, k=K))
            _check_front(service, [logs["cap"]], checks)
            _check_folded(logs["mixed"], checks)
            threads = _thread_count()
        finally:
            if tracer is not None:
                enable_tracing(False)
                tracer.remove()
    finally:
        if front is not None:
            front.close()
            service.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    if recall < DEFAULT_RECALL_BUDGET:
        checks.append(f"ANN recall@{K} {recall:.4f} is below the budget "
                      f"{DEFAULT_RECALL_BUDGET}")
    nproc = len(os.sched_getaffinity(0))
    if threads > nproc:
        checks.append(f"{threads} threads in the load-generating process, "
                      f"more than nproc={nproc}")
    reads = sum(len(log.users) for log in logs.values())
    writes = len(logs["mixed"].write_ms)
    failed = sum(log.failed + log.rejected * (log.name in OPEN_LOOP)
                 for log in logs.values())
    result = {"attempted": reads + writes, "failed": failed,
              "checks": checks,
              "info": {"users": num_users, "items": num_items,
                       "threads": threads,
                       "requests": {n: len(log.users)
                                    for n, log in logs.items()},
                       "writes": writes}}
    if not trace:
        pooled = np.concatenate([logs[n].latency_ms() for n in OPEN_LOOP])
        cap = logs["cap"]
        answered = int(np.count_nonzero(~np.isnan(cap.done)))
        result["metrics"] = {
            "setup_s": float(np.median(setup_seconds)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latency_ms.p50": percentile(pooled, 50),
            "throughput": answered / float(np.nanmax(cap.done) - cap.due[0]),
            "quality": recall,
        }
        return result
    result.update(_layer_metrics(logs, tracer, failed / (reads + writes)))
    return result


def _check_front(service, logs: List[_PhaseLog], checks: List[str]):
    """Front answers must equal direct ``recommend`` on the same users."""
    users = np.concatenate([log.users for log in logs])
    touched, inverse = np.unique(users, return_inverse=True)
    direct = service.recommend(touched, k=K)
    rows = iter(inverse.reshape(users.shape))
    for log in logs:
        mismatched = 0
        for answer in log.answers:
            expected = direct[next(rows)]
            if answer is not None and not np.array_equal(answer, expected):
                mismatched += 1
        if mismatched:
            checks.append(f"{log.name}: {mismatched} front answers differ "
                          "from direct recommend calls")
    return direct, touched


def _check_folded(log: _PhaseLog, checks: List[str]) -> None:
    """No answer may hold an item an earlier write folded in for its user."""
    leaked = sum(1 for i, pairs in log.folded.items()
                 if log.answers[i] is not None
                 for row, items in pairs
                 if np.isin(log.answers[i][row], items).any())
    if leaked:
        checks.append(f"mixed: {leaked} answers recommend items already "
                      "folded in by partial_update")


def _thread_count() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _layer_metrics(logs: Dict[str, _PhaseLog], tracer: LayerTracer,
                   fail_frac: float) -> dict:
    events = snapshot_events()
    tree = SpanTree(events)
    windows = {e["args"]["phase"]: (e["ts"], e["ts"] + e["dur"])
               for e in tree.named("loadgen.phase")}
    marks: Dict[str, Dict[int, float]] = {"loadgen.submit": {},
                                          "loadgen.done": {}}
    for event in events:
        if event.get("ph") == "i" and event["name"] in marks:
            marks[event["name"]][event["args"]["req"]] = event["ts"]

    metrics: Dict[str, float] = {}
    in_phases = []
    for name, log in logs.items():
        lo, hi = windows[name]
        spans = [e for e in tree.spans if lo <= e["ts"] <= hi]
        in_phases += [e for e in spans if e["name"] != "loadgen.phase"]

        def durations_ms(span_name, spans=spans):
            return [e["dur"] / 1e3 for e in spans if e["name"] == span_name]

        recs = sorted((e for e in spans if e["name"] == "serve.recommend"),
                      key=lambda e: e["ts"] + e["dur"])
        ends = [e["ts"] + e["dur"] for e in recs]
        waits = []
        for req, done_ts in marks["loadgen.done"].items():
            if lo <= done_ts <= hi and req in marks["loadgen.submit"]:
                idx = bisect.bisect_right(ends, done_ts) - 1
                if idx >= 0:
                    waits.append((recs[idx]["ts"]
                                  - marks["loadgen.submit"][req]) / 1e3)
        latency = log.latency_ms()
        finite = tracer.counts[f"scored.{name}.finite"]
        cells = tracer.counts[f"scored.{name}.cells"]
        metrics.update({
            f"read_ms.p50.{name}": percentile(latency, 50),
            f"read_ms.p99.{name}": percentile(latency, 99),
            f"serve.front.queue_wait_ms.p50.{name}": percentile(waits, 50),
            f"serve.front.queue_wait_ms.p99.{name}": percentile(waits, 99),
            f"serve.front.batch_users.mean.{name}": mean(
                [e["args"]["users"] for e in recs]),
            f"serve.recommend_ms.p50.{name}": percentile(
                durations_ms("serve.recommend"), 50),
            f"serve.recommend_ms.p99.{name}": percentile(
                durations_ms("serve.recommend"), 99),
            f"serve.busy.frac.{name}": sum(e["dur"] for e in recs) / (hi - lo),
            f"serve.ann.candidates_ms.p50.{name}": percentile(
                durations_ms("serve.ann.candidates"), 50),
            f"serve.ann.scored.frac.{name}": finite / cells if cells else 0.0,
            f"serve.rank_ms.p50.{name}": percentile(
                durations_ms("serve.rank"), 50),
            f"serve.rejected.{name}": float(log.rejected),
            f"loadgen.late_ms.p99.{name}": percentile(
                np.asarray(log.late_s) * 1e3, 99),
        })
        if name == "mixed":
            metrics["write_ms.p90"] = percentile(log.write_ms, 90)
            metrics["serve.partial_update_ms.p50"] = percentile(
                durations_ms("serve.partial_update"), 50)
    metrics["fail_frac"] = fail_frac

    wall = sum(hi - lo for lo, hi in windows.values()) / 1e6
    return {"metrics": metrics,
            "self_times": [(n, s, s / wall)
                           for n, s in tree.self_times(in_phases).items()]}
