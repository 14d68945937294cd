"""Hot-path microbenchmarks: sampler, evaluator, serving, trend check.

Measures, on the gowalla profile with the paper's 60-epoch budget:

* the whole-batch rejection sampler against a reference per-sample
  Python-loop implementation (the seed code), asserting the >= 3x
  speedup the hot-path PR claims;
* the chunked block evaluator against the seed's per-user
  rank-and-score Python loop, asserting the >= 2x speedup the chunked
  inference PR claims (and exact metric parity while at it);
* serving throughput (users/sec at k=20) of the
  ``repro.serve.RecommenderService`` — a batched request served in
  four chunks against a naive score-one-rank-one request loop (exact
  parity and >= 2x asserted);
* one full LightGCN training run (float32 via the harness, fused
  kernels on per ``BENCH_TRAIN_CONFIG``) with spmm profiling on, so the
  ``BENCH_hotpath.json`` artifact carries an epoch/sampler/spmm/eval
  wall-clock breakdown plus the registry's per-primitive seconds;
* the fused-kernel microbenchmark: the same 60-epoch budget trained
  once with the fused BPR/propagate tape nodes and once with the
  composed reference graph — loss trajectories and best metrics must
  agree (float tolerance), the fused run must not be slower beyond
  shared-machine noise, and both rows plus the measured speedup land in
  the artifact (typical speedup ~1.15-1.35x on one core);
* sweep-engine throughput (cells/sec over an 8-cell model x seed grid
  on gowalla) — the sequential in-process path against
  ``run_sweep(workers=2)``, which runs the cells on two local
  ``repro worker`` processes over the dispatch queue, with per-cell
  run-dir fingerprints asserted bit-identical first; the parallel path
  is asserted faster only on multi-core machines (interpreter start +
  import costs ~1s per worker, which one core cannot amortize);
* the dispatch-broker microbenchmark: pure enqueue -> claim -> ack_done
  filesystem-broker cycles/sec (no training — the queue's scheduling
  overhead per cell, trend-gated), plus the same 8-cell gowalla grid
  run once sequentially and once dispatched across two ``repro worker``
  subprocesses, with per-cell fingerprints asserted bit-identical and
  both wall times recorded (the dispatched time includes worker
  startup, so it is recorded but not gated);
* the observability overhead: the disabled ``repro.obs.span()`` fast
  path timed in ns/call, and the same 60-epoch budget traced vs
  untraced, asserted under ``MAX_TRACE_OVERHEAD`` (10%); the serving
  microbench additionally records request-latency p50/p95/p99 from the
  service's always-on ``serve.request_seconds`` histogram;
* the trend check: the run above must not regress beyond
  ``harness.TREND_TOLERANCE`` against the committed artifact (serving
  throughput included, via the ``serving_microbenchmark`` extra).

Run standalone with ``python benchmarks/test_hotpath.py`` or via
``pytest benchmarks/test_hotpath.py``.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from repro.data import BPRSampler
from repro.train import TrainConfig
from repro.eval import (aggregate_metrics, compute_user_metrics,
                        evaluate_scores, rank_items)

from harness import (BENCH_DTYPE, BENCH_MODEL_CONFIG, BENCH_TRAIN_CONFIG,
                     KS, check_hotpath_trend, get_dataset,
                     record_hotpath_extra, run_model,
                     write_hotpath_artifact)

#: minimum sampler speedup the hot-path PR claims (acceptance criterion)
MIN_SAMPLER_SPEEDUP = 3.0

#: minimum chunked-evaluator speedup over the per-user reference loop
MIN_EVAL_SPEEDUP = 2.0

#: minimum batched-serving speedup over the naive per-request loop
MIN_SERVE_SPEEDUP = 2.0


class _NaiveBPRSampler:
    """The seed's per-sample Python rejection loop (reference baseline)."""

    def __init__(self, graph, rng):
        self.graph = graph
        self.rng = rng
        self._rows, self._cols = graph.edges()
        csr = graph.matrix
        self._indptr = csr.indptr
        self._indices = csr.indices

    def _is_positive(self, user, item):
        start, stop = self._indptr[user:user + 2]
        pos = self._indices[start:stop]
        idx = np.searchsorted(pos, item)
        return idx < len(pos) and pos[idx] == item

    def sample(self, batch_size):
        edge_idx = self.rng.integers(0, len(self._rows), size=batch_size)
        users = self._rows[edge_idx]
        pos = self._cols[edge_idx]
        neg = self.rng.integers(0, self.graph.num_items, size=batch_size)
        for i in range(batch_size):
            tries = 0
            while self._is_positive(users[i], neg[i]) and tries < 50:
                neg[i] = self.rng.integers(0, self.graph.num_items)
                tries += 1
        return users, pos, neg


def _naive_evaluate(scores, dataset, ks, metrics):
    """The seed's per-user evaluation loop (reference baseline)."""
    test = dataset.test_matrix
    users = np.where(np.diff(test.indptr) > 0)[0]
    max_k = max(ks)
    train = dataset.train.matrix
    per_user = []
    for user in users:
        start, stop = test.indptr[user:user + 2]
        positives = test.indices[start:stop]
        if len(positives) == 0:
            continue
        ranked = rank_items(scores, train, user, k=max_k)
        per_user.append(compute_user_metrics(ranked, positives, ks, metrics))
    return aggregate_metrics(per_user)


def _time_sampler(sampler, batch_size, num_batches):
    start = time.perf_counter()
    for _ in range(num_batches):
        sampler.sample(batch_size)
    return time.perf_counter() - start


def test_sampler_epoch_microbenchmark():
    """60 epochs' worth of gowalla batches: vectorized vs naive sampler."""
    cfg = BENCH_TRAIN_CONFIG
    graph = get_dataset("gowalla").train
    batches_per_epoch = max(1, math.ceil(graph.num_interactions
                                         / cfg.batch_size))
    num_batches = batches_per_epoch * cfg.epochs

    # warm up both (edge-key construction, JIT-ish numpy caches)
    _NaiveBPRSampler(graph, np.random.default_rng(0)).sample(cfg.batch_size)
    BPRSampler(graph, np.random.default_rng(0)).sample(cfg.batch_size)

    naive_seconds = _time_sampler(
        _NaiveBPRSampler(graph, np.random.default_rng(1)),
        cfg.batch_size, num_batches)
    vectorized_seconds = _time_sampler(
        BPRSampler(graph, np.random.default_rng(1)),
        cfg.batch_size, num_batches)

    speedup = naive_seconds / max(vectorized_seconds, 1e-12)
    record_hotpath_extra("sampler_microbenchmark", {
        "dataset": "gowalla",
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "num_batches": num_batches,
        "naive_seconds": naive_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": speedup,
    })
    print(f"\nsampler: naive {naive_seconds:.3f}s, "
          f"vectorized {vectorized_seconds:.3f}s, speedup {speedup:.1f}x")
    assert speedup >= MIN_SAMPLER_SPEEDUP, (
        f"sampler speedup {speedup:.2f}x below the "
        f"{MIN_SAMPLER_SPEEDUP}x acceptance bar")


def test_evaluator_microbenchmark():
    """60 epochs' worth of gowalla evals: chunked engine vs per-user loop.

    The BENCH budget evaluates every ``eval_every`` epochs; one bench
    training run performs ``epochs / eval_every`` full-ranking passes, so
    the rounds here mirror what the evaluator costs across a Table II
    training run.
    """
    cfg = BENCH_TRAIN_CONFIG
    dataset = get_dataset("gowalla")
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(dataset.num_users, dataset.num_items))
    metrics = ("recall", "ndcg")
    rounds = max(1, cfg.epochs // cfg.eval_every)

    chunked = evaluate_scores(scores, dataset, ks=KS, metrics=metrics)
    reference = _naive_evaluate(scores, dataset, ks=KS, metrics=metrics)
    assert chunked.keys() == reference.keys()
    for key in reference:  # parity first: speed means nothing if wrong
        assert abs(chunked[key] - reference[key]) < 1e-9, key

    start = time.perf_counter()
    for _ in range(rounds):
        _naive_evaluate(scores, dataset, ks=KS, metrics=metrics)
    naive_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        evaluate_scores(scores, dataset, ks=KS, metrics=metrics)
    chunked_seconds = time.perf_counter() - start

    speedup = naive_seconds / max(chunked_seconds, 1e-12)
    record_hotpath_extra("evaluator_microbenchmark", {
        "dataset": "gowalla",
        "ks": list(KS),
        "metrics": list(metrics),
        "rounds": rounds,
        "naive_seconds": naive_seconds,
        "chunked_seconds": chunked_seconds,
        "speedup": speedup,
    })
    print(f"\nevaluator: per-user {naive_seconds:.3f}s, "
          f"chunked {chunked_seconds:.3f}s, speedup {speedup:.1f}x")
    assert speedup >= MIN_EVAL_SPEEDUP, (
        f"evaluator speedup {speedup:.2f}x below the "
        f"{MIN_EVAL_SPEEDUP}x acceptance bar")


def _naive_serve(user_emb, item_emb, train_matrix, users, k):
    """The pre-serving pattern: score one user, mask, rank, next user."""
    out = np.empty((len(users), k), dtype=np.int64)
    for row, user in enumerate(users):
        scores = user_emb[user] @ item_emb.T
        start, stop = train_matrix.indptr[user:user + 2]
        scores[train_matrix.indices[start:stop]] = -np.inf
        top = np.argpartition(-scores, k)[:k]
        out[row] = top[np.argsort(-scores[top], kind="stable")]
    return out


def test_serving_throughput_microbenchmark(tmp_path):
    """Users/sec at k=20: naive per-user loop vs the batched service.

    The service answers from a snapshot artifact (the production path:
    train elsewhere, serve from the file) and must return exactly the
    naive loop's lists before either is timed.
    """
    from repro.autograd import default_dtype
    from repro.models import build_model
    from repro.serve import RecommenderService, save_snapshot

    k = 20
    dataset = get_dataset("gowalla")
    with default_dtype(BENCH_DTYPE):
        model = build_model("lightgcn", dataset, BENCH_MODEL_CONFIG,
                            seed=0)
    path = save_snapshot(model, dataset, str(tmp_path / "serve-bench"))
    users = np.arange(dataset.num_users, dtype=np.int64)
    # four chunks per request, so the timed path loops over chunks
    chunk_size = max(1, math.ceil(len(users) / 4))
    single = RecommenderService.from_snapshot(path, chunk_size=chunk_size)
    user_emb, item_emb = single._user_emb, single._item_emb
    train = dataset.train.matrix

    # parity first: the naive loop and the service must agree exactly
    # before any timing means anything
    expected = single.recommend(users, k=k)
    assert np.array_equal(expected,
                          _naive_serve(user_emb, item_emb, train, users, k))

    def throughput(fn, min_seconds=0.5):
        fn()  # warm
        rounds, elapsed = 0, 0.0
        while elapsed < min_seconds:
            start = time.perf_counter()
            fn()
            elapsed += time.perf_counter() - start
            rounds += 1
        return rounds * len(users) / elapsed

    naive_tp = throughput(
        lambda: _naive_serve(user_emb, item_emb, train, users, k))
    single.close()

    # time the service on a fresh instance + fresh metrics registry so
    # its p50/p95/p99 come straight from the service's own always-on
    # request histogram (repro.obs), without the parity request
    from repro.obs import reset_metrics
    reset_metrics()
    with RecommenderService.from_snapshot(
            path, chunk_size=chunk_size) as svc:
        batched_tp = throughput(lambda: svc.recommend(users, k=k))
        batched_latency = svc.stats()["latency_seconds"]

    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    record_hotpath_extra("serving_microbenchmark", {
        "dataset": "gowalla",
        "k": k,
        "num_users": int(len(users)),
        "cores": cores,
        "users_per_second_naive": naive_tp,
        "users_per_second_batched": batched_tp,
        "speedup_batched_vs_naive": batched_tp / naive_tp,
        "latency_seconds_batched": batched_latency,
    })
    print(f"\nserving k={k}: naive {naive_tp:,.0f}/s, "
          f"batched {batched_tp:,.0f}/s ({cores} core(s))")
    print(f"request latency p50/p95/p99 (ms): "
          f"batched {batched_latency['p50'] * 1e3:.2f}/"
          f"{batched_latency['p95'] * 1e3:.2f}/"
          f"{batched_latency['p99'] * 1e3:.2f}")
    assert (0 < batched_latency["p50"] <= batched_latency["p95"]
            <= batched_latency["p99"])
    assert batched_tp >= MIN_SERVE_SPEEDUP * naive_tp, (
        f"batched serving only {batched_tp / naive_tp:.2f}x the naive "
        f"loop, below the {MIN_SERVE_SPEEDUP}x acceptance bar")


#: offered load for the latency-percentile load test: one request every
#: LOAD_INTERVAL seconds, LOAD_REQUESTS times, LOAD_REQUEST_USERS each
LOAD_REQUESTS = 400
LOAD_REQUEST_USERS = 16
LOAD_INTERVAL = 0.010           # 100 requests/sec offered (below
                                # saturation, so percentiles measure
                                # serving latency, not queue buildup)
LOAD_WINDOW_MS = 2.0
LOAD_USERS, LOAD_ITEMS, LOAD_DIM, LOAD_CENTERS = 100_000, 20_000, 32, 150


def test_serving_latency_load_test(tmp_path):
    """p50/p95/p99 under fixed offered load: exact vs ANN backend.

    A 100k-user / 20k-item clustered synthetic snapshot (the scale where
    approximate retrieval starts to matter, sized to keep the bench
    session fast) is served through the :class:`AsyncRequestFront` at a
    fixed offered load — ``LOAD_REQUESTS`` requests of
    ``LOAD_REQUEST_USERS`` users submitted every ``LOAD_INTERVAL``
    seconds — once per backend.  Per-request submit-to-answer latency
    comes from the front's ``serve.front.request_seconds`` histogram
    (:mod:`repro.obs`), reset between the two runs so the percentiles
    are per-path.  Asserted: the exact path's front answers equal direct
    ``recommend`` calls (batching changes *when*, never *what*), and the
    ANN backend meets the committed recall@20 budget against exact on
    the touched users.  The p95 of both paths lands in
    ``BENCH_hotpath.json`` and is trend-gated (lower is better) by
    ``check_hotpath_trend``.
    """
    from repro.obs import histogram, reset_metrics
    from repro.serve import (AsyncRequestFront, DEFAULT_RECALL_BUDGET,
                             RecommenderService, recall_at_k,
                             save_embedding_snapshot)

    k = 20
    rng = np.random.default_rng(5)
    centers = (rng.standard_normal((LOAD_CENTERS, LOAD_DIM)) * 3.0)
    item = (centers[rng.integers(0, LOAD_CENTERS, LOAD_ITEMS)]
            + rng.standard_normal((LOAD_ITEMS, LOAD_DIM)) * 0.4
            ).astype(np.float32)
    user = (centers[rng.integers(0, LOAD_CENTERS, LOAD_USERS)]
            + rng.standard_normal((LOAD_USERS, LOAD_DIM)) * 0.4
            ).astype(np.float32)
    path = save_embedding_snapshot(str(tmp_path / "load.npz"), user, item,
                                   dataset_name="synthetic-load")

    req_rng = np.random.default_rng(13)
    requests = [req_rng.integers(0, LOAD_USERS, size=LOAD_REQUEST_USERS)
                for _ in range(LOAD_REQUESTS)]
    touched = np.unique(np.concatenate(requests))

    def run(backend):
        with RecommenderService.from_snapshot(path, backend=backend,
                                              mmap=True) as service:
            service.recommend(requests[0], k=k)     # warm pages + index
            # the front binds its histogram at construction, so reset
            # *before* building it to get a per-path latency series
            reset_metrics()
            with AsyncRequestFront(service, window_ms=LOAD_WINDOW_MS,
                                   k=k) as front:
                futures = []
                start = time.perf_counter()
                for i, req in enumerate(requests):
                    lag = start + i * LOAD_INTERVAL - time.perf_counter()
                    if lag > 0:
                        time.sleep(lag)
                    futures.append(front.submit(req))
                blocks = [f.result(timeout=120) for f in futures]
                elapsed = time.perf_counter() - start
                pct = histogram(
                    "serve.front.request_seconds").percentiles()
            direct = service.recommend(touched, k=k)
        answered = np.concatenate(blocks)
        return pct, elapsed, answered, direct

    exact_pct, exact_elapsed, exact_blocks, exact_direct = run("exact")
    ann_pct, ann_elapsed, _, ann_direct = run("ann")

    # parity: the front never changes what a request is answered with
    assert np.array_equal(
        exact_blocks,
        np.concatenate([exact_direct[np.searchsorted(touched, req)]
                        for req in requests]))
    recall = recall_at_k(ann_direct, exact_direct)
    assert recall >= DEFAULT_RECALL_BUDGET, (
        f"ANN recall@{k} {recall:.4f} below the committed budget "
        f"{DEFAULT_RECALL_BUDGET}")
    for pct in (exact_pct, ann_pct):
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]

    record_hotpath_extra("serving_load_test", {
        "num_users": LOAD_USERS,
        "num_items": LOAD_ITEMS,
        "dim": LOAD_DIM,
        "k": k,
        "requests": LOAD_REQUESTS,
        "request_users": LOAD_REQUEST_USERS,
        "offered_rps": 1.0 / LOAD_INTERVAL,
        "window_ms": LOAD_WINDOW_MS,
        "recall_at_20_ann": recall,
        "p50_seconds_exact": exact_pct["p50"],
        "p95_seconds_exact": exact_pct["p95"],
        "p99_seconds_exact": exact_pct["p99"],
        "p50_seconds_ann": ann_pct["p50"],
        "p95_seconds_ann": ann_pct["p95"],
        "p99_seconds_ann": ann_pct["p99"],
        "achieved_rps_exact": LOAD_REQUESTS / exact_elapsed,
        "achieved_rps_ann": LOAD_REQUESTS / ann_elapsed,
    })
    print(f"\nserving load test ({LOAD_USERS:,} users, "
          f"{LOAD_ITEMS:,} items, {1.0 / LOAD_INTERVAL:.0f} rps offered, "
          f"recall@{k} {recall:.4f}):")
    print(f"  exact p50/p95/p99 (ms): {exact_pct['p50'] * 1e3:.2f}/"
          f"{exact_pct['p95'] * 1e3:.2f}/{exact_pct['p99'] * 1e3:.2f}")
    print(f"  ann   p50/p95/p99 (ms): {ann_pct['p50'] * 1e3:.2f}/"
          f"{ann_pct['p95'] * 1e3:.2f}/{ann_pct['p99'] * 1e3:.2f}")


#: sweep-engine microbench grid: 2 models x 4 seeds = 8 cells
SWEEP_MODELS = ("biasmf", "lightgcn")
SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_WORKERS = 2

#: per-cell budget for the sweep microbench (smaller than the Table II
#: budget: the engine's scheduling overhead is what's being measured,
#: and 8 full-budget cells would dominate the bench session)
SWEEP_EPOCHS = 12


def test_sweep_engine_microbenchmark(tmp_path):
    """Cells/sec over an 8-cell grid: sequential vs 2 local workers.

    Parity first: every cell's run directory must be bit-identical
    (``run_dir_fingerprint``: everything except wall-clock fields)
    between the two schedules before throughput means anything.  The
    2-worker sweep is only asserted *faster* when the machine has more
    than one usable core — each worker pays an interpreter + import
    startup cost that a single core cannot amortize — but both numbers
    are recorded, and the sequential cells/sec is trend-gated against
    the committed artifact (``check_hotpath_trend``).
    """
    from repro.api import ExperimentSpec, expand_grid, run_sweep
    from repro.api import run_dir_fingerprint

    base = ExperimentSpec(
        model=SWEEP_MODELS[0], dataset="gowalla",
        model_config={"embedding_dim": BENCH_MODEL_CONFIG.embedding_dim,
                      "num_layers": BENCH_MODEL_CONFIG.num_layers},
        train_config={"epochs": SWEEP_EPOCHS,
                      "batch_size": BENCH_TRAIN_CONFIG.batch_size,
                      "eval_every": SWEEP_EPOCHS})
    specs = expand_grid(base, models=list(SWEEP_MODELS),
                        seeds=list(SWEEP_SEEDS))
    assert len(specs) == 8

    start = time.perf_counter()
    sequential = run_sweep(specs, base_dir=str(tmp_path / "seq"))
    sequential_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(specs, base_dir=str(tmp_path / "par"),
                         workers=SWEEP_WORKERS)
    parallel_seconds = time.perf_counter() - start

    assert [r.status for r in sequential] == ["completed"] * len(specs)
    assert [r.status for r in parallel] == ["completed"] * len(specs)
    for a, b in zip(sequential, parallel):
        assert run_dir_fingerprint(a.run_dir) == \
            run_dir_fingerprint(b.run_dir), a.run_dir

    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    seq_tp = len(specs) / sequential_seconds
    par_tp = len(specs) / parallel_seconds
    record_hotpath_extra("sweep_microbenchmark", {
        "dataset": "gowalla",
        "cells": len(specs),
        "epochs_per_cell": SWEEP_EPOCHS,
        "workers": SWEEP_WORKERS,
        "cores": cores,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "cells_per_second_sequential": seq_tp,
        "cells_per_second_parallel": par_tp,
        "speedup_parallel_vs_sequential": par_tp / seq_tp,
    })
    print(f"\nsweep 8 cells: sequential {sequential_seconds:.2f}s "
          f"({seq_tp:.2f} cells/s), {SWEEP_WORKERS}-worker "
          f"{parallel_seconds:.2f}s ({par_tp:.2f} cells/s) "
          f"({cores} core(s))")
    if cores > 1:
        assert parallel_seconds < sequential_seconds, (
            f"{SWEEP_WORKERS}-worker sweep ({parallel_seconds:.2f}s) did "
            f"not beat sequential ({sequential_seconds:.2f}s) on a "
            f"{cores}-core machine")


#: pure broker-cycle count for the dispatch microbench (each cycle is
#: one enqueue -> claim -> ack_done round trip through the filesystem)
DISPATCH_BROKER_CYCLES = 200

#: worker subprocesses for the dispatched half of the bench
DISPATCH_WORKERS = 2


def test_dispatch_microbenchmark(tmp_path):
    """Broker overhead/cell + dispatched-vs-sequential 8-cell sweep.

    Two tiers.  (a) The pure queue cost: enqueue -> claim -> ack_done
    cycles/sec on no-op payloads — every cycle is a handful of atomic
    renames and JSON stamps, so this number is the broker's scheduling
    overhead per cell and is trend-gated (a cell taking ~1 minute of
    training dwarfs a ~ms broker cycle; the gate keeps it that way).
    (b) The same 8-cell gowalla grid as the sweep microbench, run once
    sequentially in-process and once dispatched across two ``repro
    worker`` subprocesses — parity first (bit-identical per-cell
    fingerprints), wall time recorded but not gated since the
    dispatched figure includes ~1s/worker interpreter startup that a
    one-core machine cannot amortize.
    """
    from repro.api import (ExperimentSpec, expand_grid, run_sweep,
                           run_dir_fingerprint)
    from repro.dispatch import (QueueBroker, collect_results,
                                enqueue_sweep, launch_worker, make_task,
                                wait_for_queue)

    # ---- (a) pure broker cycles ----------------------------------- #
    broker = QueueBroker(str(tmp_path / "ops"))
    start = time.perf_counter()
    for i in range(DISPATCH_BROKER_CYCLES):
        name = f"cell-{i:04d}"
        broker.enqueue(make_task(name, {"i": i}))
        claimed = broker.claim("bench")
        assert claimed is not None and claimed["name"] == name
        broker.ack_done(name, {"status": "completed"})
    cycle_seconds = time.perf_counter() - start
    broker_tp = DISPATCH_BROKER_CYCLES / cycle_seconds

    # ---- (b) dispatched vs sequential 8-cell grid ----------------- #
    base = ExperimentSpec(
        model=SWEEP_MODELS[0], dataset="gowalla",
        model_config={"embedding_dim": BENCH_MODEL_CONFIG.embedding_dim,
                      "num_layers": BENCH_MODEL_CONFIG.num_layers},
        train_config={"epochs": SWEEP_EPOCHS,
                      "batch_size": BENCH_TRAIN_CONFIG.batch_size,
                      "eval_every": SWEEP_EPOCHS})
    specs = expand_grid(base, models=list(SWEEP_MODELS),
                        seeds=list(SWEEP_SEEDS))
    assert len(specs) == 8

    start = time.perf_counter()
    sequential = run_sweep(list(specs), base_dir=str(tmp_path / "seq"))
    sequential_seconds = time.perf_counter() - start

    disp_dir = str(tmp_path / "disp")
    start = time.perf_counter()
    enqueue_sweep(list(specs), disp_dir)
    procs = [launch_worker(disp_dir, worker_id=f"bench-{i}")
             for i in range(DISPATCH_WORKERS)]
    assert wait_for_queue(disp_dir, timeout=600.0)
    for proc in procs:
        proc.wait(timeout=60)
    dispatched = collect_results(disp_dir)
    dispatched_seconds = time.perf_counter() - start

    assert [r.status for r in sequential] == ["completed"] * len(specs)
    assert [r.status for r in dispatched] == ["completed"] * len(specs)
    by_name = {os.path.basename(r.run_dir): r for r in dispatched}
    for r_seq in sequential:
        name = os.path.basename(r_seq.run_dir)
        assert run_dir_fingerprint(r_seq.run_dir) == \
            run_dir_fingerprint(by_name[name].run_dir), name

    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    record_hotpath_extra("dispatch_microbenchmark", {
        "dataset": "gowalla",
        "cells": len(specs),
        "epochs_per_cell": SWEEP_EPOCHS,
        "workers": DISPATCH_WORKERS,
        "cores": cores,
        "broker_cycles": DISPATCH_BROKER_CYCLES,
        "broker_cycle_seconds": cycle_seconds,
        "broker_cycles_per_second": broker_tp,
        "broker_overhead_ms_per_cell": 1e3 * cycle_seconds
        / DISPATCH_BROKER_CYCLES,
        "sequential_seconds": sequential_seconds,
        "dispatched_seconds": dispatched_seconds,
        "cells_per_second_dispatched": len(specs) / dispatched_seconds,
    })
    print(f"\ndispatch broker: {broker_tp:,.0f} cycles/s "
          f"({1e3 * cycle_seconds / DISPATCH_BROKER_CYCLES:.2f} ms/cell); "
          f"8 cells sequential {sequential_seconds:.2f}s vs dispatched "
          f"{dispatched_seconds:.2f}s over {DISPATCH_WORKERS} workers "
          f"({cores} core(s))")


def test_training_hotpath_breakdown():
    """One 60-epoch LightGCN run on gowalla (float32), timings recorded."""
    result = run_model("lightgcn", "gowalla")
    fit = result.fit
    print(f"\nlightgcn/gowalla: train {fit.train_seconds:.2f}s "
          f"({fit.train_seconds / max(1, len(fit.history)):.3f}s/epoch), "
          f"sampler {fit.sampler_seconds:.2f}s, "
          f"spmm {fit.spmm_seconds:.2f}s, eval {fit.eval_seconds:.2f}s")
    assert fit.train_seconds > 0
    assert 0 <= fit.sampler_seconds <= fit.train_seconds
    assert fit.spmm_seconds > 0  # profiling was on; spmm must be exercised
    assert fit.eval_seconds > 0  # the 60-epoch budget evaluates 3 times


#: headroom the fused-kernel gate allows for shared-machine timing noise.
#: Typical measured speedup is 1.15-1.35x on one core, but one noisy
#: ~1.3s run cannot assert a floor on that reliably, so the gate is
#: "fused must not be meaningfully slower" — the measured speedup is
#: recorded in the artifact either way, and the fused row itself is
#: trend-gated against the committed baseline.
FUSED_NOISE_TOLERANCE = 1.25


def test_fused_kernel_microbenchmark():
    """Fused vs composed tape over the 60-epoch LightGCN/gowalla budget.

    Parity first: the fused kernels reorder gradient accumulation only,
    so per-epoch losses and best metrics must match the composed graph
    to float tolerance before the timing means anything.  Both training
    runs append hot-path records (``autograd_backend`` distinguishes
    them), so the artifact itself carries the before/after breakdown.
    """
    composed_cfg = TrainConfig(
        epochs=BENCH_TRAIN_CONFIG.epochs,
        batch_size=BENCH_TRAIN_CONFIG.batch_size,
        eval_every=BENCH_TRAIN_CONFIG.eval_every,
        autograd_backend=None)
    fused = run_model("lightgcn", "gowalla")  # memoized breakdown run
    composed = run_model("lightgcn", "gowalla", train_config=composed_cfg)

    np.testing.assert_allclose(
        [rec.loss for rec in fused.fit.history],
        [rec.loss for rec in composed.fit.history], rtol=1e-6)
    assert fused.metrics.keys() == composed.metrics.keys()
    for key, want in composed.metrics.items():
        assert fused.metrics[key] == pytest.approx(want, abs=1e-6), key

    speedup = composed.fit.train_seconds / max(fused.fit.train_seconds,
                                               1e-12)
    fused_prims = fused.fit.primitive_seconds
    record_hotpath_extra("fused_kernel_microbenchmark", {
        "model": "lightgcn",
        "dataset": "gowalla",
        "epochs": BENCH_TRAIN_CONFIG.epochs,
        "composed_train_seconds": composed.fit.train_seconds,
        "fused_train_seconds": fused.fit.train_seconds,
        "composed_spmm_seconds": composed.fit.spmm_seconds,
        "fused_spmm_seconds": fused.fit.spmm_seconds,
        "train_speedup_fused_vs_composed": speedup,
        "fused_light_propagate_seconds":
            fused_prims.get("light_propagate", 0.0),
        "fused_bpr_loss_seconds": fused_prims.get("fused_bpr_loss", 0.0),
    })
    print(f"\nfused kernels: composed {composed.fit.train_seconds:.3f}s, "
          f"fused {fused.fit.train_seconds:.3f}s, speedup {speedup:.2f}x")
    # the fused kernels actually drove the run
    assert "light_propagate" in fused_prims
    assert "fused_bpr_loss" in fused_prims
    assert "light_propagate" not in composed.fit.primitive_seconds
    assert fused.fit.train_seconds <= \
        composed.fit.train_seconds * FUSED_NOISE_TOLERANCE, (
            f"fused tape ({fused.fit.train_seconds:.3f}s) slower than the "
            f"composed graph ({composed.fit.train_seconds:.3f}s) beyond "
            f"the {FUSED_NOISE_TOLERANCE}x noise allowance")


#: maximum fractional slowdown a fully traced fit may cost over the
#: identical untraced fit (acceptance criterion of the observability
#: PR; the disabled path is additionally gated at the trend tolerance
#: through the ordinary committed-baseline comparison, since every
#: timed record in this artifact now runs with the no-op fast path
#: compiled in)
MAX_TRACE_OVERHEAD = 0.10


def test_observability_overhead_microbenchmark():
    """Tracing is ~free when off and < 10% when on.

    Two tiers: (1) the disabled fast path — ``span()`` with tracing off
    is one global-flag check returning a shared no-op singleton, timed
    here in nanoseconds per call; (2) the enabled path — the same
    60-epoch LightGCN/gowalla budget as the breakdown run, traced vs
    untraced, asserted under ``MAX_TRACE_OVERHEAD``.  Both readings are
    recorded in the artifact so the overhead trend is visible across
    sessions.
    """
    from repro.obs import reset_tracing, span, tracing_enabled

    assert not tracing_enabled()
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", tier=1):
            pass
    disabled_ns = (time.perf_counter() - start) / calls * 1e9

    base = BENCH_TRAIN_CONFIG
    traced_cfg = TrainConfig(
        epochs=base.epochs, batch_size=base.batch_size,
        eval_every=base.eval_every, autograd_backend=base.autograd_backend,
        trace=True)
    untraced_seconds = _lightgcn_train_seconds(base)
    traced_seconds = _lightgcn_train_seconds(traced_cfg)
    reset_tracing()  # drop the traced fit's ring buffer
    if traced_seconds > untraced_seconds * (1 + MAX_TRACE_OVERHEAD):
        # one re-measure, back to back, keeping the cleaner readings —
        # same shared-box noise policy as the parallel-train bench
        untraced_seconds = min(untraced_seconds,
                               _lightgcn_train_seconds(base))
        traced_seconds = min(traced_seconds,
                             _lightgcn_train_seconds(traced_cfg))
        reset_tracing()
    overhead = traced_seconds / untraced_seconds - 1.0

    record_hotpath_extra("observability_overhead", {
        "model": "lightgcn",
        "dataset": "gowalla",
        "epochs": base.epochs,
        "disabled_span_ns_per_call": disabled_ns,
        "untraced_train_seconds": untraced_seconds,
        "traced_train_seconds": traced_seconds,
        "traced_overhead_fraction": overhead,
    })
    print(f"\nobservability: disabled span {disabled_ns:.0f} ns/call, "
          f"traced fit {traced_seconds:.1f}s vs untraced "
          f"{untraced_seconds:.1f}s ({overhead * 100:+.1f}%)")
    assert overhead < MAX_TRACE_OVERHEAD, (
        f"tracing-enabled fit cost {overhead * 100:.1f}% over untraced, "
        f"above the {MAX_TRACE_OVERHEAD * 100:.0f}% acceptance bar")


def test_bench_trend_no_regression():
    """This session's timings must not regress vs the committed artifact."""
    run_model("lightgcn", "gowalla")  # memoized: reuses the breakdown run
    regressions = check_hotpath_trend()
    assert not regressions, "; ".join(regressions)


if __name__ == "__main__":
    import pathlib
    import tempfile

    test_sampler_epoch_microbenchmark()
    test_evaluator_microbenchmark()
    test_serving_throughput_microbenchmark(
        pathlib.Path(tempfile.mkdtemp()))
    test_serving_latency_load_test(pathlib.Path(tempfile.mkdtemp()))
    test_sweep_engine_microbenchmark(pathlib.Path(tempfile.mkdtemp()))
    test_dispatch_microbenchmark(pathlib.Path(tempfile.mkdtemp()))
    test_training_hotpath_breakdown()
    test_fused_kernel_microbenchmark()
    test_observability_overhead_microbenchmark()
    test_bench_trend_no_regression()
    print(f"wrote {write_hotpath_artifact()}")
