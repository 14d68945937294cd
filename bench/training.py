"""Training workloads: GraphAug and HCCF on the gowalla profile.

Every run trains in float32 with the fused autograd backend, d=32, L=3,
batch 512.  The graph (the gowalla profile or its 4x scale-up) and the
model's initial state are drawn from one fixed data seed, like a corpus
and a starting checkpoint; ``--seed`` drives the trainer's stream of
mini-batches.  Drawing a new graph and a new initialisation per seed
moved recall@20 at the checkpoint by 12-98% between seeds (init alone:
15% on graphaug-4x), more than any regression bound can absorb; the
batch stream alone moves it by 1-6%.

A run is time-boxed: it trains until ``seconds`` have passed and the
checkpoint epoch is done, so the same seed always yields the same
recall@20 at the checkpoint while the epoch count follows the code's
speed.

Traced runs alternate: odd epochs run bare, even epochs run with every
wrapper installed, tracing on and the primitive profiler on.  The
per-layer numbers come from the traced epochs; the gap between the two
halves' median epoch time is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.autograd import (default_dtype, enable_primitive_profiling,
                            primitive_profile, reset_primitive_profile)
from repro.data.synthetic import PROFILES, generate_synthetic
from repro.models import build_model
from repro.obs import enable_tracing, reset_tracing, snapshot_events
from repro.train import ModelConfig, TrainConfig, Trainer

from .layers import LayerTracer, SpanTree, mean, percentile

#: the stages a traced epoch is split into (span names)
STAGES = ("data.sample", "model.loss", "core.encode_original",
          "core.encode_view", "core.augmentor", "core.sample_view",
          "core.gib", "core.contrastive", "autograd.backward",
          "autograd.optim_step")

#: primitives whose profiler seconds and calls are reported; they are
#: forward+VJP cross-cuts of the stages, so they do not add up with them
PRIMITIVES = ("weighted_spmm", "spmm", "light_propagate", "matmul", "mul",
              "logsumexp", "add", "take_rows", "concat", "fused_bpr_loss")

LAYER_METRICS = (
    ("data.sample.s", "data.sample.calls", "train.unattributed.frac",
     "trace.overhead_frac", "model.loss.s", "model.loss.self.s",
     "core.encode_original.s", "core.encode_view.s", "core.augmentor.s",
     "core.sample_view.s", "core.view_kept.frac", "core.gib.s",
     "core.contrastive.s", "core.contrastive.rows.mean",
     "core.contrastive.nxn_mb", "autograd.backward.s",
     "autograd.optim_step.s")
    + tuple(f"autograd.prim.{p}.{kind}" for p in PRIMITIVES
            for kind in ("s", "calls"))
    + ("eval.s", "eval.calls"))

BATCH_SIZE = 512
DATA_SEED = 0
DTYPE = "float32"
SETUP_REPEATS = 5
#: the time box ends a run long before this
MAX_EPOCHS = 100_000
#: ring-buffer size for traced runs; far above what a run records
TRACE_CAPACITY = 1 << 22
#: limits of the traced-run attribution check
ATTRIBUTION_TOLERANCE = 0.01
MAX_UNATTRIBUTED = 0.05


@dataclass(frozen=True)
class TrainingWorkload:
    model: str
    scale: float            # users and items, in multiples of gowalla's
    batches_per_epoch: int  # fixed, so an epoch's work does not depend
                            # on how many edges the seed happened to draw
    checkpoint: int         # epoch whose test recall@20 is the quality
    recall_floor: float     # a lower recall@20 fails the run; about 25%
                            # under the lowest of seeds 1-20


WORKLOADS = {
    # one pass over gowalla's ~5.6k train edges is 11 batches
    "graphaug-gowalla": TrainingWorkload("graphaug", 1, 11, 20, 0.16),
    "graphaug-4x": TrainingWorkload("graphaug", 4, 3, 20, 0.04),
    "hccf-4x": TrainingWorkload("hccf", 4, 46, 20, 0.09),
}


def smoke_variant(spec: TrainingWorkload) -> TrainingWorkload:
    """A quarter of the graph, 3 batches an epoch, a 2-epoch checkpoint."""
    return replace(spec, scale=spec.scale / 4, checkpoint=2,
                   batches_per_epoch=3, recall_floor=0.0)


class _TimeUp(Exception):
    """Raised by the epoch hook to end a time-boxed fit."""


class _Schedule:
    """Epoch hook: logs epochs, closes the time box, alternates tracing."""

    def __init__(self, seconds: float, checkpoint: int,
                 tracer: Optional[LayerTracer]):
        self.seconds = seconds
        self.checkpoint = checkpoint
        self.tracer = tracer
        self.records: List = []
        self.traced: List[bool] = []
        self.started = 0.0

    def __call__(self, record) -> None:
        self.records.append(record)
        self.traced.append(bool(self.tracer and self.tracer.installed))
        done = (record.epoch >= self.checkpoint
                and time.perf_counter() - self.started >= self.seconds)
        if self.tracer is not None:
            self.set_tracing(not done and record.epoch % 2 == 1)
        if done:
            raise _TimeUp

    def set_tracing(self, on: bool) -> None:
        if on:
            self.tracer.install()
        else:
            self.tracer.remove()
        enable_tracing(on)
        enable_primitive_profiling(on)


def _set_up(spec: TrainingWorkload, seed: int, hook):
    base = PROFILES["gowalla"]
    profile = replace(base, num_users=round(base.num_users * spec.scale),
                      num_items=round(base.num_items * spec.scale))
    dataset = generate_synthetic(profile, seed=DATA_SEED)
    model_config = ModelConfig(embedding_dim=32, num_layers=3,
                               ssl_weight=1.0)
    train_config = TrainConfig(epochs=MAX_EPOCHS, batch_size=BATCH_SIZE,
                               eval_every=spec.checkpoint,
                               autograd_backend="fused",
                               batches_per_epoch=spec.batches_per_epoch)
    with default_dtype(DTYPE):
        model = build_model(spec.model, dataset, model_config,
                            seed=DATA_SEED)
        trainer = Trainer(model, dataset, train_config, seed=seed,
                          epoch_hook=hook)
    return dataset, trainer


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> dict:
    """Run one training workload; returns the child result dict."""
    spec = WORKLOADS[name]
    if smoke:
        spec = smoke_variant(spec)
    schedule = _Schedule(seconds, spec.checkpoint,
                         LayerTracer() if trace else None)
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset, trainer = _set_up(spec, seed, schedule)
        setup_seconds.append(time.perf_counter() - start)

    if trace:
        reset_tracing(TRACE_CAPACITY)
        reset_primitive_profile()
    schedule.started = time.perf_counter()
    try:
        with default_dtype(DTYPE):
            trainer.fit()
    except _TimeUp:
        pass
    finally:
        if trace:
            schedule.set_tracing(False)

    records = schedule.records
    epoch_s = np.diff([0.0] + [r.wall_time for r in records])
    recall = next((r.metrics.get("recall@20", math.nan) for r in records
                   if r.epoch == spec.checkpoint), math.nan)
    checks = []
    bad = [r.epoch for r in records if not math.isfinite(r.loss)]
    if bad:
        checks.append(f"non-finite loss in epochs {bad[:5]}")
    if not recall >= spec.recall_floor:
        checks.append(f"recall@20 {recall} at epoch {spec.checkpoint} is "
                      f"below the floor {spec.recall_floor}")
    result = {"attempted": len(records), "failed": len(bad),
              "checks": checks,
              "info": {"epochs": len(records),
                       "batches_per_epoch": spec.batches_per_epoch,
                       "users": dataset.num_users,
                       "items": dataset.num_items,
                       "train_edges": dataset.num_train_interactions}}
    if not trace:
        result["metrics"] = {
            "setup_s": float(np.median(setup_seconds)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latency_ms.p50": percentile(epoch_s * 1e3, 50),
            # at the median epoch: slow stretches of the host skew a mean
            "throughput": (spec.batches_per_epoch * BATCH_SIZE
                           / float(np.median(epoch_s))),
            "quality": recall,
        }
        return result
    result.update(_layer_metrics(schedule, epoch_s))
    result["checks"] += result.pop("trace_checks")
    return result


def _layer_metrics(schedule: _Schedule, epoch_s: np.ndarray) -> dict:
    tree = SpanTree(snapshot_events())
    epochs = tree.named("train.epoch")
    n = max(1, len(epochs))
    inside = [d for ep in epochs for d in tree.descendants(ep)]
    totals = {name: sum(e["dur"] for e in inside if e["name"] == name) / 1e6
              for name in STAGES}

    checks = []
    wall = {r.epoch: s for r, s in zip(schedule.records, epoch_s)}
    staged_total = unattributed_total = wall_total = 0.0
    for ep in epochs:
        staged, unattributed = tree.epoch_split(ep)
        epoch_wall = wall[ep["args"]["epoch"]]
        if abs(staged + unattributed - epoch_wall) > (ATTRIBUTION_TOLERANCE
                                                      * epoch_wall):
            checks.append(f"epoch {ep['args']['epoch']}: stages "
                          f"{staged:.4f}s + unattributed "
                          f"{unattributed:.4f}s != wall {epoch_wall:.4f}s")
        staged_total += staged
        unattributed_total += unattributed
        wall_total += epoch_wall
    unattributed_frac = unattributed_total / wall_total if wall_total else 0.0
    if unattributed_frac > MAX_UNATTRIBUTED:
        checks.append(f"unattributed {unattributed_frac:.1%} of epoch time "
                      f"exceeds {MAX_UNATTRIBUTED:.0%}")
    if not epochs:
        checks.append("no traced epoch")

    traced = np.asarray(schedule.traced)
    overhead = (float(np.median(epoch_s[traced])
                      / np.median(epoch_s[~traced])) - 1.0
                if traced.any() and (~traced).any() else 0.0)
    counts = schedule.tracer.counts
    calls = counts["contrastive.calls"]
    loss_self = sum(tree.self_us(e) for e in inside
                    if e["name"] == "model.loss") / 1e6
    evals = tree.named("train.eval")
    metrics = {f"{name}.s": totals[name] / n for name in STAGES}
    metrics.update({
        "data.sample.calls": sum(e["name"] == "data.sample"
                                 for e in inside) / n,
        "train.unattributed.frac": unattributed_frac,
        "trace.overhead_frac": overhead,
        "model.loss.self.s": loss_self / n,
        "core.view_kept.frac": (counts["view.kept"] / counts["view.attempted"]
                                if counts["view.attempted"] else 0.0),
        "core.contrastive.rows.mean": (counts["contrastive.rows"] / calls
                                       if calls else 0.0),
        "core.contrastive.nxn_mb": (counts["contrastive.nxn_bytes"] / calls
                                    / 2**20 if calls else 0.0),
        "eval.s": mean([e["dur"] / 1e6 for e in evals]),
        "eval.calls": float(len(evals)),
    })
    profile = primitive_profile()
    for prim in PRIMITIVES:
        entry = profile.get(prim, {"seconds": 0.0, "calls": 0})
        metrics[f"autograd.prim.{prim}.s"] = entry["seconds"] / n
        metrics[f"autograd.prim.{prim}.calls"] = entry["calls"] / n

    roots = epochs + evals
    root_wall = sum(e["dur"] for e in roots) / 1e6
    self_times = tree.self_times(roots + inside
                                 + [d for e in evals
                                    for d in tree.descendants(e)])
    return {"metrics": metrics, "trace_checks": checks,
            "self_times": [(name, s, s / root_wall if root_wall else 0.0)
                           for name, s in self_times.items()],
            "attribution": {"traced_epochs": len(epochs),
                            "wall_s": wall_total, "staged_s": staged_total,
                            "unattributed_s": unattributed_total}}
