"""The experiment pipeline: spec in, run directory and results out.

:class:`Experiment` resolves every component of an
:class:`~repro.api.ExperimentSpec` through the process-wide component
registries — dataset (``repro.data``), model (``repro.models``), metric
names (``repro.eval``), probes (``repro.eval``) and post-fit artifact
callbacks (``repro.train``) — and drives the shared Trainer and chunked
evaluator exactly the way the CLI always did, so ``Experiment.run(spec)``
reproduces the historical ``repro train`` path bit-identically for the
same seed and budgets.

:func:`run_cell` is the module-level, picklable single-cell entry point
the process-parallel sweep engine (:mod:`repro.api.sweep`) dispatches to
its workers: spec dict in (the strict JSON round trip is the wire
format), JSON-compatible result summary out, every exception converted
into a ``status: failed`` record instead of propagating.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .rundir import (SPEC_FILE, STATUS_COMPLETED, STATUS_FAILED,
                     MetricsStreamWriter, heartbeat_cadence, read_run_dir,
                     read_status, write_failed_run_dir, write_heartbeat,
                     write_run_dir)
from .spec import ExperimentSpec
from ..data import InteractionDataset, resolve_dataset
from ..obs import current_seq, events_since, span, trace_scope
from ..train import Trainer, FitResult, CALLBACK_REGISTRY


@dataclass
class RunResult:
    """Everything one experiment run produced.

    ``fit`` (the full per-epoch history) is only present on live
    in-process runs; results reloaded from a run directory — and results
    returned by parallel sweep workers — carry the persisted summary:
    spec, best metrics, timing, probe outputs and artifact paths.

    ``status`` is ``"completed"`` for a finished run and ``"failed"``
    (with ``error`` carrying the exception) for a sweep cell that
    crashed — see :mod:`repro.api.sweep` for the failure-isolation
    contract.

    Example::

        >>> from repro.api import Experiment, ExperimentSpec
        >>> spec = ExperimentSpec(model="biasmf", dataset="tiny",
        ...                       model_config={"embedding_dim": 8},
        ...                       train_config={"epochs": 2,
        ...                                     "eval_every": 2})
        >>> result = Experiment(spec).run()
        >>> sorted(result.metrics)
        ['ndcg@20', 'ndcg@40', 'recall@20', 'recall@40']
        >>> result.status
        'completed'
    """

    spec: ExperimentSpec
    metrics: Dict[str, float]
    best_epoch: int = -1
    timing: Dict[str, float] = field(default_factory=dict)
    probes: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    run_dir: Optional[str] = None
    fit: Optional[FitResult] = None
    status: str = STATUS_COMPLETED
    error: Optional[str] = None
    #: the run's repro.obs trace events (None unless TrainConfig.trace
    #: was on) — plain Chrome-trace dicts, so they survive the summary
    #: wire format and let a sweep parent absorb worker spans exactly
    #: once into its own buffer
    trace_events: Optional[List[Dict]] = None

    @property
    def failed(self) -> bool:
        """True when this run crashed (``status == "failed"``)."""
        return self.status == STATUS_FAILED

    @property
    def train_seconds(self) -> float:
        return float(self.timing.get("train_seconds", 0.0))

    @property
    def eval_seconds(self) -> float:
        return float(self.timing.get("eval_seconds", 0.0))

    @classmethod
    def load(cls, run_dir: str) -> "RunResult":
        """Reload a persisted run (inverse of the run-directory write)."""
        payload = read_run_dir(run_dir)
        status = read_status(run_dir) or {"status": STATUS_COMPLETED}
        return cls(spec=ExperimentSpec.from_dict(payload["spec"]),
                   metrics=payload["metrics"],
                   best_epoch=payload["best_epoch"],
                   timing=payload["timing"],
                   probes=payload["probes"],
                   run_dir=run_dir,
                   status=status.get("status", STATUS_COMPLETED),
                   error=status.get("error"))

    def summary(self) -> Dict:
        """JSON-compatible summary (the parallel-sweep wire format)."""
        return {"spec": self.spec.to_dict(), "metrics": dict(self.metrics),
                "best_epoch": self.best_epoch, "timing": dict(self.timing),
                "probes": self.probes, "artifacts": dict(self.artifacts),
                "run_dir": self.run_dir, "status": self.status,
                "error": self.error, "trace_events": self.trace_events}

    @classmethod
    def from_summary(cls, payload: Dict) -> "RunResult":
        """Rebuild a result from :meth:`summary` (inverse, minus ``fit``)."""
        return cls(spec=ExperimentSpec.from_dict(payload["spec"]),
                   metrics=payload["metrics"],
                   best_epoch=payload["best_epoch"],
                   timing=payload["timing"], probes=payload["probes"],
                   artifacts=payload["artifacts"],
                   run_dir=payload["run_dir"], status=payload["status"],
                   error=payload["error"],
                   trace_events=payload.get("trace_events"))


def _dataset_cache_key(spec: ExperimentSpec) -> tuple:
    options = tuple(sorted(spec.dataset_options.items()))
    return (spec.dataset, spec.seed, options)


class Experiment:
    """One declarative experiment, resolvable end to end from its spec.

    ``run()`` trains, evaluates (through the trainer's chunked eval
    cadence), executes the spec's probes on the trained model, writes
    the requested artifacts through the callback registry, and — when a
    run directory is given — persists the replayable run record
    (:mod:`repro.api.rundir`).

    Example (a fast run on the bundled ``tiny`` profile)::

        >>> from repro.api import Experiment, ExperimentSpec
        >>> spec = ExperimentSpec(model="lightgcn", dataset="tiny",
        ...                       model_config={"embedding_dim": 8,
        ...                                     "num_layers": 2},
        ...                       train_config={"epochs": 2,
        ...                                     "eval_every": 2})
        >>> result = Experiment(spec).run()
        >>> result.best_epoch
        2
        >>> 0.0 <= result.metrics["recall@20"] <= 1.0
        True
    """

    def __init__(self, spec, dataset: Optional[InteractionDataset] = None):
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        self.spec = spec
        self._dataset = dataset
        #: the trained model of the most recent :meth:`run` (for
        #: model-internals case studies; None before the first run)
        self.model = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_file(cls, path: str) -> "Experiment":
        return cls(ExperimentSpec.from_file(path))

    @classmethod
    def from_run_dir(cls, run_dir: str) -> "Experiment":
        """Rebuild the exact experiment a run directory records."""
        return cls(ExperimentSpec.from_dict(read_run_dir(run_dir)["spec"]))

    # ------------------------------------------------------------------ #
    def dataset(self, cache: Optional[Dict] = None) -> InteractionDataset:
        """Resolve (and memoize) the spec's dataset."""
        if self._dataset is None:
            key = _dataset_cache_key(self.spec)
            if cache is not None and key in cache:
                self._dataset = cache[key]
            else:
                self._dataset = resolve_dataset(self.spec.dataset,
                                                seed=self.spec.seed,
                                                **self.spec.dataset_options)
                if cache is not None:
                    cache[key] = self._dataset
        return self._dataset

    def build_model(self, dataset: Optional[InteractionDataset] = None):
        """Registry-resolve and construct the spec's model (untrained)."""
        # deferred: importing the zoo is the heaviest import in the tree
        from ..models import build_model
        dataset = dataset if dataset is not None else self.dataset()
        return build_model(self.spec.model, dataset,
                           self.spec.resolved_model_config(),
                           seed=self.spec.seed)

    # ------------------------------------------------------------------ #
    def run(self, run_dir: Optional[str] = None,
            dataset_cache: Optional[Dict] = None,
            verbose: Optional[bool] = None) -> RunResult:
        """Train -> evaluate -> probe -> persist; returns a `RunResult`.

        With ``TrainConfig.trace`` on, the whole pipeline runs under
        ``repro.obs`` spans (with per-primitive profiling enabled so the
        autograd counter tracks materialize), and the run's events land
        both on the result (``RunResult.trace_events``) and — when a run
        directory is given — as its ``trace.json`` artifact.

        A run directory is written *incrementally*: the spec echo lands
        before the fit starts, each epoch appends a crash-safe
        ``metrics.jsonl`` row and re-stamps the ``status.json``
        heartbeat, and the terminal write marks the run completed.
        """
        spec = self.spec
        train_config = spec.resolved_train_config()
        if verbose is not None:
            train_config = train_config.with_overrides(verbose=verbose)
        trace_on = bool(train_config.trace)
        trace_start = current_seq()

        stream: Optional[MetricsStreamWriter] = None
        epoch_hook = None
        if run_dir is not None:
            # the spec echo lands first so even a SIGKILLed run dir is
            # diagnosable (and recognizably incomplete on resume)
            os.makedirs(run_dir, exist_ok=True)
            spec.save(os.path.join(run_dir, SPEC_FILE))
            write_heartbeat(run_dir, epoch=0)
            stream = MetricsStreamWriter(run_dir)
            # rate-limit heartbeat stamps to the configured cadence,
            # measured on the monotonic clock (wall jumps can neither
            # flood nor starve the liveness signal); 0 = every epoch
            cadence = heartbeat_cadence(train_config.heartbeat_seconds)
            last_beat = time.monotonic()

            def epoch_hook(record):
                nonlocal last_beat
                stream.write_event({"event": "epoch",
                                    "epoch": record.epoch,
                                    "loss": record.loss,
                                    "wall_time": record.wall_time,
                                    "metrics": record.metrics})
                now = time.monotonic()
                if cadence <= 0.0 or now - last_beat >= cadence:
                    write_heartbeat(run_dir, epoch=record.epoch)
                    last_beat = now

        from ..autograd import (enable_primitive_profiling,
                                primitive_profiling_enabled)
        profiling_prev = primitive_profiling_enabled()
        try:
            with trace_scope(trace_on):
                if trace_on and not profiling_prev:
                    enable_primitive_profiling(True)
                with span("experiment.run", model=spec.model,
                          dataset=spec.dataset):
                    with span("experiment.dataset", dataset=spec.dataset):
                        dataset = self.dataset(cache=dataset_cache)
                    with span("experiment.model", model=spec.model):
                        model = self.build_model(dataset)
                    fit = Trainer(model, dataset, train_config,
                                  seed=spec.seed,
                                  epoch_hook=epoch_hook).fit()
                    self.model = model

                    probes: Dict[str, object] = {}
                    if spec.probes:
                        from ..eval import PROBE_REGISTRY
                        with span("experiment.probes"):
                            for name, options in spec.probes.items():
                                probes[name] = PROBE_REGISTRY.get(name)(
                                    model, dataset, **options)

                    artifacts = self._write_artifacts(model, dataset, fit,
                                                      run_dir)
        finally:
            if trace_on and not profiling_prev:
                enable_primitive_profiling(False)
            if stream is not None:
                stream.close()

        # sliced after the scope closes so the export includes the
        # experiment.run span itself (and any absorbed worker spans)
        trace_events = events_since(trace_start) if trace_on else None
        timing = {"train_seconds": fit.train_seconds,
                  "sampler_seconds": fit.sampler_seconds,
                  "spmm_seconds": fit.spmm_seconds,
                  "eval_seconds": fit.eval_seconds}
        if run_dir is not None:
            paths = write_run_dir(run_dir, spec, fit=fit,
                                  metrics=fit.best_metrics,
                                  best_epoch=fit.best_epoch,
                                  timing=timing, probes=probes,
                                  trace_events=trace_events)
            artifacts.update(paths)
        return RunResult(spec=spec, metrics=dict(fit.best_metrics),
                         best_epoch=fit.best_epoch, timing=timing,
                         probes=probes, artifacts=artifacts,
                         run_dir=run_dir, fit=fit,
                         trace_events=trace_events)

    def _write_artifacts(self, model, dataset, fit,
                         run_dir: Optional[str]) -> Dict[str, str]:
        """Resolve the spec's artifact paths through the callback registry."""
        artifacts: Dict[str, str] = {}
        for role, callback_name in self.spec.artifacts.CALLBACKS.items():
            path = getattr(self.spec.artifacts, role)
            if not path:
                continue
            if run_dir is not None and not os.path.isabs(path):
                path = os.path.join(run_dir, path)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            callback = CALLBACK_REGISTRY.get(callback_name)
            artifacts[role] = callback(model, dataset, fit, path)
        return artifacts

    # ------------------------------------------------------------------ #
    def evaluate(self, checkpoint: Optional[str] = None,
                 dataset_cache: Optional[Dict] = None) -> Dict[str, float]:
        """Evaluate the spec's (optionally checkpointed) model, no training.

        Builds the model from the registry, loads ``checkpoint`` when
        given (a :func:`repro.train.save_state` artifact), and runs the
        spec's evaluation protocol through the chunked ranking engine.
        """
        from ..eval import evaluate_model
        from ..train import load_state

        dataset = self.dataset(cache=dataset_cache)
        model = self.build_model(dataset)
        if checkpoint:
            model.load_state_dict(load_state(checkpoint))
        return evaluate_model(model, dataset, ks=self.spec.eval.ks,
                              metrics=self.spec.eval.metrics,
                              chunk_size=self.spec.eval.chunk_size)


def run_experiment(spec, run_dir: Optional[str] = None,
                   **run_kwargs) -> RunResult:
    """One-call convenience: ``Experiment(spec).run(run_dir)``."""
    return Experiment(spec).run(run_dir=run_dir, **run_kwargs)


# --------------------------------------------------------------------- #
# the picklable single-cell entry point (the sweep engine's unit of work)
# --------------------------------------------------------------------- #

def run_cell(spec_dict: Dict, run_dir: Optional[str] = None,
             verbose: Optional[bool] = None,
             dataset_cache: Optional[Dict] = None) -> Dict:
    """Run one sweep cell; never raises — crashes become failure records.

    This is the unit of work a dispatch worker
    (:class:`repro.dispatch.DispatchWorker`, the engine behind
    ``SweepRunner(workers=N)``) runs for every queued cell, so
    everything that crosses the process boundary is plain data: the
    input is a spec dict (the strict :meth:`ExperimentSpec.from_dict`
    round trip is the wire format) and the output is the
    JSON-compatible :meth:`RunResult.summary` payload.  Any exception
    — a bad spec, a missing dataset file, a crash mid-fit — is caught
    and converted into a ``{"status": "failed", "error": ...,
    "traceback": ...}`` summary;
    when ``run_dir`` is set the failure is also persisted there
    (:func:`repro.api.rundir.write_failed_run_dir`), so one crashed cell
    never takes down the sweep around it.  A traced cell that crashes
    still ships the spans it recorded up to the crash in its failure
    summary, so merged sweep traces show *where* a cell died.
    """
    trace_start = current_seq()
    try:
        spec = ExperimentSpec.from_dict(dict(spec_dict))
    except Exception as exc:                       # noqa: BLE001 — isolate
        # the spec never parsed; echo the raw payload for diagnosis
        return _failed_summary(dict(spec_dict), run_dir, exc)
    try:
        result = Experiment(spec).run(run_dir=run_dir,
                                      dataset_cache=dataset_cache,
                                      verbose=verbose)
        return result.summary()
    except Exception as exc:                       # noqa: BLE001 — isolate
        return _failed_summary(spec.to_dict(), run_dir, exc,
                               trace_events=events_since(trace_start)
                               or None)


def _failed_summary(spec_payload: Dict, run_dir: Optional[str],
                    exc: BaseException,
                    trace_events: Optional[List[Dict]] = None) -> Dict:
    """The failed-cell wire format (must be called from an ``except``
    block: the active exception supplies the traceback); persists the
    failure record when a run directory was claimed."""
    error = f"{type(exc).__name__}: {exc}"
    tb = _traceback.format_exc()
    if run_dir is not None:
        write_failed_run_dir(run_dir, spec_payload, error, tb)
    return {"spec": spec_payload, "metrics": {}, "best_epoch": -1,
            "timing": {}, "probes": {}, "artifacts": {},
            "run_dir": run_dir, "status": STATUS_FAILED,
            "error": error, "traceback": tb,
            "trace_events": trace_events}


# --------------------------------------------------------------------- #
# serving facade
# --------------------------------------------------------------------- #

def recommend_topk(snapshot: str, users: Optional[np.ndarray] = None,
                   k: int = 20, exclude_seen: bool = True,
                   train_spec: Optional[ExperimentSpec] = None,
                   run_dir: Optional[str] = None,
                   backend: str = "exact", mmap: bool = False) -> Dict:
    """Serve top-k lists from a snapshot, training one first if missing.

    When ``snapshot`` does not exist yet, ``train_spec`` describes the
    run that produces it (its ``artifacts.snapshot`` is forced to the
    snapshot path, so the served lists always come from the artifact —
    proving the round trip).  ``backend="ann"`` serves through the IVF
    retrieval index (embedding snapshots only; see
    :mod:`repro.serve.ann` for the recall budget), and ``mmap=True``
    memory-maps the embedding tables (format v3 artifacts) so
    concurrent serving processes share one copy.  Returns a JSON-ready
    payload::

        {"model": ..., "backend": ..., "k": ..., "exclude_seen": ...,
         "num_users": ..., "recommendations": {"<user>": [item, ...]}}

    Example (train-if-missing, then serve)::

        >>> import os, tempfile
        >>> from repro.api import ExperimentSpec, recommend_topk
        >>> spec = ExperimentSpec(model="biasmf", dataset="tiny",
        ...                       model_config={"embedding_dim": 8},
        ...                       train_config={"epochs": 1})
        >>> snap = os.path.join(tempfile.mkdtemp(), "serve.npz")
        >>> payload = recommend_topk(snap, users=[0, 3], k=5,
        ...                          train_spec=spec)
        >>> sorted(payload["recommendations"])
        ['0', '3']
        >>> len(payload["recommendations"]["0"])
        5
    """
    from ..serve import RecommenderService, resolve_snapshot_path

    path = resolve_snapshot_path(snapshot)
    if not os.path.exists(path):
        if train_spec is None:
            raise FileNotFoundError(
                f"snapshot {path!r} does not exist; pass train_spec (an "
                "ExperimentSpec) to train and write one")
        if isinstance(train_spec, dict):
            train_spec = ExperimentSpec.from_dict(train_spec)
        # absolute, so a run_dir never relocates the snapshot away from
        # where the serving step below will look for it
        train_spec = train_spec.with_overrides(
            artifacts=train_spec.artifacts.__class__(
                checkpoint=train_spec.artifacts.checkpoint,
                history=train_spec.artifacts.history,
                snapshot=os.path.abspath(path)))
        Experiment(train_spec).run(run_dir=run_dir)

    with RecommenderService.from_snapshot(path, backend=backend,
                                          mmap=mmap) as service:
        stats = service.stats()
        if users is not None:
            users = np.asarray(users, dtype=np.int64)
        lists = service.recommend(users, k=k, exclude_seen=exclude_seen)
        if users is None:
            users = np.arange(service.num_users, dtype=np.int64)
    return {
        "model": stats["model"],
        "backend": stats["backend"],
        "k": k,
        "exclude_seen": exclude_seen,
        "num_users": int(len(users)),
        "recommendations": {str(int(u)): [int(i) for i in row]
                            for u, row in zip(users, lists)},
    }
