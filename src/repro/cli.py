"""Command-line interface: ``repro <command>`` / ``python -m repro``.

The CLI is a thin shell over the declarative experiment facade
(:mod:`repro.api`): every subcommand builds an
:class:`~repro.api.ExperimentSpec` (or loads one from a file) and hands
it to :class:`~repro.api.Experiment` — no training or evaluation logic
lives here.

Commands
--------
``run``        run a spec file (one spec or a list; optional sweep axes,
               ``--workers N`` process-parallel execution, ``--resume``
               for partially-run sweeps)
``train``      train any registered model on a dataset profile or TSV file
``evaluate``   load a saved checkpoint and re-evaluate it
``recommend``  serve top-k recommendations from a serving snapshot
               (training one first when the snapshot doesn't exist yet)
``models``     list the registry
``datasets``   list registered datasets with Table-I style statistics
``trace``      summarize a ``trace.json`` emitted by a traced run
               (per-span aggregates, processes, counter tracks)
``worker``     run a dispatch worker daemon against a sweep directory's
               queue (``repro.dispatch``): claim cells under crash-safe
               leases, run them, repeat — on any machine sharing the dir
``sweep-status`` inspect a dispatched sweep's queue: depth per state,
               live leases with owner and age, attempts, retry
               backoffs, dead letters

Examples::

    python -m repro models
    python -m repro run spec.json --run-dir runs/exp1
    python -m repro run spec.json --sweep-models lightgcn,sgl \
        --sweep-seeds 0,1 --run-dir runs/sweep --workers 4
    python -m repro run --resume runs/sweep
    python -m repro train --model graphaug --dataset gowalla \
        --epochs 60 --checkpoint best.npz --history history.csv
    python -m repro evaluate --model graphaug --dataset gowalla \
        --checkpoint best.npz
    python -m repro recommend --snapshot serve.npz --model lightgcn \
        --dataset gowalla --users 0,1,2 --k 20 --backend ann --mmap
    python -m repro worker runs/sweep --drain-when-empty
    python -m repro sweep-status runs/sweep
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .api import (Experiment, ExperimentSpec, expand_grid, recommend_topk)
from .data import available_datasets, resolve_dataset
from .models import available_models


# --------------------------------------------------------------------- #
# spec construction from flags
# --------------------------------------------------------------------- #

def _spec_from_args(args, fit: bool = True) -> ExperimentSpec:
    """The spec the legacy flag set describes (flag defaults included,
    matching the historical CLI behaviour exactly)."""
    train_config = {}
    if fit:
        train_config = {"epochs": args.epochs,
                        "batch_size": args.batch_size,
                        "learning_rate": args.lr,
                        "verbose": not args.quiet}
        if getattr(args, "eval_every", None) is not None:
            train_config["eval_every"] = args.eval_every
    eval_spec = {}
    if getattr(args, "eval_chunk", None) is not None:
        eval_spec = {"chunk_size": args.eval_chunk}
    artifacts = {"checkpoint": getattr(args, "checkpoint", None),
                 "history": getattr(args, "history", None),
                 "snapshot": getattr(args, "snapshot", None)}
    return ExperimentSpec(
        model=args.model,
        dataset=args.dataset,
        seed=args.seed,
        model_config={"embedding_dim": args.dim,
                      "num_layers": args.layers,
                      "ssl_weight": args.ssl_weight,
                      "temperature": args.temperature,
                      "edge_threshold": args.edge_threshold},
        train_config=train_config,
        eval=eval_spec or {},
        artifacts=artifacts,
    )


def _print_metrics(metrics) -> None:
    for key, value in sorted(metrics.items()):
        print(f"  {key:12s} {value:.4f}")


# --------------------------------------------------------------------- #
# subcommand handlers (thin wrappers over repro.api)
# --------------------------------------------------------------------- #

def _cmd_models(args) -> int:
    """List every registered model name."""
    for name in available_models():
        print(name)
    return 0


def _cmd_datasets(args) -> int:
    """Print Table-I style statistics for the registered datasets."""
    print(f"{'name':>14s} {'users':>6s} {'items':>6s} "
          f"{'interactions':>12s} {'density':>9s}")
    for name in available_datasets():
        stats = resolve_dataset(name, seed=args.seed).statistics()
        print(f"{name:>14s} {stats['users']:6d} {stats['items']:6d} "
              f"{stats['interactions']:12d} {stats['density']:9.2e}")
    return 0


def _cmd_train(args) -> int:
    """Train via the facade; optionally persist artifacts / a run dir."""
    spec = _spec_from_args(args)
    experiment = Experiment(spec)
    print(f"dataset: {experiment.dataset()}")
    result = experiment.run(run_dir=args.run_dir)
    print(f"model:   {spec.model} "
          f"({experiment.model.num_parameters():,} parameters)")
    print(f"\nbest epoch {result.best_epoch} "
          f"(train {result.train_seconds:.1f}s, "
          f"eval {result.eval_seconds:.1f}s):")
    _print_metrics(result.metrics)
    for role, path in sorted(result.artifacts.items()):
        print(f"{role:10s} -> {path}")
    return 0


def _cmd_evaluate(args) -> int:
    """Evaluate a (possibly checkpointed) model via the facade."""
    spec = _spec_from_args(args, fit=False)
    if args.checkpoint:
        print(f"loaded checkpoint {args.checkpoint}")
    metrics = Experiment(spec).evaluate(checkpoint=args.checkpoint)
    _print_metrics(metrics)
    return 0


def _cmd_recommend(args) -> int:
    """Serve top-k lists from a snapshot (training one when missing)."""
    from .serve import resolve_snapshot_path

    train_spec = None
    if args.model and args.dataset:
        train_spec = _spec_from_args(args)
    if train_spec is None and \
            not os.path.exists(resolve_snapshot_path(args.snapshot)):
        print("snapshot does not exist; --model and --dataset are "
              "required to train one", file=sys.stderr)
        return 2
    users = None
    if args.users:
        users = [int(u) for u in args.users.split(",")]
    payload = recommend_topk(args.snapshot, users=users, k=args.k,
                             exclude_seen=not args.include_seen,
                             train_spec=train_spec,
                             backend=args.backend, mmap=args.mmap)
    print(f"serving:  {payload['model']} ({payload['backend']} backend)")
    text = json.dumps({"model": payload["model"], "k": payload["k"],
                       "exclude_seen": payload["exclude_seen"],
                       "recommendations": payload["recommendations"]},
                      indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"top-{args.k} lists for {payload['num_users']} users "
              f"-> {args.output}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    """Summarize a Chrome-format ``trace.json`` (see repro.obs).

    Prints one aggregate row per span name (count, total/mean/max
    milliseconds), the distinct processes that contributed events, and
    the counter tracks present.  Exits 1 when the payload fails
    :func:`repro.obs.validate_chrome_trace`.
    """
    from .obs import validate_chrome_trace

    with open(args.trace) as handle:
        payload = json.load(handle)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1

    events = payload["traceEvents"]
    spans = {}
    counters = set()
    pids = set()
    labels = {}
    for event in events:
        pids.add(event["pid"])
        ph = event["ph"]
        if ph == "X":
            entry = spans.setdefault(event["name"],
                                     {"count": 0, "total": 0.0, "max": 0.0})
            dur_ms = event["dur"] / 1e3
            entry["count"] += 1
            entry["total"] += dur_ms
            entry["max"] = max(entry["max"], dur_ms)
        elif ph == "C":
            counters.add(event["name"])
        elif ph == "M" and event["name"] == "process_name":
            labels[event["pid"]] = event.get("args", {}).get("name", "")

    print(f"{args.trace}: {len(events)} events from "
          f"{len(pids)} process(es)")
    for pid in sorted(pids):
        label = labels.get(pid, "")
        print(f"  pid {pid}" + (f"  {label}" if label else ""))
    if spans:
        print(f"\n{'span':<24s} {'count':>7s} {'total ms':>10s} "
              f"{'mean ms':>10s} {'max ms':>10s}")
        for name in sorted(spans, key=lambda n: -spans[n]["total"]):
            entry = spans[name]
            mean = entry["total"] / entry["count"]
            print(f"{name:<24s} {entry['count']:7d} "
                  f"{entry['total']:10.2f} {mean:10.3f} "
                  f"{entry['max']:10.2f}")
    if counters:
        print("\ncounter tracks: " + ", ".join(sorted(counters)))
    dropped = payload.get("otherData", {}).get("dropped_events")
    if dropped:
        print(f"\nwarning: {dropped} event(s) were dropped by the ring "
              "buffer (raise repro.obs.reset_tracing(capacity=...))",
              file=sys.stderr)
    return 0


def _print_sweep_results(results) -> int:
    """Per-cell summary lines + leaderboard pointer; exit 1 on failures."""
    failed = 0
    for result in results:
        where = f" -> {result.run_dir}" if result.run_dir else ""
        if result.failed:
            failed += 1
            print(f"{result.spec.run_name}: FAILED ({result.error}){where}")
            continue
        best = " ".join(f"{k}={v:.4f}"
                        for k, v in sorted(result.metrics.items()))
        print(f"{result.spec.run_name}: {best}{where}")
    if failed:
        print(f"{failed} of {len(results)} cells failed "
              "(see each cell's status.json; re-run them with "
              "`repro run --resume <sweep dir>`)", file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args) -> int:
    """Run a spec file (single spec or list; optional sweep axes), or
    resume a partially-run sweep directory (``--resume``)."""
    from .api import SweepRunner
    from .api.sweep import LEADERBOARD_FILE

    verbose = False if args.quiet else None
    if args.resume:
        if args.spec:
            print("--resume takes no spec file (the sweep manifest "
                  "already records every cell)", file=sys.stderr)
            return 2
        results = SweepRunner.resume(args.resume, workers=args.workers,
                                     verbose=verbose)
        code = _print_sweep_results(results)
        # resume already re-aggregated; just point at the artifact
        print(f"leaderboard -> {os.path.join(args.resume, LEADERBOARD_FILE)}")
        return code
    if not args.spec:
        print("a spec file is required (or --resume <sweep dir>)",
              file=sys.stderr)
        return 2

    try:
        with open(args.spec) as handle:
            payload = json.load(handle)
        specs = [ExperimentSpec.from_dict(entry) for entry in
                 (payload if isinstance(payload, list) else [payload])]
    except (TypeError, ValueError) as exc:     # malformed JSON or spec
        print(f"{args.spec}: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print(f"{args.spec} holds an empty spec list; nothing to run",
              file=sys.stderr)
        return 2

    axes = {key: getattr(args, f"sweep_{key}") or None
            for key in ("models", "datasets", "seeds")}
    if any(axes.values()):
        expanded = []
        for spec in specs:
            expanded.extend(expand_grid(
                spec,
                models=axes["models"].split(",") if axes["models"] else None,
                datasets=(axes["datasets"].split(",")
                          if axes["datasets"] else None),
                seeds=([int(s) for s in axes["seeds"].split(",")]
                       if axes["seeds"] else None)))
        specs = expanded

    # --quiet forces silence; otherwise each spec's own verbose setting
    # stands (None = no override)
    if len(specs) == 1 and not args.run_dir and not args.workers:
        result = Experiment(specs[0]).run(verbose=verbose)
        print(f"{specs[0].run_name}: best epoch {result.best_epoch}")
        _print_metrics(result.metrics)
        return 0

    runner = SweepRunner(specs, base_dir=args.run_dir, verbose=verbose,
                         workers=args.workers)
    results = runner.run()
    code = _print_sweep_results(results)
    if runner.report is not None:
        print(f"leaderboard -> {runner.report.artifacts['leaderboard']}")
    return code


def _cmd_worker(args) -> int:
    """Run a dispatch worker daemon (see :mod:`repro.dispatch`).

    Claims cells from ``<sweep_dir>/queue/`` under a lease, runs them
    (writing ordinary run directories), and repeats until the drain
    sentinel appears — or, with ``--drain-when-empty``, until the queue
    settles.  Exit code is 0; task failures are queue records, not
    worker crashes.
    """
    from .dispatch import DispatchWorker

    worker = DispatchWorker(args.sweep_dir, worker_id=args.worker_id,
                            lease_ttl=args.lease_ttl,
                            drain_when_empty=args.drain_when_empty,
                            poll_interval=args.poll_interval,
                            max_tasks=args.max_tasks)
    ran = worker.run()
    print(f"worker {worker.worker_id}: {ran} task(s) executed")
    return 0


def _cmd_sweep_status(args) -> int:
    """Print one snapshot of a dispatched sweep's queue.

    Shows queue depth per state, every live lease (owner, host, age,
    seconds since last renewal), pending cells waiting out a retry
    backoff with their attempt counts, and dead-lettered cells with
    their final errors.
    ``--json`` emits the raw :meth:`QueueBroker.status` payload instead.
    Exit code: 0 when nothing is dead-lettered, 1 otherwise — usable
    as a cheap health probe from cron or CI.
    """
    from .dispatch import QueueBroker

    broker = QueueBroker(args.sweep_dir)
    status = broker.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 1 if status["counts"]["dead"] else 0

    counts = status["counts"]
    drained = "  [draining]" if status["drain_requested"] else ""
    print(f"{args.sweep_dir}: {counts['pending']} pending, "
          f"{counts['leased']} leased, {counts['done']} done, "
          f"{counts['dead']} dead{drained}")
    if status["leases"]:
        print(f"\n{'cell':<28s} {'worker':<20s} {'age s':>7s} "
              f"{'renewed s':>10s} {'attempt':>8s}")
        for lease in status["leases"]:
            print(f"{lease['name']:<28.28s} "
                  f"{str(lease['worker']):<20.20s} "
                  f"{lease['age_seconds']:7.1f} "
                  f"{lease['renewed_seconds_ago']:10.1f} "
                  f"{lease['attempts'] + 1:8d}")
    waiting = [cell for cell in status["pending"] if not cell["ready"]]
    if waiting:
        print("\nwaiting:")
        for cell in waiting:
            print(f"  {cell['name']}: retry backoff "
                  f"(attempt {cell['attempts'] + 1})")
    if status["dead"]:
        print("\ndead letters:")
        for cell in status["dead"]:
            print(f"  {cell['name']} (after {cell['attempts']} "
                  f"attempt(s)): {cell['error']}")
    return 1 if counts["dead"] else 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #

def _add_model_args(p: argparse.ArgumentParser) -> None:
    """Model hyperparameters shared by train / evaluate / recommend."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--ssl-weight", type=float, default=1.0,
                   dest="ssl_weight")
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--edge-threshold", type=float, default=0.2,
                   dest="edge_threshold")


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    """Optimization-budget flags for commands that may train."""
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=512,
                   dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphAug reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list registered models")
    p_data = sub.add_parser("datasets", help="print dataset statistics")
    p_data.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser(
        "run", help="run an experiment spec file (JSON; one spec or a "
                    "list of specs), or resume a sweep directory")
    p_run.add_argument("spec", nargs="?", default=None,
                       help="path to the spec JSON "
                            "(see repro.api.ExperimentSpec); omit with "
                            "--resume")
    p_run.add_argument("--run-dir", default=None, dest="run_dir",
                       help="write replayable run directories here (one "
                            "per spec), plus sweep.json / leaderboard.md")
    p_run.add_argument("--sweep-models", default=None, dest="sweep_models",
                       help="comma-separated model axis to grid over")
    p_run.add_argument("--sweep-datasets", default=None,
                       dest="sweep_datasets",
                       help="comma-separated dataset axis to grid over")
    p_run.add_argument("--sweep-seeds", default=None, dest="sweep_seeds",
                       help="comma-separated seed axis to grid over")
    p_run.add_argument("--workers", type=int, default=None,
                       help="run sweep cells on N local dispatch workers "
                            "(default: sequential in-process; output is "
                            "bit-identical either way)")
    p_run.add_argument("--resume", default=None, metavar="SWEEP_DIR",
                       help="finish a partially-run sweep: skip cells "
                            "whose run dirs validate, re-run "
                            "failed/missing ones")
    p_run.add_argument("--quiet", action="store_true")

    for name, help_text in (("train", "train a model"),
                            ("evaluate", "evaluate a checkpoint")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True,
                       choices=available_models())
        p.add_argument("--dataset", required=True,
                       help="registered dataset (gowalla/retail_rocket/"
                            "amazon/tiny) or path to a TSV edge list")
        _add_model_args(p)
        p.add_argument("--checkpoint", default=None)
        if name == "evaluate":
            p.add_argument("--eval-chunk", type=int,
                           default=None, dest="eval_chunk",
                           help="users ranked per evaluation block "
                                "(default: auto-sized from the memory "
                                "budget)")
        if name == "train":
            _add_fit_args(p)
            p.add_argument("--eval-every", type=int, default=10,
                           dest="eval_every")
            p.add_argument("--history", default=None,
                           help="write per-epoch history CSV here")
            p.add_argument("--snapshot", default=None,
                           help="write an end-of-fit serving snapshot "
                                "(repro.serve) here")
            p.add_argument("--run-dir", default=None, dest="run_dir",
                           help="write a replayable run directory here")

    p_trace = sub.add_parser(
        "trace", help="summarize a trace.json emitted by a traced run")
    p_trace.add_argument("trace",
                         help="path to a Chrome-format trace.json "
                              "(TrainConfig.trace=True writes one per "
                              "run dir; sweeps write a merged one)")

    p_worker = sub.add_parser(
        "worker",
        help="run a dispatch worker against a sweep directory's queue")
    p_worker.add_argument("sweep_dir",
                          help="sweep directory holding the dispatch "
                               "queue (repro.dispatch.enqueue_sweep)")
    p_worker.add_argument("--worker-id", default=None, dest="worker_id",
                          help="lease identity (default: <host>:<pid>)")
    p_worker.add_argument("--lease-ttl", type=float, default=60.0,
                          dest="lease_ttl",
                          help="seconds a lease survives without a "
                               "renewal (the worker renews every "
                               "third of it while a cell runs)")
    p_worker.add_argument("--poll-interval", type=float, default=0.5,
                          dest="poll_interval",
                          help="seconds between queue scans when idle")
    p_worker.add_argument("--drain-when-empty", action="store_true",
                          dest="drain_when_empty",
                          help="exit once the queue settles instead of "
                               "polling forever")
    p_worker.add_argument("--max-tasks", type=int, default=None,
                          dest="max_tasks",
                          help="exit after running this many tasks")

    p_status = sub.add_parser(
        "sweep-status",
        help="inspect a dispatched sweep's queue (leases, attempts, "
             "retry backoffs, dead letters)")
    p_status.add_argument("sweep_dir",
                          help="sweep directory holding the dispatch queue")
    p_status.add_argument("--json", action="store_true",
                          help="emit the raw status payload as JSON")

    p_rec = sub.add_parser(
        "recommend",
        help="serve top-k recommendations from a serving snapshot")
    p_rec.add_argument("--snapshot", required=True,
                       help="serving snapshot path; trained and written "
                            "first when it does not exist yet")
    p_rec.add_argument("--model", default=None,
                       choices=available_models(),
                       help="model to train when the snapshot is missing")
    p_rec.add_argument("--dataset", default=None,
                       help="registered dataset or TSV path (only needed "
                            "when training)")
    p_rec.add_argument("--users", default=None,
                       help="comma-separated user ids (default: all users)")
    p_rec.add_argument("--k", type=int, default=20)
    p_rec.add_argument("--backend", default="exact",
                       choices=["exact", "ann"],
                       help="retrieval path: exact GEMM (reference) or "
                            "the IVF ANN index (embedding snapshots)")
    p_rec.add_argument("--mmap", action="store_true",
                       help="memory-map the snapshot's embedding tables "
                            "(uncompressed format-v3 artifacts) so "
                            "concurrent serving processes share one copy")
    p_rec.add_argument("--include-seen", action="store_true",
                       dest="include_seen",
                       help="do not mask items the user already interacted "
                            "with")
    p_rec.add_argument("--output", default=None,
                       help="write the top-k JSON here instead of stdout")
    _add_model_args(p_rec)
    _add_fit_args(p_rec)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"models": _cmd_models, "datasets": _cmd_datasets,
                "train": _cmd_train, "evaluate": _cmd_evaluate,
                "recommend": _cmd_recommend, "run": _cmd_run,
                "trace": _cmd_trace, "worker": _cmd_worker,
                "sweep-status": _cmd_sweep_status}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
