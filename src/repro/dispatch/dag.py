"""Task kinds, artifact hand-offs and pipeline validation for dispatch.

Dispatched cells are not limited to experiment runs: a queue can hold a
small DAG — train a model, publish its serving snapshot, evaluate the
snapshot — where each stage declares the cells it runs ``after`` and
consumes their outputs by **artifact reference**:

``"@artifact:<cell>:<role>"``
    Resolved (just before execution, when every dependency is already
    ``done``) to the path the upstream cell recorded under ``role`` in
    the ``artifacts`` dict of its done-record result summary.  The done
    records in the queue are therefore the hand-off channel: no side
    files, no coordinator in the loop.

Task *kinds* are plugged in through the ``dispatch_task`` component
registry (:func:`repro.utils.registry.component_registry`); an executor
takes ``(payload, run_dir)`` and returns a JSON-compatible result
summary with at least a ``status`` key.  Three kinds ship by default:

``experiment``
    The sweep engine's unchanged unit of work: the payload is a plain
    :class:`~repro.api.ExperimentSpec` dict, run through
    :func:`repro.api.run_cell` (never raises; writes the run directory
    exactly as a local sweep would).
``snapshot``
    Publish an upstream training run's serving snapshot to a stable
    ``path``: the source snapshot is load-validated
    (:func:`repro.serve.load_snapshot`) before the copy, so a corrupt
    artifact fails this stage instead of every consumer after it.
``serving_eval``
    Serve top-k recommendations from a snapshot
    (:func:`repro.api.recommend_topk`) and persist the payload into the
    stage's run directory — the classic closing stage of a
    train -> snapshot -> serve pipeline.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional

from ..utils.registry import Registry, component_registry
from .queue import DONE, QueueBroker, TASK_SCHEMA  # noqa: F401 (TASK_SCHEMA
#                                                  re-exported for callers
#                                                  composing raw tasks)

#: prefix of an artifact reference inside a task payload
ARTIFACT_REF_PREFIX = "@artifact:"


def task_kinds() -> Registry:
    """The ``dispatch_task`` component registry (kind -> executor)."""
    return component_registry("dispatch_task")


def parse_artifact_ref(value) -> Optional[Dict[str, str]]:
    """Decode ``"@artifact:<cell>:<role>"``; ``None`` for plain values."""
    if not isinstance(value, str) or not value.startswith(
            ARTIFACT_REF_PREFIX):
        return None
    body = value[len(ARTIFACT_REF_PREFIX):]
    cell, sep, role = body.partition(":")
    if not sep or not cell or not role:
        raise ValueError(
            f"malformed artifact reference {value!r} (expected "
            f"{ARTIFACT_REF_PREFIX}<cell>:<role>)")
    return {"cell": cell, "role": role}


def artifact_refs(payload) -> List[Dict[str, str]]:
    """Every artifact reference anywhere in a (nested) task payload."""
    refs: List[Dict[str, str]] = []
    if isinstance(payload, dict):
        for value in payload.values():
            refs.extend(artifact_refs(value))
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            refs.extend(artifact_refs(value))
    else:
        ref = parse_artifact_ref(payload)
        if ref is not None:
            refs.append(ref)
    return refs


def resolve_artifacts(broker: QueueBroker, payload):
    """Substitute every artifact reference from the queue's done records.

    Returns a deep copy of ``payload`` with each
    ``@artifact:<cell>:<role>`` string replaced by the artifact path the
    named cell published.  Raises ``KeyError`` when the upstream cell is
    not done or published no such role — callers run this only after
    dependency gating, so hitting that error means the task's ``after``
    list was missing the producer (a pipeline authoring bug worth
    failing loudly on).
    """
    if isinstance(payload, dict):
        return {key: resolve_artifacts(broker, value)
                for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [resolve_artifacts(broker, value) for value in payload]
    ref = parse_artifact_ref(payload)
    if ref is None:
        return payload
    record = broker.read_task(DONE, ref["cell"])
    if record is None:
        raise KeyError(
            f"artifact reference {payload!r}: cell {ref['cell']!r} has no "
            "done record (is it missing from this task's 'after' list?)")
    artifacts = (record.get("result") or {}).get("artifacts") or {}
    if ref["role"] not in artifacts:
        raise KeyError(
            f"artifact reference {payload!r}: cell {ref['cell']!r} "
            f"published no {ref['role']!r} artifact "
            f"(available: {sorted(artifacts)})")
    return artifacts[ref["role"]]


def validate_pipeline(tasks: List[Dict]) -> List[str]:
    """Check a task list forms a runnable DAG; returns a topological order.

    Verifies unique names, registered kinds, ``after`` edges that point
    at tasks in the list (or cells already ``done`` — the caller can
    extend a live queue), artifact references covered by the dependency
    edges, and the absence of cycles.  Raises ``ValueError`` on any
    violation; the error names the offending task.
    """
    by_name: Dict[str, Dict] = {}
    for task in tasks:
        name = task.get("name")
        if task.get("schema") != TASK_SCHEMA:
            raise ValueError(f"task {name!r} is not a {TASK_SCHEMA} task")
        if name in by_name:
            raise ValueError(f"duplicate task name {name!r}")
        if task.get("kind") not in task_kinds():
            raise ValueError(
                f"task {name!r} has unregistered kind {task.get('kind')!r} "
                f"(registered: {task_kinds().names()})")
        by_name[name] = task
    for task in tasks:
        deps = set(task.get("after", ()))
        for dep in deps:
            if dep not in by_name:
                raise ValueError(
                    f"task {task['name']!r} runs after unknown task "
                    f"{dep!r}")
        for ref in artifact_refs(task.get("payload")):
            if ref["cell"] != task["name"] and ref["cell"] not in deps:
                raise ValueError(
                    f"task {task['name']!r} references an artifact of "
                    f"{ref['cell']!r} but does not list it in 'after' — "
                    "the scheduler would not wait for it")
    order: List[str] = []
    state: Dict[str, int] = {}        # 1 = on stack, 2 = finished

    def visit(name: str, chain: List[str]) -> None:
        mark = state.get(name)
        if mark == 2:
            return
        if mark == 1:
            cycle = chain[chain.index(name):] + [name]
            raise ValueError("dependency cycle: " + " -> ".join(cycle))
        state[name] = 1
        for dep in sorted(by_name[name].get("after", ())):
            visit(dep, chain + [name])
        state[name] = 2
        order.append(name)

    for name in sorted(by_name):
        visit(name, [])
    return order


# --------------------------------------------------------------------- #
# built-in task kinds
# --------------------------------------------------------------------- #

def _register_builtin_kinds() -> None:
    """Idempotently register the shipped task kinds (import-time)."""
    registry = task_kinds()
    if "experiment" in registry:
        return

    @registry.register("experiment")
    def _experiment_task(payload: Dict, run_dir: Optional[str],
                         verbose: Optional[bool] = None,
                         dataset_cache: Optional[Dict] = None) -> Dict:
        """The sweep engine's unit of work: run one ExperimentSpec dict
        (a worker passes its verbosity override and dataset cache)."""
        from ..api.experiment import run_cell
        return run_cell(dict(payload), run_dir=run_dir, verbose=verbose,
                        dataset_cache=dataset_cache)

    @registry.register("snapshot")
    def _snapshot_task(payload: Dict, run_dir: Optional[str]) -> Dict:
        """Publish a validated serving snapshot to a stable path.

        Payload: ``{"source": <path or @artifact ref>, "path": <dest>}``.
        The source is load-validated before copying so corruption fails
        here, not in every downstream consumer.
        """
        from ..serve import load_snapshot
        source = payload["source"]
        dest = payload["path"]
        load_snapshot(source)            # raises on a corrupt snapshot
        os.makedirs(os.path.dirname(os.path.abspath(dest)), exist_ok=True)
        shutil.copyfile(source, dest)
        return {"status": "completed", "error": None,
                "artifacts": {"snapshot": dest},
                "metrics": {}, "source": source}

    @registry.register("serving_eval")
    def _serving_eval_task(payload: Dict, run_dir: Optional[str]) -> Dict:
        """Serve top-k lists from a snapshot; persists them to run_dir.

        Payload: ``{"snapshot": <path or ref>, "users": [...], "k": int,
        "exclude_seen": bool}`` (all but ``snapshot`` optional).
        """
        from ..api.experiment import recommend_topk
        served = recommend_topk(payload["snapshot"],
                                users=payload.get("users"),
                                k=int(payload.get("k", 20)),
                                exclude_seen=bool(
                                    payload.get("exclude_seen", True)))
        artifacts: Dict[str, str] = {}
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            path = os.path.join(run_dir, "recommendations.json")
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(served, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
            artifacts["recommendations"] = path
        return {"status": "completed", "error": None,
                "artifacts": artifacts,
                "metrics": {"num_users": served["num_users"],
                            "k": served["k"]},
                "model": served["model"]}


_register_builtin_kinds()
