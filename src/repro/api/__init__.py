"""``repro.api`` — the declarative experiment facade.

One typed spec describes a whole experiment; one call runs it through
the registries and the shared pipeline::

    from repro.api import Experiment, ExperimentSpec

    spec = ExperimentSpec(model="lightgcn", dataset="gowalla",
                          train_config={"epochs": 60, "eval_every": 20})
    result = Experiment(spec).run(run_dir="runs/lightgcn-gowalla")
    print(result.metrics["recall@20"])

Every component is resolved by name through the process-wide component
registries (:func:`repro.utils.component_registry`):

==========  ============================  ==============================
kind        registered by                 spec field
==========  ============================  ==============================
model       ``repro.models``              ``model``
dataset     ``repro.data`` (profiles,     ``dataset`` (names or file
            ``tiny``; file paths resolve  paths)
            by extension)
metric      ``repro.eval.metrics``        ``eval.metrics``
probe       ``repro.eval`` (groups,       ``probes``
            beyond-accuracy, robustness)
callback    ``repro.train.callbacks``     ``artifacts``
==========  ============================  ==============================

Specs round-trip losslessly through plain dicts / JSON files (strict
parsing: unknown keys raise, naming the bad field), runs persist a
replayable run directory (:mod:`repro.api.rundir`), and the sweep
engine (:mod:`repro.api.sweep`) grid-runs many specs — sequentially or
on ``N`` local dispatch workers (``workers=N``), with per-cell failure
isolation,
``SweepRunner.resume`` for partially-run sweeps, and
:func:`aggregate_results` leaderboards.  The CLI
(``repro train/evaluate/recommend/run``) is a thin shell over this
module.
"""

from .spec import ArtifactSpec, EvalSpec, ExperimentSpec
from .experiment import (Experiment, RunResult, recommend_topk, run_cell,
                         run_experiment)
from .rundir import (environment_stamp, read_run_dir, run_dir_fingerprint,
                     run_dir_is_complete, write_run_dir)
from .sweep import (SweepReport, SweepRunner, aggregate_results,
                    claim_run_dir, expand_grid, merge_sweep_manifest,
                    read_sweep_manifest, run_sweep, write_sweep_manifest)

__all__ = [
    "ArtifactSpec", "EvalSpec", "ExperimentSpec",
    "Experiment", "RunResult", "expand_grid", "recommend_topk",
    "run_cell", "run_experiment", "run_sweep",
    "SweepReport", "SweepRunner", "aggregate_results", "claim_run_dir",
    "merge_sweep_manifest", "read_sweep_manifest", "write_sweep_manifest",
    "environment_stamp", "read_run_dir", "run_dir_fingerprint",
    "run_dir_is_complete", "write_run_dir",
]
