"""Parallel sweep walkthrough: grid -> local workers -> leaderboard.

The reproduction's core workload is the model x dataset x seed grid
behind the paper's tables.  This example runs such a grid through the
sweep engine (:mod:`repro.api.sweep`): cells execute on ``N`` local
dispatch workers (``workers=N``; ``repro worker`` processes draining a
queue under the sweep directory; scheduling never changes results),
one crashed cell
cannot take down the sweep, every cell leaves a replayable run
directory, and the aggregation layer turns the whole thing into a
ranked leaderboard.  At the end the sweep is resumed, demonstrating
that nothing valid is ever re-executed.

Run it::

    PYTHONPATH=src python examples/sweep.py

or from the CLI (same engine underneath)::

    python -m repro run spec.json --sweep-models biasmf,lightgcn \
        --sweep-seeds 0,1 --run-dir runs/sweep --workers 2
    python -m repro run --resume runs/sweep
"""

import tempfile

from repro.api import ExperimentSpec, SweepRunner, expand_grid


def main(dataset="gowalla", models=("biasmf", "lightgcn", "sgl"),
         seeds=(0, 1), epochs=40, embedding_dim=32, workers=2,
         base_dir=None):
    """Run a models x seeds grid on local workers and rank the cells."""
    base_dir = base_dir or tempfile.mkdtemp(prefix="repro-sweep-")
    base = ExperimentSpec(
        model=models[0], dataset=dataset,
        model_config={"embedding_dim": embedding_dim},
        train_config={"epochs": epochs,
                      "eval_every": max(1, epochs // 2)})
    specs = expand_grid(base, models=list(models), seeds=list(seeds))
    print(f"sweep: {len(specs)} cells ({len(models)} models x "
          f"{len(seeds)} seeds) on {dataset}, {workers} worker(s)")

    runner = SweepRunner(specs, base_dir=base_dir, workers=workers)
    results = runner.run()
    completed = [r for r in results if not r.failed]
    print(f"{len(completed)}/{len(results)} cells completed")
    for result in results:
        if result.failed:
            print(f"  {result.spec.run_name}: FAILED ({result.error})")

    report = runner.report          # aggregated once, by run() itself
    print()
    print(report.to_markdown())
    print(f"leaderboard -> {report.artifacts['leaderboard']}")

    # resuming a finished sweep is a no-op: every run dir validates, so
    # no cell re-executes (kill a sweep mid-flight and the same call
    # finishes exactly the missing cells)
    resumed = SweepRunner.resume(base_dir)
    print(f"resume: {sum(1 for r in resumed if not r.failed)}"
          f"/{len(resumed)} cells already valid, nothing re-run")
    return results


if __name__ == "__main__":
    main()
