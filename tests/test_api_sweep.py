"""Tests for the parallel sweep engine (``repro.api.sweep``).

Acceptance contract of the sweep PR:

* an N-worker sweep over a >= 8-cell grid produces run directories
  bit-identical to the sequential path (everything except wall-clock
  fields — certified through ``run_dir_fingerprint``);
* a cell that crashes mid-fit leaves a valid ``status: failed`` record
  (spec echo + error + traceback) while the rest of the grid completes;
* ``SweepRunner.resume`` re-runs exactly the failed/missing cells and
  never re-executes finished ones;
* run-directory claims are atomic (``os.mkdir``-based), so concurrent
  claimants of one name always get distinct directories.
"""

import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (ExperimentSpec, RunResult, SweepRunner,
                       aggregate_results, claim_run_dir, expand_grid,
                       read_sweep_manifest, run_dir_fingerprint,
                       run_dir_is_complete, run_sweep)
from repro.api.sweep import BLAS_ENV_VARS
from repro.data import save_tsv, tiny_dataset

FAST_TRAIN = {"epochs": 2, "batch_size": 128, "eval_every": 2}


def _fast_spec(model="biasmf", dataset="tiny", **overrides):
    base = dict(model=model, dataset=dataset,
                model_config={"embedding_dim": 8},
                train_config=dict(FAST_TRAIN))
    base.update(overrides)
    return ExperimentSpec(**base)


def _crashing_spec(**overrides):
    """A spec whose training raises mid-fit (fault-injection hook)."""
    return _fast_spec(
        train_config={**FAST_TRAIN, "fail_after_epoch": 1}, **overrides)


def _metrics_mtimes(base_dir):
    """metrics.jsonl mtime per cell — proof of (non-)re-execution."""
    out = {}
    for name in os.listdir(base_dir):
        path = os.path.join(base_dir, name, "metrics.jsonl")
        if os.path.exists(path):
            out[name] = os.stat(path).st_mtime_ns
    return out


# --------------------------------------------------------------------- #
# parallel vs sequential parity
# --------------------------------------------------------------------- #

class TestParallelParity:
    def test_eight_cell_grid_parallel_matches_sequential(self, tmp_path):
        """Acceptance: N workers, >= 8 cells, bit-identical run dirs."""
        specs = expand_grid(_fast_spec(),
                            models=["biasmf", "lightgcn"],
                            seeds=[0, 1, 2, 3])
        assert len(specs) == 8
        seq_dir = str(tmp_path / "seq")
        par_dir = str(tmp_path / "par")
        seq = run_sweep(specs, base_dir=seq_dir)
        par = run_sweep(specs, base_dir=par_dir, workers=2)
        assert [r.status for r in par] == ["completed"] * 8
        for a, b in zip(seq, par):
            assert os.path.basename(a.run_dir) == \
                os.path.basename(b.run_dir)
            assert run_dir_fingerprint(a.run_dir) == \
                run_dir_fingerprint(b.run_dir)
            assert a.metrics == b.metrics
            assert a.best_epoch == b.best_epoch

    def test_one_worker_pool_matches_sequential(self, tmp_path):
        specs = expand_grid(_fast_spec(), seeds=[0, 1])
        seq = run_sweep(specs, base_dir=str(tmp_path / "seq"))
        par = run_sweep(specs, base_dir=str(tmp_path / "par"), workers=1)
        for a, b in zip(seq, par):
            assert run_dir_fingerprint(a.run_dir) == \
                run_dir_fingerprint(b.run_dir)

    def test_parallel_results_carry_summary_not_fit(self, tmp_path):
        results = run_sweep([_fast_spec()],
                            base_dir=str(tmp_path / "s"), workers=1)
        assert results[0].fit is None          # like RunResult.load
        assert results[0].metrics
        assert results[0].timing["train_seconds"] > 0

    def test_fingerprint_ignores_wall_clock_only(self, tmp_path):
        """Two runs of one spec differ only in timings -> same print."""
        spec = _fast_spec(probes={"beyond_accuracy": {"k": 5}})
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_sweep([spec], base_dir=a)
        run_sweep([spec], base_dir=b)
        cell = spec.run_name
        fp_a = run_dir_fingerprint(os.path.join(a, cell))
        fp_b = run_dir_fingerprint(os.path.join(b, cell))
        assert fp_a == fp_b
        with open(os.path.join(a, cell, "timing.json")) as fh:
            t_a = json.load(fh)
        with open(os.path.join(b, cell, "timing.json")) as fh:
            t_b = json.load(fh)
        assert t_a.keys() == t_b.keys()        # same shape, values vary

    def test_fingerprint_differs_across_specs(self, tmp_path):
        base_dir = str(tmp_path / "s")
        results = run_sweep(expand_grid(_fast_spec(), seeds=[0, 1]),
                            base_dir=base_dir)
        assert run_dir_fingerprint(results[0].run_dir) != \
            run_dir_fingerprint(results[1].run_dir)


# --------------------------------------------------------------------- #
# local dispatch workers (workers=N)
# --------------------------------------------------------------------- #

def _repro_pythonpath() -> str:
    import repro
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return os.pathsep.join(p for p in (root, existing) if p)


def _fake_workers(monkeypatch):
    """Replace ``subprocess.Popen`` with workers that exit at once;
    returns the list their launch environments are appended to."""
    launched = []

    class FakeWorker:
        pid = 0

        def __init__(self, cmd, env=None, **kwargs):
            launched.append(env)
            self.stdout = io.BytesIO()

        def wait(self, timeout=None):
            return 0

        def poll(self):
            return 0

    monkeypatch.setattr(subprocess, "Popen", FakeWorker)
    return launched


class TestLocalWorkers:
    def test_without_base_dir_leaves_nothing_on_disk(self, tmp_path,
                                                     monkeypatch):
        """``repro run --workers N`` without ``--run-dir``: the cells run
        in a temporary directory that is gone afterwards."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        specs = expand_grid(_fast_spec(), seeds=[0, 1])
        seq = run_sweep(specs)
        par = run_sweep(specs, workers=2)
        assert [r.status for r in par] == ["completed"] * 2
        for a, b in zip(seq, par):
            assert b.metrics == a.metrics
            assert b.best_epoch == a.best_epoch
            assert b.run_dir is None
        assert os.listdir(scratch) == []

    def test_unguarded_driver_script_completes(self, tmp_path):
        """Workers never import the caller's script, so a driver without
        an ``if __name__ == "__main__":`` guard still runs every cell."""
        base_dir = str(tmp_path / "sweep")
        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent(f"""\
            from repro.api import ExperimentSpec, expand_grid, run_sweep
            base = ExperimentSpec(model="biasmf", dataset="tiny",
                                  model_config={{"embedding_dim": 8}},
                                  train_config={FAST_TRAIN!r})
            results = run_sweep(expand_grid(base, seeds=[0, 1]),
                                base_dir={base_dir!r}, workers=2)
            print(",".join(r.status for r in results))
            """))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=_repro_pythonpath()),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "completed,completed"
        # the sweep removed its queue records (and the emptied queue)
        assert not os.path.exists(os.path.join(base_dir, "queue"))

    def test_workers_split_blas_threads(self, tmp_path, monkeypatch):
        """Each of N local workers gets ``cores // N`` BLAS threads."""
        launched = _fake_workers(monkeypatch)
        results = run_sweep(expand_grid(_fast_spec(), seeds=[0, 1, 2]),
                            base_dir=str(tmp_path / "sweep"), workers=2)
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        expected = str(max(1, cores // 2))
        assert len(launched) == 2
        for env in launched:
            assert env["OPENBLAS_NUM_THREADS"] == expected
            assert env["OMP_NUM_THREADS"] == expected
        # workers that exit without running a cell fail it, not hang
        assert [r.status for r in results] == ["failed"] * 3
        assert "no worker finished" in results[0].error

    def test_blas_cap_floors_at_one_and_spares_the_parent(self, tmp_path,
                                                          monkeypatch):
        """More workers than cores still get one thread each, and the
        cap lives only in the workers' environment."""
        for var in BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        launched = _fake_workers(monkeypatch)
        run_sweep(expand_grid(_fast_spec(), seeds=[0, 1]),
                  base_dir=str(tmp_path / "sweep"), workers=2)
        assert len(launched) == 2
        for env in launched:
            for var in BLAS_ENV_VARS:
                assert env[var] == "1"
        for var in BLAS_ENV_VARS:
            assert var not in os.environ

    def test_lease_outlives_cells_without_heartbeats(self, tmp_path,
                                                     monkeypatch):
        """A cell that trains for longer than the lease TTL without a
        heartbeat keeps its lease while the other worker idles and
        reaps, so both cells complete."""
        import repro.dispatch as dispatch
        monkeypatch.setattr(dispatch, "launch_worker", functools.partial(
            dispatch.launch_worker, lease_ttl=0.5))
        slow = _fast_spec(
            model="lightgcn", dataset="gowalla",
            model_config={"embedding_dim": 32},
            train_config={"epochs": 20, "batch_size": 256,
                          "eval_every": 20, "heartbeat_seconds": 3600})
        results = run_sweep([slow, _fast_spec()],
                            base_dir=str(tmp_path / "sweep"), workers=2)
        assert [r.status for r in results] == ["completed"] * 2, \
            [r.error for r in results]

    def test_script_registered_components_run_in_process(self, tmp_path):
        """A dataset registered in the calling script is unknown to the
        workers: its cell runs in the caller, the others on the queue.
        Worker progress lines reach the caller's stdout, the workers'
        closing summary lines do not."""
        base_dir = str(tmp_path / "sweep")
        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent(f"""\
            from repro.api import ExperimentSpec, expand_grid, run_sweep
            from repro.data import DATASET_REGISTRY, tiny_dataset

            @DATASET_REGISTRY.register("script-tiny")
            def _load(seed=0, **options):
                return tiny_dataset(seed=seed, **options)

            if __name__ == "__main__":
                base = ExperimentSpec(model="biasmf", dataset="tiny",
                                      model_config={{"embedding_dim": 8}},
                                      train_config={FAST_TRAIN!r})
                specs = expand_grid(base, datasets=["tiny", "script-tiny"])
                results = run_sweep(specs, base_dir={base_dir!r},
                                    workers=2, verbose=True)
                print(",".join(r.status for r in results))
                print(",".join(str(r.fit is not None) for r in results))
            """))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=_repro_pythonpath()),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2] == "completed,completed"
        # the script-registered cell ran in the caller (live fit history)
        assert lines[-1] == "False,True"
        # both cells' epoch lines: one relayed from a worker, one local
        epochs = [line for line in lines if line.startswith("epoch")]
        assert len(epochs) == 2 * FAST_TRAIN["epochs"], proc.stdout
        assert "task(s) executed" not in proc.stdout

    def test_queue_directory_name_is_reserved(self, tmp_path):
        """A spec named like the queue directory gets a suffixed run dir,
        so the queue and the cell never share a directory."""
        base_dir = str(tmp_path / "sweep")
        (result,) = run_sweep([_fast_spec(name="queue")],
                              base_dir=base_dir, workers=2)
        assert result.status == "completed"
        assert os.path.basename(result.run_dir) == "queue-2"
        assert sorted(os.listdir(base_dir)) == [
            "leaderboard.md", "queue-2", "results.csv", "sweep.json",
            "sweep.json.lock"]

    def test_resumed_cell_named_queue_runs_in_process(self, tmp_path):
        """A manifest written before the name was reserved may hold a
        cell called ``queue``; resuming it with workers runs in-process,
        so no queue is ever laid out inside that cell's run dir."""
        base_dir = str(tmp_path / "sweep")
        specs = [_fast_spec(name="queue"), _fast_spec(seed=1)]
        run_sweep(specs, base_dir=base_dir)
        manifest_path = os.path.join(base_dir, "sweep.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["cells"][0]["name"] = "queue"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        shutil.rmtree(os.path.join(base_dir, "queue-2"))
        results = SweepRunner.resume(base_dir, workers=2)
        assert [r.status for r in results] == ["completed"] * 2
        assert results[0].fit is not None          # ran in the caller
        assert run_dir_is_complete(os.path.join(base_dir, "queue"),
                                   specs[0])


# --------------------------------------------------------------------- #
# failure isolation
# --------------------------------------------------------------------- #

class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_mid_fit_crash_is_isolated(self, tmp_path, workers):
        """One injected crash; the rest of the grid completes."""
        specs = [_crashing_spec(seed=9)] + \
            expand_grid(_fast_spec(), seeds=[0, 1])
        base_dir = str(tmp_path / "sweep")
        results = run_sweep(specs, base_dir=base_dir, workers=workers)
        assert [r.status for r in results] == \
            ["failed", "completed", "completed"]
        assert "fail_after_epoch" in results[0].error
        # the crashed cell's run dir is a valid failed record
        failed_dir = results[0].run_dir
        with open(os.path.join(failed_dir, "status.json")) as fh:
            status = json.load(fh)
        assert status["status"] == "failed"
        assert "RuntimeError" in status["error"]
        assert "injected training failure" in status["traceback"]
        with open(os.path.join(failed_dir, "spec.json")) as fh:
            assert ExperimentSpec.from_dict(json.load(fh)) == specs[0]
        assert not run_dir_is_complete(failed_dir)

    def test_failed_result_loads_from_disk(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        results = run_sweep([_crashing_spec()], base_dir=base_dir)
        loaded = RunResult.load(results[0].run_dir)
        assert loaded.failed
        assert loaded.error == results[0].error
        assert loaded.metrics == {}

    def test_missing_dataset_file_fails_cleanly(self, tmp_path):
        spec = _fast_spec(dataset=str(tmp_path / "not-there.tsv"))
        results = run_sweep([spec, _fast_spec()],
                            base_dir=str(tmp_path / "sweep"), workers=2)
        assert [r.status for r in results] == ["failed", "completed"]
        assert "not-there.tsv" in results[0].error

    def test_unparseable_spec_still_persists_failure_record(self,
                                                            tmp_path):
        """run_cell with a spec that never parses must still leave a
        diagnosable failed record in its (pre-claimed) run dir."""
        from repro.api import run_cell
        run_dir = str(tmp_path / "cell")
        os.mkdir(run_dir)
        payload = {**_fast_spec().to_dict(), "typo": 1}
        summary = run_cell(payload, run_dir=run_dir)
        assert summary["status"] == "failed"
        assert "typo" in summary["error"]
        with open(os.path.join(run_dir, "status.json")) as fh:
            status = json.load(fh)
        assert status["status"] == "failed"
        assert "typo" in status["error"]
        with open(os.path.join(run_dir, "spec.json")) as fh:
            assert json.load(fh) == payload     # raw payload echoed
        assert not run_dir_is_complete(run_dir)

    def test_failure_without_base_dir(self):
        results = run_sweep([_crashing_spec(), _fast_spec()])
        assert [r.status for r in results] == ["failed", "completed"]
        assert results[0].run_dir is None
        assert results[1].metrics

    def test_sequential_failure_keeps_live_fit_for_survivors(self):
        results = run_sweep([_crashing_spec(), _fast_spec()])
        assert results[1].fit is not None      # sequential path contract


# --------------------------------------------------------------------- #
# resume
# --------------------------------------------------------------------- #

class TestResume:
    def test_resume_reruns_exactly_failed_and_missing(self, tmp_path):
        """Acceptance: finished cells untouched, broken ones re-run."""
        late_tsv = str(tmp_path / "late.tsv")
        specs = expand_grid(_fast_spec(), seeds=[0, 1, 2]) + \
            [_fast_spec(dataset=late_tsv)]     # crashes: file missing
        base_dir = str(tmp_path / "sweep")
        first = run_sweep(specs, base_dir=base_dir, workers=2)
        assert [r.status for r in first] == \
            ["completed"] * 3 + ["failed"]

        # delete one finished cell entirely ("missing"), then make the
        # crashed cell's dataset appear so its re-run can succeed
        removed = first[1].run_dir
        shutil.rmtree(removed)
        save_tsv(tiny_dataset(seed=3, num_users=40, num_items=30),
                 late_tsv)
        before = _metrics_mtimes(base_dir)

        resumed = SweepRunner.resume(base_dir)
        assert [r.status for r in resumed] == ["completed"] * 4
        after = _metrics_mtimes(base_dir)
        for name in (os.path.basename(first[0].run_dir),
                     os.path.basename(first[2].run_dir)):
            assert before[name] == after[name], name   # not re-executed
        # the missing and the failed cell were re-run
        assert os.path.basename(removed) in after
        assert run_dir_is_complete(removed)
        failed_name = os.path.basename(first[3].run_dir)
        assert run_dir_is_complete(os.path.join(base_dir, failed_name))

    def test_resumed_cell_matches_fresh_run(self, tmp_path):
        """A cell re-run by resume is bit-identical to a fresh run."""
        specs = expand_grid(_fast_spec(), seeds=[0, 1])
        base_dir = str(tmp_path / "sweep")
        first = run_sweep(specs, base_dir=base_dir)
        reference = run_dir_fingerprint(first[1].run_dir)
        shutil.rmtree(first[1].run_dir)
        SweepRunner.resume(base_dir)
        assert run_dir_fingerprint(first[1].run_dir) == reference

    def test_resume_reruns_cell_whose_spec_changed(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        results = run_sweep([_fast_spec()], base_dir=base_dir)
        run_dir = results[0].run_dir
        # tamper: the recorded spec no longer matches the manifest cell
        other = _fast_spec(seed=5)
        other.save(os.path.join(run_dir, "spec.json"))
        before = _metrics_mtimes(base_dir)
        resumed = SweepRunner.resume(base_dir)
        assert resumed[0].status == "completed"
        assert _metrics_mtimes(base_dir) != before     # re-executed
        # and the re-run restored the manifest's spec
        with open(os.path.join(run_dir, "spec.json")) as fh:
            assert ExperimentSpec.from_dict(json.load(fh)) == \
                results[0].spec

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="sweep.json"):
            SweepRunner.resume(str(tmp_path))

    def test_resume_noop_when_all_valid(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        run_sweep(expand_grid(_fast_spec(), seeds=[0, 1]),
                  base_dir=base_dir)
        before = _metrics_mtimes(base_dir)
        results = SweepRunner.resume(base_dir)
        assert [r.status for r in results] == ["completed"] * 2
        assert _metrics_mtimes(base_dir) == before

    def test_resume_can_override_workers(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = expand_grid(_fast_spec(), seeds=[0, 1])
        first = run_sweep(specs, base_dir=base_dir)
        reference = [run_dir_fingerprint(r.run_dir) for r in first]
        for r in first:
            shutil.rmtree(r.run_dir)
        resumed = SweepRunner.resume(base_dir, workers=2)
        assert [r.status for r in resumed] == ["completed"] * 2
        assert [run_dir_fingerprint(r.run_dir) for r in resumed] == \
            reference


# --------------------------------------------------------------------- #
# atomic run-dir claims
# --------------------------------------------------------------------- #

class TestAtomicClaims:
    def test_concurrent_claimants_get_distinct_dirs(self, tmp_path):
        """The collision-suffix race: N claimants, N distinct dirs."""
        base_dir = str(tmp_path / "sweep")
        with ThreadPoolExecutor(max_workers=8) as pool:
            claims = list(pool.map(
                lambda _: claim_run_dir(base_dir, "cell"), range(8)))
        names = sorted(name for name, _ in claims)
        paths = {path for _, path in claims}
        assert len(paths) == 8                  # nobody shared a dir
        assert names == sorted(
            ["cell"] + [f"cell-{i}" for i in range(2, 9)])
        for _, path in claims:
            assert os.path.isdir(path)

    def test_repeated_sweeps_never_clobber(self, tmp_path):
        """A second sweep into the same base dir claims fresh dirs."""
        base_dir = str(tmp_path / "sweep")
        spec = _fast_spec()
        first = run_sweep([spec], base_dir=base_dir)
        fingerprint = run_dir_fingerprint(first[0].run_dir)
        second = run_sweep([spec], base_dir=base_dir)
        assert second[0].run_dir != first[0].run_dir
        assert os.path.basename(second[0].run_dir) == \
            "biasmf-tiny-seed0-2"
        # the first run's artifact is untouched
        assert run_dir_fingerprint(first[0].run_dir) == fingerprint
        # and the manifest keeps both sweeps' cells (merge, not clobber)
        names = sorted(c["name"]
                       for c in read_sweep_manifest(base_dir)["cells"])
        assert names == ["biasmf-tiny-seed0", "biasmf-tiny-seed0-2"]

    def test_second_sweep_merges_manifest(self, tmp_path):
        """Reusing a base dir must not erase the earlier sweep's cells
        from the manifest (and therefore from resume/aggregation)."""
        base_dir = str(tmp_path / "sweep")
        run_sweep([_fast_spec()], base_dir=base_dir)
        run_sweep([_fast_spec(seed=1)], base_dir=base_dir)
        manifest = read_sweep_manifest(base_dir)
        names = sorted(c["name"] for c in manifest["cells"])
        assert names == ["biasmf-tiny-seed0", "biasmf-tiny-seed1"]
        assert all(c["status"] == "completed"
                   for c in manifest["cells"])
        # aggregation and resume cover the union
        report = aggregate_results(base_dir, write=False)
        assert sorted(r["name"] for r in report.rows) == names
        results = SweepRunner.resume(base_dir)
        assert len(results) == 2
        assert [r.status for r in results] == ["completed"] * 2

    def test_racing_sweep_manifest_keeps_union(self, tmp_path,
                                               monkeypatch):
        """A sweep finishing while another runs must not erase the
        other's manifest cells (read-merge-write at write time)."""
        from repro.api import write_sweep_manifest
        base_dir = str(tmp_path / "sweep")
        runner = SweepRunner([_fast_spec()], base_dir=base_dir)
        other = {"name": "other-cell", "spec": _fast_spec(seed=7).to_dict(),
                 "status": "completed", "error": None}
        original = runner._run_sequential

        def concurrent_finish(*args, **kwargs):
            # a racing sweep rewrites the manifest mid-flight with only
            # its own cell; our final merge must restore the union
            write_sweep_manifest(base_dir, [other], None)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "_run_sequential", concurrent_finish)
        runner.run()
        names = sorted(c["name"]
                       for c in read_sweep_manifest(base_dir)["cells"])
        assert names == ["biasmf-tiny-seed0", "other-cell"]

    def test_in_sweep_collisions_get_suffixes(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        spec = _fast_spec()
        results = run_sweep([spec, spec], base_dir=base_dir, workers=2)
        dirs = sorted(os.path.basename(r.run_dir) for r in results)
        assert dirs == ["biasmf-tiny-seed0", "biasmf-tiny-seed0-2"]


# --------------------------------------------------------------------- #
# manifest + aggregation
# --------------------------------------------------------------------- #

class TestManifestAndAggregation:
    def test_manifest_records_cells_and_final_statuses(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = [_crashing_spec(seed=9)] + \
            expand_grid(_fast_spec(), seeds=[0, 1])
        run_sweep(specs, base_dir=base_dir, workers=2)
        manifest = read_sweep_manifest(base_dir)
        assert manifest["schema"] == "sweep/v1"
        assert manifest["workers"] == 2
        assert [c["status"] for c in manifest["cells"]] == \
            ["failed", "completed", "completed"]
        assert "fail_after_epoch" in manifest["cells"][0]["error"]
        for cell in manifest["cells"]:
            assert ExperimentSpec.from_dict(cell["spec"])  # valid echo

    def test_aggregate_table_and_artifacts(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = [_crashing_spec(seed=9)] + \
            expand_grid(_fast_spec(), seeds=[0, 1])
        run_sweep(specs, base_dir=base_dir)
        report = aggregate_results(base_dir)
        assert len(report.rows) == 3
        assert report.metric == "recall@20"
        by_status = {row["status"] for row in report.rows}
        assert by_status == {"failed", "completed"}
        completed = report.completed
        assert len(completed) == 2
        # ranked best-first by the primary metric
        assert completed[0]["recall@20"] >= completed[1]["recall@20"]
        assert len(report.failed) == 1

        # artifacts on disk
        assert os.path.exists(os.path.join(base_dir, "results.csv"))
        with open(os.path.join(base_dir, "leaderboard.md")) as fh:
            text = fh.read()
        assert "Ranked by **recall@20**" in text
        assert "## Failed cells" in text
        assert "RuntimeError" in text

    def test_csv_is_tidy_one_row_per_cell(self, tmp_path):
        import csv as _csv
        base_dir = str(tmp_path / "sweep")
        run_sweep(expand_grid(_fast_spec(), seeds=[0, 1]),
                  base_dir=base_dir)
        with open(os.path.join(base_dir, "results.csv"), newline="") as fh:
            rows = list(_csv.DictReader(fh))
        assert len(rows) == 2
        assert {"name", "model", "dataset", "seed", "status",
                "recall@20"} <= set(rows[0])
        assert rows[0]["status"] == "completed"
        assert float(rows[0]["recall@20"]) > 0

    def test_aggregate_without_manifest_scans_dirs(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        run_sweep(expand_grid(_fast_spec(), seeds=[0, 1]),
                  base_dir=base_dir)
        os.remove(os.path.join(base_dir, "sweep.json"))
        report = aggregate_results(base_dir, write=False)
        assert len(report.rows) == 2
        assert report.artifacts == {}

    def test_run_dir_is_complete_contract(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        spec = _fast_spec()
        results = run_sweep([spec], base_dir=base_dir)
        run_dir = results[0].run_dir
        assert run_dir_is_complete(run_dir)
        assert run_dir_is_complete(run_dir, spec)
        assert not run_dir_is_complete(run_dir, _fast_spec(seed=5))
        assert not run_dir_is_complete(str(tmp_path / "nowhere"))
        # legacy dirs (pre-status-stamping) validate via the best event
        os.remove(os.path.join(run_dir, "status.json"))
        assert run_dir_is_complete(run_dir, spec)
