"""Tests for the dispatch subsystem (``repro.dispatch``).

Acceptance contract of the dispatch PR:

* the filesystem broker's state transitions are atomic renames — two
  workers racing to one cell produce exactly one claim;
* leases expire only when *both* clocks agree (the owner's wall-clock
  deadline and the lease file's mtime age on the broker's filesystem),
  retries carry attempt counts with exponential backoff, and
  ``max_attempts`` dead-letters;
* a dispatched sweep's run directories are bit-identical
  (``run_dir_fingerprint``) to the sequential ``run_sweep`` baseline —
  including when a worker is SIGKILLed mid-cell and its cell retries on
  another worker (the chaos test);
* the heartbeat satellites: configurable cadence
  (``TrainConfig.heartbeat_seconds`` / ``REPRO_HEARTBEAT_SECONDS``), the
  monotonic-safe timestamp pair, the listener hook, and the
  ``REPRO_FAULT_KILL_AFTER_EPOCH`` hard-kill fault injector.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (Experiment, ExperimentSpec, aggregate_results,
                       expand_grid, read_sweep_manifest, run_dir_fingerprint,
                       run_sweep)
from repro.api.rundir import heartbeat_cadence, read_status, write_heartbeat
from repro.cli import main as cli_main
from repro.dispatch import (DEAD, DONE, FAILED, LEASED, PENDING,
                            DispatchWorker, QueueBroker, collect_results,
                            enqueue_sweep, launch_worker, make_task,
                            wait_for_queue)

FAST_TRAIN = {"epochs": 2, "batch_size": 128, "eval_every": 2}


def _fast_spec(model="biasmf", dataset="tiny", **overrides):
    base = dict(model=model, dataset=dataset,
                model_config={"embedding_dim": 8},
                train_config=dict(FAST_TRAIN))
    base.update(overrides)
    return ExperimentSpec(**base)


def _drain_worker(sweep_dir, **kwargs):
    kwargs.setdefault("drain_when_empty", True)
    kwargs.setdefault("poll_interval", 0.05)
    return DispatchWorker(str(sweep_dir), **kwargs)


def _backdate_lease(broker, name, seconds=3600.0):
    """Make a lease look long-dead on both clocks (wall + file mtime)."""
    task = broker.read_task(LEASED, name)
    task["lease"]["deadline"] = time.time() - seconds
    path = broker._path(LEASED, name)
    with open(path, "w") as handle:
        json.dump(task, handle)
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


# --------------------------------------------------------------------- #
# broker state machine
# --------------------------------------------------------------------- #

class TestBroker:
    def test_enqueue_claim_ack_lifecycle(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        assert broker.enqueue(make_task("a", {"x": 1}))
        assert broker.names(PENDING) == ["a"]
        task = broker.claim("w1")
        assert task["name"] == "a"
        assert task["lease"]["worker"] == "w1"
        assert broker.names(LEASED) == ["a"]
        broker.ack_done("a", {"status": "completed", "artifacts": {}})
        assert broker.names(DONE) == ["a"]
        assert broker.settled()

    def test_enqueue_is_idempotent_across_states(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        task = make_task("a", {})
        assert broker.enqueue(task)
        assert not broker.enqueue(task)         # still pending
        broker.claim("w1")
        assert not broker.enqueue(task)         # leased
        broker.ack_done("a")
        assert not broker.enqueue(task)         # done: never re-runs
        assert broker.names(PENDING) == []

    def test_claim_race_has_exactly_one_winner(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("only", {}))
        with ThreadPoolExecutor(max_workers=8) as pool:
            claims = list(pool.map(
                lambda i: broker.claim(f"w{i}"), range(8)))
        winners = [c for c in claims if c is not None]
        assert len(winners) == 1
        assert broker.names(LEASED) == ["only"]

    def test_bad_max_attempts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            make_task("a", {}, max_attempts=0)

    def test_make_task_record_carries_only_the_cell_fields(self):
        task = make_task("a", {"x": 1}, max_attempts=2, retry_backoff=0.5)
        assert task == {"schema": "dispatch-task/v1", "name": "a",
                        "payload": {"x": 1}, "attempts": 0,
                        "max_attempts": 2, "retry_backoff": 0.5,
                        "not_before": None, "lease": None,
                        "result": None, "error": None}

    def test_renew_refreshes_lease_and_checks_ownership(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}))
        broker.claim("owner", ttl=5.0)
        before = broker.read_task(LEASED, "a")["lease"]["deadline"]
        time.sleep(0.05)
        assert broker.renew("a", "owner")
        after = broker.read_task(LEASED, "a")["lease"]["deadline"]
        assert after > before
        assert not broker.renew("a", "thief")   # not the owner
        assert not broker.renew("missing", "owner")

    def test_lease_needs_both_clocks_stale_to_expire(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}))
        task = broker.claim("w1", ttl=60.0)
        # wall deadline passed but the lease file's mtime is fresh (a
        # live worker with a skewed clock): must NOT expire.  Rewriting
        # the file refreshes its mtime, exactly like a renewal would.
        stale_wall = broker.read_task(LEASED, "a")
        stale_wall["lease"]["deadline"] = time.time() - 3600.0
        with open(broker._path(LEASED, "a"), "w") as handle:
            json.dump(stale_wall, handle)
        assert not broker.lease_expired(broker.read_task(LEASED, "a"))
        assert broker.reap_expired() == []
        # now both clocks agree it is dead
        _backdate_lease(broker, "a")
        assert broker.reap_expired() == ["a"]
        requeued = broker.read_task(PENDING, "a")
        assert requeued["attempts"] == 1
        archive = os.path.join(broker.queue_dir, "failed",
                               "a.attempt-1.json")
        with open(archive) as handle:
            postmortem = json.load(handle)
        assert "lease expired" in postmortem["error"]
        assert postmortem["worker"] == "w1"
        assert task["name"] == "a"

    def test_retry_backoff_gates_reclaim(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}, retry_backoff=30.0))
        broker.claim("w1")
        broker.ack_failed("a", "boom")
        # attempt 1 failed; not_before is ~30s out on the broker clock
        assert broker.claim("w2") is None
        task = broker.read_task(PENDING, "a")
        task["not_before"] = broker.broker_now() - 1.0
        with open(broker._path(PENDING, "a"), "w") as handle:
            json.dump(task, handle)
        assert broker.claim("w2")["name"] == "a"

    def test_backing_off_cell_does_not_block_a_ready_one(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}, retry_backoff=30.0))
        broker.claim("w1")
        broker.ack_failed("a", "boom")          # "a" sorts first, waits
        broker.enqueue(make_task("b", {}))
        assert [(cell["name"], cell["ready"])
                for cell in broker.status()["pending"]] == \
            [("a", False), ("b", True)]
        assert broker.claim("w2")["name"] == "b"
        assert broker.claim("w2") is None

    def test_dead_letter_after_max_attempts(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}, max_attempts=2,
                                 retry_backoff=0.0))
        for attempt in (1, 2):
            assert broker.claim("w1")["name"] == "a"
            broker.ack_failed("a", f"boom {attempt}")
        assert broker.names(DEAD) == ["a"]
        dead = broker.read_task(DEAD, "a")
        assert dead["attempts"] == 2
        assert dead["error"] == "boom 2"
        # the per-attempt archive kept both post-mortems
        archive = os.listdir(os.path.join(broker.queue_dir, "failed"))
        assert sorted(archive) == ["a.attempt-1.json", "a.attempt-2.json"]
        assert broker.claim("w1") is None

    def test_done_duplicate_lease_is_swept_not_retried(self, tmp_path):
        # crash window in ack_done: done record written, lease unlink
        # lost — the reaper must drop the duplicate, not re-run the cell
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}))
        broker.claim("w1")
        task = broker.read_task(LEASED, "a")
        with open(broker._path(DONE, "a"), "w") as handle:
            json.dump(dict(task, result={"status": "completed"}), handle)
        _backdate_lease(broker, "a")
        assert broker.reap_expired() == []
        assert broker.names(LEASED) == []
        assert broker.names(DONE) == ["a"]

    def test_drain_sentinel_and_status_snapshot(self, tmp_path,
                                                monkeypatch):
        broker = QueueBroker(str(tmp_path))
        for name in ("a", "b"):
            broker.enqueue(make_task(name, {}, retry_backoff=30.0))
            broker.claim("w0")
            broker.ack_failed(name, "boom")     # backing off for ~30 s
        broker.enqueue(make_task("c", {}))
        broker.claim("w1", ttl=9.0)
        clock_reads = []
        now = broker.broker_now
        monkeypatch.setattr(broker, "broker_now",
                            lambda: clock_reads.append(1) or now())
        status = broker.status()
        assert len(clock_reads) == 1            # one clock read per call
        assert status["counts"] == {"pending": 2, "leased": 1,
                                    "done": 0, "dead": 0}
        (lease,) = status["leases"]
        assert lease["name"] == "c"
        assert lease["worker"] == "w1" and lease["ttl"] == 9.0
        assert [(cell["name"], cell["ready"], cell["backoff_wait"],
                 cell["attempts"]) for cell in status["pending"]] == \
            [("a", False, True, 1), ("b", False, True, 1)]
        assert not status["drain_requested"]
        broker.drain()
        assert broker.drain_requested()
        assert _drain_worker(tmp_path).run() == 0   # exits immediately

    def test_status_requires_a_queue(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no dispatch queue"):
            QueueBroker(str(tmp_path / "nope")).status()

    def test_dead_letter_keeps_failed_summary(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}, max_attempts=1))
        broker.claim("w1")
        summary = {"status": "failed", "error": "boom"}
        broker.ack_failed("a", "boom", result=summary)
        dead = broker.read_task(DEAD, "a")
        assert dead["error"] == "boom"
        assert dead["result"] == summary

    def test_forget_lets_a_dead_name_be_enqueued_again(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        task = make_task("a", {}, max_attempts=1)
        broker.enqueue(task)
        broker.enqueue(make_task("a2", {}))
        broker.claim("w1")
        broker.ack_failed("a", "boom")
        assert not broker.enqueue(task)         # dead: a no-op
        broker.forget("a")
        broker.forget("never-enqueued")         # nothing to delete
        assert broker.names(DEAD) == []
        assert os.listdir(os.path.join(broker.queue_dir, "failed")) == []
        assert broker.names(PENDING) == ["a2"]  # other names untouched
        assert broker.enqueue(task)
        assert broker.names(PENDING) == ["a", "a2"]

    def test_remove_if_empty_keeps_a_queue_in_use(self, tmp_path):
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("a", {}))
        assert not broker.remove_if_empty()     # a record remains
        broker.forget("a")
        broker.drain()
        assert not broker.remove_if_empty()     # a drain is requested
        os.unlink(os.path.join(broker.queue_dir, "DRAIN"))
        broker.broker_now()                     # leaves the clock probe
        assert broker.remove_if_empty()
        assert not os.path.exists(broker.queue_dir)
        assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------- #
# dispatched sweeps: parity, retries, merge
# --------------------------------------------------------------------- #

class TestDispatchedSweep:
    def test_dispatched_matches_sequential_fingerprints(self, tmp_path):
        specs = expand_grid(_fast_spec(), seeds=[0, 1])
        seq_dir = str(tmp_path / "seq")
        seq = run_sweep(list(specs), base_dir=seq_dir)
        disp_dir = str(tmp_path / "disp")
        names = enqueue_sweep(list(specs), disp_dir)
        assert _drain_worker(disp_dir).run() == 2
        assert wait_for_queue(disp_dir, timeout=5.0)
        results = collect_results(disp_dir)
        assert [r.status for r in results] == ["completed"] * 2
        by_name = {os.path.basename(r.run_dir): r for r in results}
        assert sorted(by_name) == sorted(names)
        for r_seq in seq:
            name = os.path.basename(r_seq.run_dir)
            assert run_dir_fingerprint(r_seq.run_dir) == \
                run_dir_fingerprint(by_name[name].run_dir)
            assert r_seq.metrics == by_name[name].metrics
        # the ordinary sweep surface sees the dispatched sweep: manifest
        # statuses merged, aggregation artifacts written
        manifest = read_sweep_manifest(disp_dir)
        assert {c["status"] for c in manifest["cells"]} == {"completed"}
        report = aggregate_results(disp_dir)
        assert os.path.exists(report.artifacts["results_csv"])

    def test_failed_cell_retries_then_dead_letters(self, tmp_path):
        crashing = _fast_spec(train_config={**FAST_TRAIN,
                                            "fail_after_epoch": 1})
        disp_dir = str(tmp_path / "disp")
        (name,) = enqueue_sweep([crashing], disp_dir, max_attempts=2,
                                retry_backoff=0.0)
        _drain_worker(disp_dir).run()
        assert wait_for_queue(disp_dir, timeout=5.0)
        broker = QueueBroker(disp_dir)
        assert broker.names(DEAD) == [name]
        assert broker.read_task(DEAD, name)["attempts"] == 2
        (result,) = collect_results(disp_dir)
        assert result.failed
        assert "injected training failure" in result.error
        # the run dir keeps a diagnosable failure record
        status = read_status(result.run_dir)
        assert status["status"] == "failed"
        manifest = read_sweep_manifest(disp_dir)
        assert manifest["cells"][0]["status"] == "failed"

    def test_non_spec_task_fails_the_spec_check_then_dead_letters(
            self, tmp_path):
        # a task file from an older queue format: its payload is not an
        # ExperimentSpec, so run_cell fails it like any other bad cell
        broker = QueueBroker(str(tmp_path))
        task = make_task("publish", {"source": "a.npz", "path": "b.npz"},
                         max_attempts=2, retry_backoff=0.0)
        broker.enqueue(dict(task, kind="snapshot", after=["train"]))
        assert _drain_worker(tmp_path).run() == 2
        dead = broker.read_task(DEAD, "publish")
        assert dead["attempts"] == 2
        assert "unknown ExperimentSpec field" in dead["error"]

    def test_worker_hands_the_payload_straight_to_run_cell(
            self, tmp_path, monkeypatch):
        import repro.dispatch.worker as worker_module
        calls = []

        def fake_run_cell(spec_dict, run_dir, verbose=None,
                          dataset_cache=None):
            calls.append((spec_dict, run_dir, os.path.isdir(run_dir)))
            return {"status": "completed", "metrics": {"x": 1.0}}

        monkeypatch.setattr(worker_module, "run_cell", fake_run_cell)
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("cell", {"model": "biasmf"}))
        assert _drain_worker(tmp_path).run() == 1
        assert calls == [({"model": "biasmf"},
                          os.path.join(str(tmp_path), "cell"), True)]
        assert broker.read_task(DONE, "cell")["result"]["metrics"] == \
            {"x": 1.0}

    def test_raising_cell_is_acked_failed_with_its_traceback(
            self, tmp_path, monkeypatch):
        import repro.dispatch.worker as worker_module

        def exploding_run_cell(spec_dict, run_dir, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(worker_module, "run_cell", exploding_run_cell)
        broker = QueueBroker(str(tmp_path))
        broker.enqueue(make_task("cell", {}, max_attempts=1))
        assert _drain_worker(tmp_path).run() == 1
        dead = broker.read_task(DEAD, "cell")
        assert dead["error"] == "RuntimeError: disk on fire"
        assert broker.names(LEASED) == []
        with open(os.path.join(broker.queue_dir, FAILED,
                               "cell.attempt-1.json")) as handle:
            archived = json.load(handle)
        assert "disk on fire" in archived["traceback"]

    def test_completed_run_dir_is_adopted_not_rerun(self, tmp_path):
        # previous owner finished the work but died before acking: the
        # next claimant must ack the persisted summary without training
        spec = _fast_spec()
        disp_dir = str(tmp_path / "disp")
        (name,) = enqueue_sweep([spec], disp_dir)
        run_dir = os.path.join(disp_dir, name)
        Experiment(spec).run(run_dir=run_dir)
        mtime = os.stat(os.path.join(run_dir, "metrics.jsonl")).st_mtime_ns
        _drain_worker(disp_dir).run()
        assert os.stat(os.path.join(run_dir,
                                    "metrics.jsonl")).st_mtime_ns == mtime
        (result,) = collect_results(disp_dir)
        assert result.status == "completed"

    def test_worker_loads_each_dataset_once(self, tmp_path, monkeypatch):
        import repro.api.experiment as experiment
        loads = []
        resolve = experiment.resolve_dataset
        monkeypatch.setattr(
            experiment, "resolve_dataset",
            lambda name, **kw: loads.append(name) or resolve(name, **kw))
        disp_dir = str(tmp_path / "disp")
        enqueue_sweep(expand_grid(_fast_spec(),
                                  models=["biasmf", "lightgcn"]), disp_dir)
        assert DispatchWorker(disp_dir, max_tasks=2).run() == 2
        assert loads == ["tiny"]

    def test_worker_renews_lease_while_a_task_runs(self, tmp_path):
        """A cell that runs for several lease TTLs without a heartbeat
        keeps its lease against a concurrent reaper: the worker's
        keepalive renews it, and nothing renews after the ack."""
        disp_dir = str(tmp_path / "disp")
        slow = _fast_spec(
            model="lightgcn", dataset="gowalla",
            model_config={"embedding_dim": 32},
            train_config={"epochs": 10, "batch_size": 256,
                          "eval_every": 10, "heartbeat_seconds": 3600})
        (name,) = enqueue_sweep([slow], disp_dir, max_attempts=1)
        worker = _drain_worker(disp_dir, lease_ttl=0.3)
        renewals = []
        renew = worker.broker.renew
        worker.broker.renew = lambda n, w: renewals.append(n) or renew(n, w)
        stop = threading.Event()

        def reap():
            reaper = QueueBroker(disp_dir)
            while not stop.wait(0.05):
                reaper.reap_expired()

        reaper = threading.Thread(target=reap)
        reaper.start()
        try:
            assert worker.run() == 1
        finally:
            stop.set()
            reaper.join()
        broker = QueueBroker(disp_dir)
        assert broker.names(DONE) == [name]
        assert broker.read_task(DONE, name)["result"]["status"] == \
            "completed"
        assert len(renewals) >= 2 and set(renewals) == {name}
        count = len(renewals)
        time.sleep(0.3)
        assert len(renewals) == count       # the keepalive has stopped

    def test_worker_rejects_a_non_positive_lease_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            DispatchWorker(str(tmp_path), lease_ttl=0)


# --------------------------------------------------------------------- #
# heartbeat satellites
# --------------------------------------------------------------------- #

class TestHeartbeatSatellites:
    def test_cadence_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_SECONDS", raising=False)
        assert heartbeat_cadence() == 0.0
        assert heartbeat_cadence(2.5) == 2.5
        assert heartbeat_cadence(-1.0) == 0.0      # clamped
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "7")
        assert heartbeat_cadence() == 7.0
        assert heartbeat_cadence(1.0) == 1.0       # config wins over env
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "soon")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT_SECONDS"):
            heartbeat_cadence()

    def test_heartbeat_writes_monotonic_pair(self, tmp_path):
        run_dir = str(tmp_path)
        write_heartbeat(run_dir, epoch=3)
        status = read_status(run_dir)
        assert status["status"] == "running"
        assert status["epoch"] == 3
        assert status["last_heartbeat"] > 0
        assert status["heartbeat_monotonic"] > 0

    def test_large_cadence_suppresses_epoch_heartbeats(self, tmp_path):
        throttled = _fast_spec(train_config={**FAST_TRAIN,
                                             "heartbeat_seconds": 3600.0})
        run_dir = str(tmp_path / "throttled")
        Experiment(throttled).run(run_dir=run_dir)
        status = read_status(run_dir)
        assert status["status"] == "completed"
        # only the fit-start stamp landed; no per-epoch re-stamp
        assert status["epoch"] == 0
        stamping = _fast_spec()                    # cadence 0: every epoch
        run_dir2 = str(tmp_path / "stamping")
        Experiment(stamping).run(run_dir=run_dir2)
        status2 = read_status(run_dir2)
        assert status2["epoch"] == FAST_TRAIN["epochs"]
        assert status2["heartbeat_monotonic"] > 0

    def test_fingerprint_normalizes_heartbeat_seconds(self, tmp_path):
        plain = _fast_spec()
        throttled = _fast_spec(train_config={**FAST_TRAIN,
                                             "heartbeat_seconds": 999.0})
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        Experiment(plain).run(run_dir=dir_a)
        Experiment(throttled).run(run_dir=dir_b)
        assert run_dir_fingerprint(dir_a) == run_dir_fingerprint(dir_b)

    def test_kill_after_epoch_hard_kills_process(self, tmp_path):
        code = (
            "from repro.api import Experiment, ExperimentSpec\n"
            "spec = ExperimentSpec(model='biasmf', dataset='tiny',\n"
            "                      model_config={'embedding_dim': 8},\n"
            "                      train_config={'epochs': 4})\n"
            f"Experiment(spec).run(run_dir={str(tmp_path / 'rd')!r})\n")
        env = dict(os.environ,
                   PYTHONPATH=_repro_pythonpath(),
                   REPRO_FAULT_KILL_AFTER_EPOCH="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120)
        assert proc.returncode == 137               # os._exit, not a raise
        # the fit died mid-cell: heartbeat from epoch 1, no terminal state
        status = read_status(str(tmp_path / "rd"))
        assert status["status"] == "running"
        assert status["epoch"] == 1


def _repro_pythonpath() -> str:
    import repro
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return os.pathsep.join(p for p in (root, existing) if p)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

class TestCli:
    def test_worker_command_drains_queue(self, tmp_path, capsys):
        disp_dir = str(tmp_path)
        enqueue_sweep([_fast_spec()], disp_dir)
        code = cli_main(["worker", disp_dir, "--drain-when-empty",
                         "--poll-interval", "0.05"])
        assert code == 0
        assert "1 task(s) executed" in capsys.readouterr().out
        assert QueueBroker(disp_dir).names(DONE)

    def test_sweep_status_reports_and_flags_dead_letters(self, tmp_path,
                                                         capsys):
        disp_dir = str(tmp_path)
        broker = QueueBroker(disp_dir)
        broker.enqueue(make_task("cell-a", {}, max_attempts=1))
        broker.enqueue(make_task("retrying", {}, max_attempts=2,
                                 retry_backoff=3600.0))
        broker.claim("w1", ttl=9.0)                # claims cell-a
        broker.claim("w2")                         # claims retrying ...
        broker.ack_failed("retrying", "boom once")  # ... backs off 1 h
        assert cli_main(["sweep-status", disp_dir]) == 0
        out = capsys.readouterr().out
        assert "1 pending, 1 leased" in out
        assert "w1" in out                         # lease owner shown
        assert "retrying: retry backoff (attempt 2)" in out
        # dead-letter the leased cell: exit code flips to 1
        broker.ack_failed("cell-a", "boom final")
        assert cli_main(["sweep-status", disp_dir]) == 1
        out = capsys.readouterr().out
        assert "dead letters" in out
        assert "boom final" in out

    def test_cli_and_api_import_without_loading_dispatch(self):
        # dispatch is imported lazily by the commands that need it
        code = ("import sys, repro, repro.api, repro.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.dispatch')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
             os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_sweep_status_json_mode(self, tmp_path, capsys):
        disp_dir = str(tmp_path)
        enqueue_sweep([_fast_spec()], disp_dir)
        assert cli_main(["sweep-status", disp_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["pending"] == 1


# --------------------------------------------------------------------- #
# chaos: SIGKILLed worker, cross-process retry, fingerprint parity
# --------------------------------------------------------------------- #

@pytest.mark.chaos
class TestChaos:
    def test_sigkilled_worker_retries_elsewhere_bit_identical(self,
                                                              tmp_path):
        """Acceptance: 8-cell gowalla grid over >=2 worker processes, one
        SIGKILLed mid-cell; every cell completes and the merged sweep is
        bit-identical to the sequential baseline."""
        specs = expand_grid(
            _fast_spec(dataset="gowalla",
                       train_config={"epochs": 3, "batch_size": 256,
                                     "eval_every": 3}),
            models=["biasmf", "lightgcn"], seeds=[0, 1, 2, 3])
        assert len(specs) == 8
        seq_dir = str(tmp_path / "seq")
        seq = run_sweep(list(specs), base_dir=seq_dir)
        assert [r.status for r in seq] == ["completed"] * 8

        disp_dir = str(tmp_path / "disp")
        names = enqueue_sweep(list(specs), disp_dir, max_attempts=3)
        broker = QueueBroker(disp_dir)

        # doomed worker first: it claims a cell, heartbeats epoch 1, and
        # is hard-killed (os._exit(137)) before the cell can finish
        doomed = launch_worker(
            disp_dir, worker_id="doomed", lease_ttl=1.0,
            extra_env={"REPRO_FAULT_KILL_AFTER_EPOCH": "1"})
        deadline = time.time() + 60
        while not broker.names(LEASED) and time.time() < deadline:
            time.sleep(0.05)
        assert broker.names(LEASED), "doomed worker never claimed a cell"

        survivor = launch_worker(disp_dir, worker_id="survivor",
                                 lease_ttl=5.0)
        assert doomed.wait(timeout=120) == 137      # SIGKILL-style death
        assert survivor.wait(timeout=300) == 0
        assert wait_for_queue(disp_dir, timeout=30.0)

        done = broker.names(DONE)
        assert sorted(done) == sorted(names)        # nothing dead-lettered
        retried = [n for n in done
                   if broker.read_task(DONE, n)["attempts"] >= 1]
        assert retried, "the killed cell never went through the retry path"
        for record in (broker.read_task(DONE, n) for n in retried):
            assert record["result"]["status"] == "completed"

        results = collect_results(disp_dir)
        by_name = {os.path.basename(r.run_dir): r for r in results}
        for r_seq in seq:
            name = os.path.basename(r_seq.run_dir)
            assert run_dir_fingerprint(r_seq.run_dir) == \
                run_dir_fingerprint(by_name[name].run_dir), name
            assert r_seq.metrics == by_name[name].metrics
