"""Tests for the command-line interface (a thin shell over repro.api)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "graphaug" in out
        assert "lightgcn" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gowalla" in out
        assert "retail_rocket" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "nope",
                                       "--dataset", "gowalla"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTrainEvaluate:
    def test_train_on_tsv(self, tmp_path, capsys):
        from repro.data import save_tsv, tiny_dataset
        tsv = str(tmp_path / "edges.tsv")
        save_tsv(tiny_dataset(seed=9, num_users=40, num_items=30), tsv)
        ckpt = str(tmp_path / "best.npz")
        hist = str(tmp_path / "history.csv")
        code = main(["train", "--model", "biasmf", "--dataset", tsv,
                     "--epochs", "2", "--batch-size", "64",
                     "--eval-every", "2", "--dim", "8",
                     "--checkpoint", ckpt, "--history", hist, "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@20" in out
        import os
        assert os.path.exists(ckpt)
        assert os.path.exists(hist)

    def test_evaluate_checkpoint(self, tmp_path, capsys):
        from repro.data import save_tsv, tiny_dataset
        tsv = str(tmp_path / "edges.tsv")
        save_tsv(tiny_dataset(seed=9, num_users=40, num_items=30), tsv)
        ckpt = str(tmp_path / "best.npz")
        main(["train", "--model", "biasmf", "--dataset", tsv,
              "--epochs", "2", "--batch-size", "64", "--eval-every", "2",
              "--dim", "8", "--checkpoint", ckpt, "--quiet"])
        capsys.readouterr()
        code = main(["evaluate", "--model", "biasmf", "--dataset", tsv,
                     "--dim", "8", "--checkpoint", ckpt])
        assert code == 0
        assert "recall@20" in capsys.readouterr().out


class TestRecommend:
    def test_train_then_serve_roundtrip(self, tmp_path, capsys):
        import json
        import os
        from repro.data import save_tsv, tiny_dataset
        tsv = str(tmp_path / "edges.tsv")
        save_tsv(tiny_dataset(seed=9, num_users=40, num_items=30), tsv)
        snap = str(tmp_path / "serve.npz")
        out = str(tmp_path / "topk.json")
        # first call trains and writes the snapshot
        code = main(["recommend", "--snapshot", snap, "--model", "biasmf",
                     "--dataset", tsv, "--epochs", "2", "--batch-size",
                     "64", "--dim", "8", "--users", "0,3,7", "--k", "5",
                     "--output", out, "--quiet"])
        assert code == 0
        assert os.path.exists(snap)
        payload = json.loads(open(out).read())
        assert payload["model"] == "biasmf"
        assert sorted(payload["recommendations"]) == ["0", "3", "7"]
        assert all(len(v) == 5 for v in
                   payload["recommendations"].values())
        capsys.readouterr()
        # second call serves the existing snapshot, no dataset needed
        code = main(["recommend", "--snapshot", snap, "--users", "3",
                     "--k", "5"])
        assert code == 0
        served = json.loads(
            capsys.readouterr().out.split("\n", 1)[1])
        assert served["recommendations"]["3"] \
            == payload["recommendations"]["3"]

    def test_missing_snapshot_without_model_fails(self, tmp_path):
        code = main(["recommend", "--snapshot",
                     str(tmp_path / "none.npz")])
        assert code == 2

    def test_ann_backend_roundtrip(self, tmp_path, capsys):
        import json
        import os
        from repro.data import save_tsv, tiny_dataset
        tsv = str(tmp_path / "edges.tsv")
        save_tsv(tiny_dataset(seed=9, num_users=40, num_items=30), tsv)
        snap = str(tmp_path / "serve.npz")
        # train + write the snapshot through the exact path first
        # (lightgcn: ANN needs a model under the embedding-dot contract)
        assert main(["recommend", "--snapshot", snap, "--model",
                     "lightgcn", "--dataset", tsv, "--epochs", "2",
                     "--batch-size", "64", "--dim", "8", "--layers", "2",
                     "--users", "0,3,7", "--k", "5", "--quiet"]) == 0
        assert os.path.exists(snap)
        exact = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        # serve the same artifact through the ANN index, memory-mapped;
        # at 30 items the index degrades to the exact scan, so the
        # round trip must agree list-for-list
        assert main(["recommend", "--snapshot", snap, "--users", "0,3,7",
                     "--k", "5", "--backend", "ann", "--mmap"]) == 0
        out = capsys.readouterr().out
        assert "ann backend" in out
        ann = json.loads(out.split("\n", 1)[1])
        assert ann["recommendations"] == exact["recommendations"]


class TestRunCommand:
    """`repro run` specs and sweeps, and snapshot paths via `main()`."""

    def test_run_single_spec(self, tmp_path, capsys):
        spec = {"model": "biasmf", "dataset": "tiny",
                "model_config": {"embedding_dim": 8},
                "train_config": {"epochs": 2, "batch_size": 64,
                                 "eval_every": 2}}
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        assert main(["run", path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "biasmf-tiny-seed0" in out
        assert "recall@20" in out

    def test_run_sweep_writes_run_dirs(self, tmp_path, capsys):
        import os
        spec = {"model": "biasmf", "dataset": "tiny",
                "model_config": {"embedding_dim": 8},
                "train_config": {"epochs": 1, "batch_size": 64,
                                 "eval_every": 1}}
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        run_dir = str(tmp_path / "sweep")
        assert main(["run", path, "--run-dir", run_dir,
                     "--sweep-models", "biasmf,lightgcn",
                     "--quiet"]) == 0
        cells = sorted(d for d in os.listdir(run_dir)
                       if os.path.isdir(os.path.join(run_dir, d)))
        assert cells == ["biasmf-tiny-seed0", "lightgcn-tiny-seed0"]
        for cell in cells:
            assert os.path.exists(os.path.join(run_dir, cell,
                                               "spec.json"))
        # the sweep also leaves its manifest + aggregation artifacts
        assert {"sweep.json", "results.csv",
                "leaderboard.md"} <= set(os.listdir(run_dir))
        out = capsys.readouterr().out
        assert "leaderboard ->" in out

    def test_run_reproduces_train_metrics(self, tmp_path, capsys):
        """`repro run spec.json` == `repro train <flags>` bit-identically."""
        import re
        args = ["--model", "lightgcn", "--dataset", "tiny",
                "--epochs", "2", "--batch-size", "64",
                "--eval-every", "2", "--dim", "8", "--quiet"]
        assert main(["train"] + args) == 0
        train_out = capsys.readouterr().out

        spec = {"model": "lightgcn", "dataset": "tiny",
                "model_config": {"embedding_dim": 8, "num_layers": 3,
                                 "ssl_weight": 1.0, "temperature": 0.5,
                                 "edge_threshold": 0.2},
                "train_config": {"epochs": 2, "batch_size": 64,
                                 "eval_every": 2}}
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        assert main(["run", path, "--quiet"]) == 0
        run_out = capsys.readouterr().out

        def metrics_of(text):
            return dict(re.findall(r"(\w+@\d+)\s+([0-9.]+)", text))

        assert metrics_of(train_out) == metrics_of(run_out)

    def test_snapshot_path_without_extension(self, tmp_path, capsys):
        import os
        from repro.data import save_tsv, tiny_dataset
        tsv = str(tmp_path / "edges.tsv")
        save_tsv(tiny_dataset(seed=9, num_users=40, num_items=30), tsv)
        snap = str(tmp_path / "serve")  # no .npz — must still round-trip
        assert main(["recommend", "--snapshot", snap, "--model", "biasmf",
                     "--dataset", tsv, "--epochs", "1", "--batch-size",
                     "64", "--dim", "8", "--users", "0", "--k", "3",
                     "--quiet"]) == 0
        assert os.path.exists(snap + ".npz")
        capsys.readouterr()
        # second call must serve the artifact, not retrain
        assert main(["recommend", "--snapshot", snap, "--users", "0",
                     "--k", "3"]) == 0
        assert "dataset:" not in capsys.readouterr().out


class TestRunSweepEngine:
    """CLI wiring of the parallel/resumable sweep engine."""

    def _write_spec(self, tmp_path, **train_overrides):
        spec = {"model": "biasmf", "dataset": "tiny",
                "model_config": {"embedding_dim": 8},
                "train_config": {"epochs": 1, "batch_size": 64,
                                 "eval_every": 1, **train_overrides}}
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def test_run_with_workers_writes_identical_dirs(self, tmp_path,
                                                    capsys):
        import os
        from repro.api import run_dir_fingerprint
        path = self._write_spec(tmp_path)
        seq_dir = str(tmp_path / "seq")
        par_dir = str(tmp_path / "par")
        assert main(["run", path, "--run-dir", seq_dir,
                     "--sweep-seeds", "0,1", "--quiet"]) == 0
        assert main(["run", path, "--run-dir", par_dir,
                     "--sweep-seeds", "0,1", "--workers", "2",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "leaderboard ->" in out
        for cell in ("biasmf-tiny-seed0", "biasmf-tiny-seed1"):
            assert run_dir_fingerprint(os.path.join(seq_dir, cell)) == \
                run_dir_fingerprint(os.path.join(par_dir, cell))

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, fail_after_epoch=1)
        run_dir = str(tmp_path / "sweep")
        assert main(["run", path, "--run-dir", run_dir,
                     "--sweep-seeds", "0,1", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "--resume" in captured.err

    def test_resume_finishes_partial_sweep(self, tmp_path, capsys):
        import os
        import shutil
        path = self._write_spec(tmp_path)
        run_dir = str(tmp_path / "sweep")
        assert main(["run", path, "--run-dir", run_dir,
                     "--sweep-seeds", "0,1", "--quiet"]) == 0
        shutil.rmtree(os.path.join(run_dir, "biasmf-tiny-seed1"))
        capsys.readouterr()
        assert main(["run", "--resume", run_dir, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "leaderboard ->" in out
        assert os.path.exists(os.path.join(run_dir, "biasmf-tiny-seed1",
                                           "status.json"))

    def test_resume_rejects_spec_argument(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run", path, "--resume",
                     str(tmp_path / "sweep")]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_run_requires_spec_or_resume(self, capsys):
        assert main(["run"]) == 2
        assert "spec file" in capsys.readouterr().err

    def test_run_empty_spec_list_is_clean_error(self, tmp_path, capsys):
        path = str(tmp_path / "empty.json")
        with open(path, "w") as fh:
            fh.write("[]")
        assert main(["run", path]) == 2
        assert "empty spec list" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, names", [
        ({"model": "biasmf", "dataset": "tiny",
          "train_config": {"propagate_every": 3}}, "propagate_every"),
        ([{"dataset": "tiny"}], "model"),
        ("{not json", "Expecting"),
    ])
    def test_run_bad_spec_is_one_line_error(self, tmp_path, capsys,
                                            payload, names):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{path}: ")
        assert names in err


class TestTrace:
    """`repro trace` — summarize a Chrome-format trace.json."""

    def _write_trace(self, tmp_path, events):
        from repro.obs import chrome_trace
        path = str(tmp_path / "trace.json")
        with open(path, "w") as fh:
            json.dump(chrome_trace(events), fh)
        return path

    def test_summarizes_spans_and_pids(self, tmp_path, capsys):
        events = [
            {"name": "train.epoch", "ph": "X", "ts": 0.0, "dur": 2000.0,
             "pid": 100, "tid": 1, "args": {}},
            {"name": "train.epoch", "ph": "X", "ts": 2500.0, "dur": 4000.0,
             "pid": 100, "tid": 1, "args": {}},
            {"name": "experiment.run", "ph": "X", "ts": 100.0,
             "dur": 500.0, "pid": 200, "tid": 1, "args": {}},
            {"name": "process_name", "ph": "M", "pid": 200, "tid": 0,
             "args": {"name": "sweep-worker"}},
            {"name": "autograd.matmul", "ph": "C", "ts": 3000.0,
             "pid": 100, "tid": 0, "args": {"seconds": 0.5}},
        ]
        path = self._write_trace(tmp_path, events)
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "2 process(es)" in out
        assert "sweep-worker" in out
        assert "train.epoch" in out
        assert "autograd.matmul" in out
        # 2 epochs of 2ms + 4ms
        lines = [l for l in out.splitlines() if l.startswith("train.epoch")]
        assert len(lines) == 1
        fields = lines[0].split()
        assert fields[1] == "2"          # count
        assert float(fields[2]) == pytest.approx(6.0)   # total ms
        assert float(fields[3]) == pytest.approx(3.0)   # mean ms
        assert float(fields[4]) == pytest.approx(4.0)   # max ms

    def test_invalid_trace_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"traceEvents": [{"ph": "X"}]}, fh)
        assert main(["trace", path]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_real_run_trace_roundtrip(self, tmp_path, capsys):
        """An actual traced run's trace.json summarizes cleanly."""
        import os
        from repro.api import Experiment, ExperimentSpec
        spec = ExperimentSpec(
            model="biasmf", dataset="tiny", seed=0,
            model_config={"embedding_dim": 8},
            train_config={"epochs": 2, "batch_size": 64, "eval_every": 2,
                          "verbose": False, "trace": True})
        run_dir = str(tmp_path / "run")
        Experiment(spec).run(run_dir=run_dir)
        trace_path = os.path.join(run_dir, "trace.json")
        assert os.path.exists(trace_path)
        assert main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out
        assert "train.epoch" in out

    def test_dropped_events_warn(self, tmp_path, capsys):
        from repro.obs import chrome_trace
        payload = chrome_trace([
            {"name": "s", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 1, "tid": 1, "args": {}}])
        payload["otherData"]["dropped_events"] = 7
        path = str(tmp_path / "trace.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert main(["trace", path]) == 0
        assert "7 event(s) were dropped" in capsys.readouterr().err
