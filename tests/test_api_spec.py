"""Tests for the declarative experiment spec (``repro.api.spec``).

The satellite contract: every ``ExperimentSpec`` serializes to a plain
dict and back losslessly for all registered models, and unknown keys
fail with a message naming the bad field.
"""

import json
from dataclasses import fields

import pytest

from repro.api import ArtifactSpec, EvalSpec, ExperimentSpec
from repro.api.rundir import _SCHEDULE_ONLY_TRAIN_KEYS, _schedule_free_spec
from repro.models import available_models
from repro.train import TrainConfig, config_from_dict, config_to_dict

ALL_MODELS = available_models()


class TestRoundTrip:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_every_registered_model_round_trips(self, model):
        spec = ExperimentSpec(
            model=model,
            dataset="gowalla",
            seed=3,
            model_config={"embedding_dim": 16, "num_layers": 2,
                          "mixhop_hops": [0, 1]},
            train_config={"epochs": 4, "batch_size": 128,
                          "eval_ks": [10, 20]},
            eval={"ks": [10, 20], "metrics": ["recall", "ndcg", "mrr"]},
            probes={"user_groups": {"num_groups": 3}},
            artifacts={"snapshot": "snap.npz"},
        )
        payload = spec.to_dict()
        # the dict is JSON-plain (a spec file must be writable as-is)
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
        assert restored == spec
        assert restored.to_dict() == payload

    def test_defaults_round_trip(self):
        spec = ExperimentSpec(model="lightgcn", dataset="tiny")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = ExperimentSpec(model="sgl", dataset="amazon",
                              train_config={"epochs": 2})
        path = spec.save(str(tmp_path / "spec.json"))
        assert ExperimentSpec.from_file(path) == spec

    def test_tuple_overrides_normalize_to_lists(self):
        # constructed-with-tuples specs equal their JSON round trip
        spec = ExperimentSpec(model="lightgcn", dataset="tiny",
                              train_config={"eval_ks": (10, 20)})
        assert spec.train_config["eval_ks"] == [10, 20]
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_probe_list_shorthand(self):
        spec = ExperimentSpec(model="lightgcn", dataset="tiny",
                              probes=["user_groups", "item_groups"])
        assert spec.probes == {"user_groups": {}, "item_groups": {}}


#: one non-default value per TrainConfig field
TRAIN_FIELD_VALUES = {
    "epochs": 3,
    "batch_size": 64,
    "batches_per_epoch": 5,
    "learning_rate": 5e-3,
    "lr_decay": 0.9,
    "eval_every": 2,
    "eval_ks": (10,),
    "eval_metrics": ("ndcg", "mrr"),
    "eval_chunk_size": 16,
    "snapshot_path": "snap.npz",
    "autograd_backend": "fused",
    "early_stop_patience": 2,
    "early_stop_metric": "ndcg@20",
    "verbose": True,
    "trace": True,
    "heartbeat_seconds": 2.5,
    "fail_after_epoch": 1,
}


class TestTrainConfigFields:
    def test_table_covers_every_field(self):
        defaults = TrainConfig()
        assert sorted(TRAIN_FIELD_VALUES) == \
            sorted(f.name for f in fields(TrainConfig))
        for name, value in TRAIN_FIELD_VALUES.items():
            assert getattr(defaults, name) != value, name

    @pytest.mark.parametrize("name", sorted(TRAIN_FIELD_VALUES))
    def test_field_round_trips(self, name):
        """Config dict, spec dict and JSON round trips are lossless, and
        only the observe-only keys leave the fingerprinted spec echo."""
        value = TRAIN_FIELD_VALUES[name]
        cfg = TrainConfig(**{name: value})
        clone = config_from_dict(
            TrainConfig, json.loads(json.dumps(config_to_dict(cfg))))
        assert clone == cfg
        spec = ExperimentSpec(model="lightgcn", dataset="tiny",
                              train_config={name: value})
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec
        assert getattr(restored.resolved_train_config(), name) == value
        hashed = _schedule_free_spec(payload)["train_config"]
        assert (name in hashed) == (name not in _SCHEDULE_ONLY_TRAIN_KEYS)


class TestStrictParsing:
    def test_unknown_top_level_key_names_field(self):
        with pytest.raises(ValueError, match="optimizer"):
            ExperimentSpec.from_dict({"model": "lightgcn",
                                      "dataset": "tiny",
                                      "optimizer": "adam"})

    def test_unknown_eval_key_names_field(self):
        with pytest.raises(ValueError, match="cutoffs"):
            ExperimentSpec.from_dict({"model": "lightgcn",
                                      "dataset": "tiny",
                                      "eval": {"cutoffs": [20]}})

    def test_unknown_artifact_key_names_field(self):
        with pytest.raises(ValueError, match="ckpt"):
            ExperimentSpec.from_dict({"model": "lightgcn",
                                      "dataset": "tiny",
                                      "artifacts": {"ckpt": "x.npz"}})

    def test_unknown_model_config_key_names_field(self):
        with pytest.raises(ValueError,
                           match="embeding_dim.*model_config"):
            ExperimentSpec(model="lightgcn", dataset="tiny",
                           model_config={"embeding_dim": 16})

    @pytest.mark.parametrize("key, value", [
        ("epoch", 3),
        # removed knobs (the worker pool, the K-stale schedule) fail
        # like any other unknown key
        ("train_workers", 2),
        ("async_updates", True),
        ("propagate_every", 3),
    ])
    def test_unknown_train_config_key_names_field(self, key, value):
        with pytest.raises(ValueError, match=f"{key}.*train_config"):
            ExperimentSpec(model="lightgcn", dataset="tiny",
                           train_config={key: value})

    def test_unknown_model_name(self):
        with pytest.raises(ValueError, match="unknown model 'gpt4'"):
            ExperimentSpec(model="gpt4", dataset="tiny")

    def test_unknown_probe_name(self):
        with pytest.raises(ValueError, match="unknown probe"):
            ExperimentSpec(model="lightgcn", dataset="tiny",
                           probes=["nope"])

    def test_dataset_name_typo_fails_at_construction(self):
        # a bare word that is neither registered nor an existing file
        # must not survive until mid-sweep resolution
        with pytest.raises(ValueError, match="unknown dataset 'gowala'"):
            ExperimentSpec(model="lightgcn", dataset="gowala")

    def test_path_shaped_dataset_may_not_exist_yet(self):
        ExperimentSpec(model="lightgcn", dataset="not/yet/there.tsv")
        ExperimentSpec(model="lightgcn", dataset="future-dump.tsv")

    def test_unknown_metric_name(self):
        with pytest.raises(ValueError, match="unknown metric 'auc'"):
            ExperimentSpec(model="lightgcn", dataset="tiny",
                           eval={"metrics": ["auc"]})

    def test_missing_required_fields(self):
        with pytest.raises(ValueError, match="model is required"):
            ExperimentSpec(model="", dataset="tiny")
        with pytest.raises(ValueError, match="dataset is required"):
            ExperimentSpec(model="lightgcn", dataset="")

    def test_non_dict_payload(self):
        with pytest.raises(TypeError, match="must be a dict"):
            ExperimentSpec.from_dict(["model"])


class TestResolution:
    def test_resolved_configs_apply_overrides(self):
        spec = ExperimentSpec(model="lightgcn", dataset="tiny",
                              model_config={"embedding_dim": 16},
                              train_config={"epochs": 7},
                              eval={"ks": [5], "metrics": ["recall"],
                                    "chunk_size": 13})
        model_config = spec.resolved_model_config()
        assert model_config.embedding_dim == 16
        assert model_config.num_layers == 2  # library default preserved
        train_config = spec.resolved_train_config()
        assert train_config.epochs == 7
        # the eval block wires the trainer's evaluation protocol
        assert train_config.eval_ks == (5,)
        assert train_config.eval_metrics == ("recall",)
        assert train_config.eval_chunk_size == 13

    def test_explicit_train_eval_fields_win_over_eval_block(self):
        spec = ExperimentSpec(model="lightgcn", dataset="tiny",
                              train_config={"eval_ks": [40]},
                              eval={"ks": [5]})
        assert spec.resolved_train_config().eval_ks == (40,)

    def test_run_name(self):
        spec = ExperimentSpec(model="lightgcn", dataset="tiny", seed=2)
        assert spec.run_name == "lightgcn-tiny-seed2"
        assert spec.with_overrides(name="custom").run_name == "custom"
        path_spec = ExperimentSpec(model="lightgcn",
                                   dataset="/data/edges.tsv")
        assert path_spec.run_name == "lightgcn-edges-seed0"

    def test_run_name_from_path_dataset(self, tmp_path):
        # dataset paths need not exist at spec-construction time
        spec = ExperimentSpec(model="biasmf",
                              dataset=str(tmp_path / "later.tsv"))
        assert spec.run_name.startswith("biasmf-later")
