"""Tests for the amortized stale-window schedule (``propagate_every``).

* ``propagate_every=1`` (the default) runs the classic loop — bit-
  identical to every previous release (also re-certified by the golden
  fingerprints in ``test_autograd_registry_parity.py``, which pins a
  ``propagate_every=3`` run as well);
* the trainer's stale windows are exactly :func:`stale_batch_grads` +
  :func:`apply_stale_gradients` on the frozen tables, applied in
  sampling order;
* staleness is spec-visible: ``propagate_every > 1`` changes results
  *and* the fingerprint;
* resampling models (SGL, NCL) invalidate the frozen tables at every
  ``on_epoch_start``, and the schedule composes with early stopping and
  the injected-failure hook;
* the two stale-batch helpers match their closed form and the tape's
  scatter semantics;
* every model of the zoo either trains deterministically under K > 1 or
  rejects it loudly, and the windows tile each epoch exactly.
"""

import math

import numpy as np
import pytest

from repro.api import Experiment, ExperimentSpec, run_dir_fingerprint
from repro.autograd import Adam, use_backend
from repro.data import BPRSampler
from repro.models import available_models, build_model
from repro.obs import current_seq, events_since
from repro.train import (ModelConfig, TrainConfig, Trainer,
                         config_from_dict, config_to_dict, fit_model)
from repro.train.trainer import apply_stale_gradients, stale_batch_grads

FAST = dict(epochs=2, batch_size=128, eval_every=2)
MODEL_CFG = {"embedding_dim": 16, "num_layers": 2}


def _fit_tables(model_name, dataset, *, seed=0, **train_overrides):
    """Fit and return (FitResult, user table, item table)."""
    model = build_model(model_name, dataset,
                        ModelConfig(**MODEL_CFG), seed=seed)
    cfg = TrainConfig(**{**FAST, **train_overrides})
    result = fit_model(model, dataset, cfg, seed=seed)
    return result, model.user_emb.weight.data, model.item_emb.weight.data


def _spec(model, **train_overrides):
    return ExperimentSpec(model=model, dataset="tiny",
                          model_config=dict(MODEL_CFG),
                          train_config={**FAST, **train_overrides})


# --------------------------------------------------------------------- #
# the stale-window schedule
# --------------------------------------------------------------------- #

class TestStaleSchedule:
    def test_default_propagate_every_is_classic_loop(self, small_dataset):
        """``propagate_every=1`` (explicit or default) is one code path."""
        base, u0, i0 = _fit_tables("lightgcn", small_dataset)
        expl, u1, i1 = _fit_tables("lightgcn", small_dataset,
                                   propagate_every=1)
        np.testing.assert_array_equal(u0, u1)
        np.testing.assert_array_equal(i0, i1)
        assert [r.loss for r in base.history] == \
            [r.loss for r in expl.history]

    def test_staleness_changes_results(self, small_dataset):
        """K > 1 is a different (spec-visible) objective, not a no-op."""
        _, u1, _ = _fit_tables("lightgcn", small_dataset)
        _, u3, _ = _fit_tables("lightgcn", small_dataset,
                               propagate_every=3)
        assert not np.array_equal(u1, u3)

    def test_stale_window_matches_manual_schedule(self, small_dataset):
        """One trained epoch == a hand-rolled replay of the schedule:
        exact batch, refresh, then stale_batch_grads +
        apply_stale_gradients per stale batch in sampling order."""
        k = 3
        cfg = TrainConfig(epochs=1, batch_size=32, eval_every=1,
                          propagate_every=k)
        trained = build_model("lightgcn", small_dataset,
                              ModelConfig(**MODEL_CFG), seed=0)
        result = Trainer(trained, small_dataset, cfg, seed=0).fit()

        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        sampler = BPRSampler(small_dataset.train,
                             np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
        reg = model.config.reg_weight
        num_batches = math.ceil(small_dataset.num_train_interactions
                                / cfg.batch_size)
        losses = []
        batch = 0
        while batch < num_batches:
            loss = model.loss(*sampler.sample(cfg.batch_size))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
            batch += 1
            window = min(k - 1, num_batches - batch)
            if window < 1:
                continue
            su, si = model.refresh_propagation()
            ego = model.amortized_ego_columns(su.shape[1])
            for _ in range(window):
                users, pos, neg = sampler.sample(cfg.batch_size)
                value, gu, gp, gn = stale_batch_grads(
                    su[users], si[pos], si[neg], reg)
                apply_stale_gradients(model, optimizer, users, pos, neg,
                                      gu, gp, gn, ego_columns=ego)
                losses.append(value)
            batch += window

        assert num_batches > k                # several windows ran
        np.testing.assert_array_equal(trained.user_emb.weight.data,
                                      model.user_emb.weight.data)
        np.testing.assert_array_equal(trained.item_emb.weight.data,
                                      model.item_emb.weight.data)
        assert result.history[0].loss == sum(losses) / num_batches

    def test_stale_grads_read_only_frozen_rows(self, small_dataset):
        """The stale objective never touches live parameters."""
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        su, si = model.refresh_propagation()
        users = np.arange(8)
        loss_a = stale_batch_grads(su[users], si[users], si[users + 1],
                                   model.config.reg_weight)
        # mangle the live parameters: frozen-row grads must not move
        model.user_emb.weight.data[...] += 100.0
        loss_b = stale_batch_grads(su[users], si[users], si[users + 1],
                                   model.config.reg_weight)
        assert loss_a[0] == loss_b[0]
        np.testing.assert_array_equal(loss_a[1], loss_b[1])


class TestFingerprintSemantics:
    def test_propagate_every_is_fingerprint_visible(self, tmp_path):
        """Staleness changes the math, so it must change the print."""
        a, b = str(tmp_path / "k1"), str(tmp_path / "k3")
        Experiment(_spec("lightgcn")).run(run_dir=a)
        Experiment(_spec("lightgcn", propagate_every=3)).run(run_dir=b)
        assert run_dir_fingerprint(a) != run_dir_fingerprint(b)

    def test_propagate_every_survives_normalization(self):
        """Only observe-only keys leave the hashed spec echo."""
        from repro.api.rundir import _schedule_free_spec
        spec = _spec("lightgcn", propagate_every=3, trace=True).to_dict()
        stripped = _schedule_free_spec(spec)
        assert "trace" not in stripped["train_config"]
        assert stripped["train_config"]["propagate_every"] == 3
        # no schedule knob present -> the dict passes through untouched
        plain = _spec("lightgcn").to_dict()
        assert _schedule_free_spec(plain) is plain


# --------------------------------------------------------------------- #
# knob validation + round trips
# --------------------------------------------------------------------- #

class TestValidation:
    def test_custom_scorer_models_reject_staleness(self, small_dataset):
        model = build_model("ncf", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        with pytest.raises(ValueError, match="ncf"):
            Trainer(model, small_dataset,
                    TrainConfig(**FAST, propagate_every=3))

    def test_propagate_every_must_be_positive(self, small_dataset):
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        with pytest.raises(ValueError, match="propagate_every"):
            Trainer(model, small_dataset,
                    TrainConfig(**FAST, propagate_every=0))


class TestSpecRoundTrip:
    def test_train_config_round_trips_propagate_every(self):
        cfg = TrainConfig(**FAST, propagate_every=4)
        clone = config_from_dict(TrainConfig, config_to_dict(cfg))
        assert clone.propagate_every == 4
        assert clone == cfg

    def test_experiment_spec_round_trips_propagate_every(self):
        spec = _spec("lightgcn", propagate_every=4)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict()["train_config"]["propagate_every"] == 4


# --------------------------------------------------------------------- #
# epoch hooks: resampling models, early stopping
# --------------------------------------------------------------------- #

class TestScheduleInteractions:
    @pytest.mark.parametrize("model_name", ["sgl", "ncl"])
    def test_resampling_models_invalidate_stale_cache(self, model_name,
                                                      small_dataset):
        """SGL/NCL rebuild structures per epoch -> frozen tables die."""
        model = build_model(model_name, small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        model.refresh_propagation()
        assert model.propagation_cache() is not None
        model.on_epoch_start(2, np.random.default_rng(0))
        assert model.propagation_cache() is None

    def test_resampling_model_trains_stale(self, small_dataset):
        """Multi-epoch SGL under K > 1: every epoch re-propagates the
        freshly resampled views before freezing (would crash or silently
        reuse stale graphs without the on_epoch_start invalidation)."""
        result, u, _ = _fit_tables("sgl", small_dataset, epochs=3,
                                   propagate_every=3)
        assert len(result.history) == 3
        assert np.isfinite(u).all()

    def test_early_stopping_under_stale_schedule(self, small_dataset):
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        cfg = TrainConfig(epochs=50, batch_size=128, eval_every=1,
                          early_stop_patience=2, propagate_every=3)
        result = Trainer(model, small_dataset, cfg, seed=0).fit()
        assert len(result.history) < 50

    def test_fail_after_epoch_under_stale_schedule(self, small_dataset):
        """The injected crash surfaces from a K > 1 fit after the epoch
        hook saw exactly the epochs that completed."""
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        cfg = TrainConfig(epochs=3, batch_size=128, eval_every=1,
                          propagate_every=3, fail_after_epoch=1)
        seen = []
        trainer = Trainer(model, small_dataset, cfg, seed=0,
                          epoch_hook=lambda rec: seen.append(rec.epoch))
        with pytest.raises(RuntimeError, match="injected"):
            trainer.fit()
        assert seen == [1]


# --------------------------------------------------------------------- #
# the two stale-batch helpers
# --------------------------------------------------------------------- #

def _stale_rows(batch=6, dim=5, seed=3):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=(batch, dim)) for _ in range(3))


class TestStaleBatchGrads:
    @pytest.mark.parametrize("reg_weight", [0.0, 1e-2])
    def test_grads_match_closed_form(self, reg_weight):
        """BPR + batch-wise L2 on the frozen rows, differentiated by
        hand: -mean(log sigmoid(u.p - u.n)) + reg * sum(x^2) / B."""
        u, p, n = _stale_rows()
        batch = u.shape[0]
        diff = (u * p).sum(axis=1) - (u * n).sum(axis=1)
        squares = (u * u).sum() + (p * p).sum() + (n * n).sum()
        want_loss = (np.mean(np.logaddexp(0.0, -diff))
                     + reg_weight * squares / batch)
        coef = (1.0 / (1.0 + np.exp(diff)))[:, None] / batch
        shrink = 2.0 * reg_weight / batch
        loss, gu, gp, gn = stale_batch_grads(u, p, n, reg_weight)
        np.testing.assert_allclose(loss, want_loss, rtol=1e-12)
        np.testing.assert_allclose(gu, -coef * (p - n) + shrink * u,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(gp, -coef * u + shrink * p,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(gn, coef * u + shrink * n,
                                   rtol=1e-10, atol=1e-14)

    def test_fused_backend_matches_reference(self):
        u, p, n = _stale_rows()
        reference = stale_batch_grads(u, p, n, 1e-2)
        with use_backend("fused"):
            fused = stale_batch_grads(u, p, n, 1e-2)
        np.testing.assert_allclose(fused[0], reference[0], rtol=1e-9)
        for got, want in zip(fused[1:], reference[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)


class TestApplyStaleGradients:
    def _model_and_optimizer(self, dataset):
        model = build_model("lightgcn", dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        return model, Adam(model.parameters(), lr=1e-2)

    def test_repeated_rows_accumulate(self, small_dataset):
        """A row drawn twice (or as both positive and negative) gets the
        sum of its gradients, as the tape's backward would give it."""
        model, optimizer = self._model_and_optimizer(small_dataset)
        dim = MODEL_CFG["embedding_dim"]
        users = np.array([0, 3, 3, 7])
        pos = np.array([1, 2, 1, 4])
        neg = np.array([2, 5, 6, 1])
        rng = np.random.default_rng(0)
        gu, gp, gn = (rng.normal(size=(4, dim)) for _ in range(3))
        apply_stale_gradients(model, optimizer, users, pos, neg,
                              gu, gp, gn)
        want_u = np.zeros_like(model.user_emb.weight.data)
        np.add.at(want_u, users, gu)
        want_i = np.zeros_like(model.item_emb.weight.data)
        np.add.at(want_i, pos, gp)
        np.add.at(want_i, neg, gn)
        np.testing.assert_allclose(model.user_emb.weight.grad, want_u,
                                   rtol=1e-12)
        np.testing.assert_allclose(model.item_emb.weight.grad, want_i,
                                   rtol=1e-12)

    def test_ego_columns_restrict_the_scatter(self, small_dataset):
        """Layer-concat tables are wider than the ego tables: only the
        named identity-rooted block reaches the ego gradient."""
        model, optimizer = self._model_and_optimizer(small_dataset)
        dim = MODEL_CFG["embedding_dim"]
        users, pos, neg = np.array([0, 1]), np.array([2, 3]), \
            np.array([4, 5])
        rng = np.random.default_rng(1)
        gu, gp, gn = (rng.normal(size=(2, 3 * dim)) for _ in range(3))
        block = slice(dim, 2 * dim)
        apply_stale_gradients(model, optimizer, users, pos, neg,
                              gu, gp, gn, ego_columns=block)
        np.testing.assert_allclose(model.user_emb.weight.grad[users],
                                   gu[:, block], rtol=1e-12)
        np.testing.assert_allclose(model.item_emb.weight.grad[pos],
                                   gp[:, block], rtol=1e-12)
        np.testing.assert_allclose(model.item_emb.weight.grad[neg],
                                   gn[:, block], rtol=1e-12)

    def test_untouched_rows_do_not_move(self, small_dataset):
        """One step from fresh optimizer state moves only sampled rows."""
        model, optimizer = self._model_and_optimizer(small_dataset)
        before_u = model.user_emb.weight.data.copy()
        before_i = model.item_emb.weight.data.copy()
        users, pos, neg = np.array([2]), np.array([0]), np.array([9])
        grads = np.ones((1, MODEL_CFG["embedding_dim"]))
        apply_stale_gradients(model, optimizer, users, pos, neg,
                              grads, grads, grads)
        moved_u = np.flatnonzero(
            (model.user_emb.weight.data != before_u).any(axis=1))
        moved_i = np.flatnonzero(
            (model.item_emb.weight.data != before_i).any(axis=1))
        assert moved_u.tolist() == [2]
        assert moved_i.tolist() == [0, 9]


# --------------------------------------------------------------------- #
# the whole model zoo under K > 1
# --------------------------------------------------------------------- #

# every registered model whose inherited embedding-dot scorer admits the
# stale schedule; gccf admits it but names no ego block of its wider
# layer-concat tables, and the custom scorers reject it up front
STALE_MODELS = ["cgi", "dgcf", "dgcl", "disengcn", "gcmc", "graphaug",
                "hccf", "lightgcn", "mhcn", "ncl", "ngcf", "pinsage",
                "sgl", "simgcl", "slrec", "stgcn"]
CUSTOM_SCORER_MODELS = ["autorec", "biasmf", "ncf"]


class TestZooUnderStaleSchedule:
    def test_partition_covers_the_registry(self, small_dataset):
        assert sorted(STALE_MODELS + CUSTOM_SCORER_MODELS + ["gccf"]) == \
            sorted(available_models())
        for name in STALE_MODELS + ["gccf"]:
            model = build_model(name, small_dataset,
                                ModelConfig(**MODEL_CFG), seed=0)
            assert model.supports_amortized_propagation(), name

    @pytest.mark.parametrize("model_name", STALE_MODELS)
    def test_stale_fit_is_deterministic(self, model_name, small_dataset):
        """Same seed, same K -> bit-identical tables and loss history."""
        first, u0, i0 = _fit_tables(model_name, small_dataset,
                                    propagate_every=3)
        second, u1, i1 = _fit_tables(model_name, small_dataset,
                                     propagate_every=3)
        assert np.isfinite(u0).all() and np.isfinite(i0).all()
        np.testing.assert_array_equal(u0, u1)
        np.testing.assert_array_equal(i0, i1)
        assert [r.loss for r in first.history] == \
            [r.loss for r in second.history]

    @pytest.mark.parametrize("model_name", CUSTOM_SCORER_MODELS)
    def test_custom_scorers_reject_staleness(self, model_name,
                                             small_dataset):
        model = build_model(model_name, small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        assert not model.supports_amortized_propagation()
        with pytest.raises(ValueError, match=model_name):
            Trainer(model, small_dataset,
                    TrainConfig(**FAST, propagate_every=2))

    def test_wide_tables_without_ego_block_fail_loudly(self,
                                                       small_dataset):
        model = build_model("gccf", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        trainer = Trainer(model, small_dataset,
                          TrainConfig(**FAST, propagate_every=3))
        with pytest.raises(ValueError, match="amortized_ego_columns"):
            trainer.fit()


# --------------------------------------------------------------------- #
# how the windows tile an epoch
# --------------------------------------------------------------------- #

class TestWindowPartition:
    @pytest.mark.parametrize("k", [2, 3, 5, 64])
    def test_windows_tile_each_epoch(self, k, small_dataset):
        """Per epoch: ceil(B / K) exact batches, each but possibly the
        last followed by one refresh and a window of up to K - 1 stale
        batches, together exactly B batches."""
        epochs, batch_size = 2, 32
        num_batches = math.ceil(small_dataset.num_train_interactions
                                / batch_size)
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size,
                          eval_every=epochs, propagate_every=k,
                          trace=True)
        seq = current_seq()
        Trainer(model, small_dataset, cfg, seed=0).fit()
        spans = [e for e in events_since(seq) if e["ph"] == "X"]
        exact = [e for e in spans if e["name"] == "train.batch"]
        refreshes = [e for e in spans if e["name"] == "train.refresh"]
        sizes = [e["args"]["size"] for e in spans
                 if e["name"] == "train.window"]
        assert all(e["args"]["exact"] for e in exact)
        assert len(exact) == epochs * math.ceil(num_batches / k)
        assert len(refreshes) == len(sizes)
        assert all(1 <= size <= k - 1 for size in sizes)
        assert len(exact) + sum(sizes) == epochs * num_batches
