"""Parametrized sanity tests across the full model zoo.

Each registered model must: build, expose parameters, compute a finite
scalar loss with gradients, produce correctly-shaped score matrices, and
improve over untrained scores after a short fit.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.eval import evaluate_scores
from repro.models import MODEL_REGISTRY, available_models, build_model
from repro.train import ModelConfig, TrainConfig, fit_model

ALL_MODELS = available_models()


@pytest.fixture(scope="module")
def zoo_dataset():
    from repro.data import tiny_dataset
    return tiny_dataset(seed=17)


@pytest.fixture(scope="module")
def model_config():
    return ModelConfig(embedding_dim=16, num_layers=2)


class TestRegistry:
    def test_expected_zoo(self):
        expected = {"biasmf", "ncf", "autorec", "gcmc", "pinsage", "ngcf",
                    "lightgcn", "gccf", "disengcn", "dgcf", "mhcn", "stgcn",
                    "slrec", "sgl", "dgcl", "hccf", "cgi", "ncl",
                    "graphaug", "simgcl"}
        assert set(ALL_MODELS) == expected

    def test_unknown_model_raises(self, zoo_dataset):
        with pytest.raises(KeyError):
            build_model("svdpp", zoo_dataset)

    def test_double_registration_raises(self):
        with pytest.raises(KeyError):
            MODEL_REGISTRY.register("lightgcn")(object)


@pytest.mark.parametrize("name", ALL_MODELS)
class TestEveryModel:
    def test_loss_finite_and_backward(self, name, zoo_dataset, model_config):
        model = build_model(name, zoo_dataset, model_config, seed=0)
        rng = np.random.default_rng(0)
        users = rng.integers(0, zoo_dataset.num_users, size=32)
        pos = np.array([zoo_dataset.train_items_of(u)[0] for u in users])
        neg = rng.integers(0, zoo_dataset.num_items, size=32)
        loss = model.loss(users, pos, neg)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.requires_grad]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_score_matrix_shape(self, name, zoo_dataset, model_config):
        model = build_model(name, zoo_dataset, model_config, seed=0)
        scores = model.score_all_users()
        assert scores.shape == (zoo_dataset.num_users,
                                zoo_dataset.num_items)
        assert np.isfinite(scores).all()

    def test_node_embeddings_shape(self, name, zoo_dataset, model_config):
        model = build_model(name, zoo_dataset, model_config, seed=0)
        emb = model.node_embeddings()
        assert emb.shape[0] == zoo_dataset.num_users + zoo_dataset.num_items
        assert np.isfinite(emb).all()

    def test_short_training_beats_random(self, name, zoo_dataset,
                                         model_config):
        # recall@5 on the 50-item tiny catalogue: random scores ~0.07
        model = build_model(name, zoo_dataset, model_config, seed=0)
        cfg = TrainConfig(epochs=15, batch_size=128, eval_every=5,
                          eval_ks=(5,), eval_metrics=("recall",),
                          early_stop_metric="recall@5")
        result = fit_model(model, zoo_dataset, cfg, seed=0)
        rng = np.random.default_rng(99)
        random_scores = rng.normal(size=(zoo_dataset.num_users,
                                         zoo_dataset.num_items))
        baseline = evaluate_scores(random_scores, zoo_dataset, ks=(5,),
                                   metrics=("recall",))
        assert result.best_metrics["recall@5"] > baseline["recall@5"]

    def test_deterministic_build(self, name, zoo_dataset, model_config):
        a = build_model(name, zoo_dataset, model_config, seed=5)
        b = build_model(name, zoo_dataset, model_config, seed=5)
        np.testing.assert_allclose(a.user_emb.weight.data,
                                   b.user_emb.weight.data)

    def test_deterministic_fit(self, name, zoo_dataset, model_config):
        """Same seed -> bit-identical parameters and loss history."""
        fits = []
        for _ in range(2):
            model = build_model(name, zoo_dataset, model_config, seed=0)
            cfg = TrainConfig(epochs=2, batch_size=128, eval_every=2)
            result = fit_model(model, zoo_dataset, cfg, seed=0)
            fits.append(([p.data for p in model.parameters()],
                         [r.loss for r in result.history]))
        (params0, losses0), (params1, losses1) = fits
        assert all(np.isfinite(p).all() for p in params0)
        assert len(params0) == len(params1)
        for p0, p1 in zip(params0, params1):
            np.testing.assert_array_equal(p0, p1)
        assert losses0 == losses1
