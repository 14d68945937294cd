"""Unit tests for the Recommender base classes and shared encoder."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, use_backend
from repro.models.base import (GraphRecommender, Recommender,
                               light_gcn_propagate)
from repro.train import ModelConfig


class TestRecommenderBase:
    def test_default_propagate_is_mf(self, small_dataset):
        model = Recommender(small_dataset, ModelConfig(embedding_dim=8))
        users, items = model.propagate()
        assert users is model.user_emb.weight
        assert items is model.item_emb.weight

    def test_score_matrix_is_dot_product(self, small_dataset):
        model = Recommender(small_dataset, ModelConfig(embedding_dim=8))
        scores = model.score_all_users()
        expected = model.user_emb.weight.data @ model.item_emb.weight.data.T
        np.testing.assert_allclose(scores, expected)

    def test_bpr_loss_positive(self, small_dataset):
        model = Recommender(small_dataset, ModelConfig(embedding_dim=8))
        rng = np.random.default_rng(0)
        users = rng.integers(0, small_dataset.num_users, 16)
        pos = rng.integers(0, small_dataset.num_items, 16)
        neg = rng.integers(0, small_dataset.num_items, 16)
        assert model.loss(users, pos, neg).item() > 0

    def test_reg_scales_with_weight(self, small_dataset):
        rng = np.random.default_rng(0)
        users = rng.integers(0, small_dataset.num_users, 8)
        pos = rng.integers(0, small_dataset.num_items, 8)
        neg = rng.integers(0, small_dataset.num_items, 8)
        small = Recommender(small_dataset,
                            ModelConfig(embedding_dim=8, reg_weight=1e-6),
                            seed=1)
        large = Recommender(small_dataset,
                            ModelConfig(embedding_dim=8, reg_weight=1e-2),
                            seed=1)
        assert large.embedding_reg(users, pos, neg).item() > \
            small.embedding_reg(users, pos, neg).item()


class TestGraphRecommender:
    def test_norm_adj_shape(self, small_dataset):
        model = GraphRecommender(small_dataset,
                                 ModelConfig(embedding_dim=8))
        n = small_dataset.num_users + small_dataset.num_items
        assert model.norm_adj.shape == (n, n)

    def test_ego_embeddings_stacking(self, small_dataset):
        model = GraphRecommender(small_dataset,
                                 ModelConfig(embedding_dim=8))
        ego = model.ego_embeddings()
        np.testing.assert_allclose(
            ego.data[:small_dataset.num_users],
            model.user_emb.weight.data)
        np.testing.assert_allclose(
            ego.data[small_dataset.num_users:],
            model.item_emb.weight.data)

    def test_split_nodes_inverse_of_stack(self, small_dataset):
        model = GraphRecommender(small_dataset,
                                 ModelConfig(embedding_dim=8))
        ego = model.ego_embeddings()
        users, items = model.split_nodes(ego)
        np.testing.assert_allclose(users.data,
                                   model.user_emb.weight.data)
        np.testing.assert_allclose(items.data,
                                   model.item_emb.weight.data)


class TestLightGCNPropagate:
    def test_matches_manual_computation(self):
        adj = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        ego = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = light_gcn_propagate(adj, ego, num_layers=2)
        # layers: E, AE, A^2 E ; mean of the three
        e0 = ego.data
        e1 = adj @ e0
        e2 = adj @ e1
        np.testing.assert_allclose(out.data, (e0 + e1 + e2) / 3)

    def test_zero_layers_identity(self):
        adj = sp.identity(3, format="csr")
        ego = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        out = light_gcn_propagate(adj, ego, num_layers=0)
        np.testing.assert_allclose(out.data, ego.data)


class TestLossClosedForm:
    """``Recommender.loss`` on the plain-MF base: BPR (Eq 15) plus the
    batch-wise L2 on the ego rows, differentiated by hand."""

    @pytest.mark.parametrize("reg_weight", [0.0, 1e-2])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_grads_match_closed_form(self, small_dataset, backend,
                                     reg_weight):
        model = Recommender(small_dataset,
                            ModelConfig(embedding_dim=8,
                                        reg_weight=reg_weight), seed=0)
        # repeated users and an item drawn as both positive and negative
        users = np.array([0, 3, 3, 7, 11])
        pos = np.array([1, 2, 1, 4, 9])
        neg = np.array([2, 5, 6, 1, 9])
        U = model.user_emb.weight.data.copy()
        V = model.item_emb.weight.data.copy()
        u, p, n = U[users], V[pos], V[neg]
        batch = len(users)
        diff = (u * p).sum(axis=1) - (u * n).sum(axis=1)
        squares = (u * u).sum() + (p * p).sum() + (n * n).sum()
        want_loss = (np.mean(np.logaddexp(0.0, -diff))
                     + reg_weight * squares / batch)
        coef = (1.0 / (1.0 + np.exp(diff)))[:, None] / batch
        shrink = 2.0 * reg_weight / batch
        want_u = np.zeros_like(U)
        np.add.at(want_u, users, -coef * (p - n) + shrink * u)
        want_v = np.zeros_like(V)
        np.add.at(want_v, pos, -coef * u + shrink * p)
        np.add.at(want_v, neg, coef * u + shrink * n)

        with use_backend(backend):
            loss = model.loss(users, pos, neg)
            loss.backward()
        np.testing.assert_allclose(loss.item(), want_loss, rtol=1e-10)
        np.testing.assert_allclose(model.user_emb.weight.grad, want_u,
                                   rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(model.item_emb.weight.grad, want_v,
                                   rtol=1e-9, atol=1e-14)
