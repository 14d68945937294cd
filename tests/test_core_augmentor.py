"""Tests for the learnable augmentor (paper Eq 4)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (CandidateEdges, LearnableAugmentor,
                        build_candidate_edges)
from repro.data import tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=41)


class TestCandidateEdges:
    def test_observed_edges_all_included(self, dataset):
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(0))
        assert cands.observed.sum() == dataset.train.num_interactions

    def test_higher_order_budget(self, dataset):
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(1),
                                      higher_order_budget=0.25)
        extra = (~cands.observed).sum()
        target = round(0.25 * dataset.train.num_interactions)
        assert extra <= target
        assert extra > 0

    def test_zero_budget(self, dataset):
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(2),
                                      higher_order_budget=0.0)
        assert (~cands.observed).sum() == 0

    def test_extra_edges_not_observed(self, dataset):
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(3))
        extra = ~cands.observed
        users = cands.user_nodes[extra]
        items = cands.item_nodes[extra] - dataset.num_users
        for u, i in zip(users, items):
            assert not dataset.train.has_edge(int(u), int(i))

    def test_item_nodes_offset(self, dataset):
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(4))
        assert (cands.item_nodes >= dataset.num_users).all()
        assert (cands.user_nodes < dataset.num_users).all()


class TestLearnableAugmentor:
    def test_perturb_preserves_shape(self):
        aug = LearnableAugmentor(8, np.random.default_rng(0))
        emb = Tensor(np.random.default_rng(1).normal(size=(10, 8)))
        out = aug.perturb(emb, np.random.default_rng(2))
        assert out.shape == (10, 8)

    def test_perturb_mask_keeps_or_replaces(self):
        """Masked positions become the noise; kept positions stay."""
        aug = LearnableAugmentor(4, np.random.default_rng(0), mask_keep=0.5)
        emb = Tensor(np.full((50, 4), 7.0))
        out = aug.perturb(emb, np.random.default_rng(3))
        # each value is either the original 7 (kept) or |noise| < ~5
        is_original = np.isclose(out.data, 7.0)
        frac = is_original.mean()
        assert 0.3 < frac < 0.7

    def test_invalid_mask_keep(self):
        with pytest.raises(ValueError):
            LearnableAugmentor(4, np.random.default_rng(0), mask_keep=0.0)

    def test_edge_probabilities_in_unit_interval(self, dataset):
        aug = LearnableAugmentor(8, np.random.default_rng(0))
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(1))
        emb = Tensor(np.random.default_rng(2).normal(
            size=(dataset.train.num_nodes, 8)))
        probs = aug.edge_logits(emb, cands,
                                np.random.default_rng(3)).sigmoid()
        assert probs.shape == (len(cands),)
        assert ((probs.data > 0) & (probs.data < 1)).all()

    def test_gradients_reach_scorer_and_embeddings(self, dataset):
        aug = LearnableAugmentor(8, np.random.default_rng(0))
        cands = build_candidate_edges(dataset.train,
                                      np.random.default_rng(1))
        emb = Tensor(np.random.default_rng(2).normal(
            size=(dataset.train.num_nodes, 8)), requires_grad=True)
        logits = aug.edge_logits(emb, cands, np.random.default_rng(3))
        logits.sum().backward()
        assert emb.grad is not None
        for param in aug.parameters():
            assert param.grad is not None
