"""GraphAug's lean training step against the path it replaced.

The step computes only the positive alignment at ``r = 0``, samples
every view as a weight vector over one fixed candidate pattern (dropped
edges exactly 0) and, under the ``fused`` backend, runs each light-mode
mixhop encode as one tape node.  The contracts:

* **Reference backend, bit-identical.**  A test-local copy of the old
  step (a kept-edges-only COO view through ``weighted_spmm``, the full
  N x N ``decomposed_infonce_loss``) gives the same parameter gradients
  bit-for-bit, at r = 0 and r = 1, float32 and float64; a 3-epoch fit
  ends on the exact parameters of the old code (golden SHA-256).
* **Fused backend.**  The encode output is bit-identical to the
  composed encoder's, and its VJP to the per-slot edge-weight formula
  it replaced; the factorized edge scorer and the whole step agree with
  the composed path to float tolerance.
* **Linear memory.**  One r = 0 step's peak allocation grows roughly
  with N·d + E, not N².
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import (Tensor, concat, default_dtype,
                            enable_primitive_profiling, primitive_profile,
                            reset_primitive_profile, spmm, use_backend,
                            weighted_spmm, functional as F)
from repro.autograd.fused import _mixhop_encode_fwd, _vjp_mixhop_encode
from repro.core.gib import gib_kl_term, gib_prediction_term
from repro.data import tiny_dataset
from repro.data.synthetic import PROFILES, generate_synthetic
from repro.graph import normalized_edge_weights
from repro.models import build_model
from repro.train import ModelConfig, TrainConfig, fit_model

#: SHA-256 of ``state_dict()`` after the 3-epoch fit in
#: :func:`_fit_digest`, captured on the code before the lean step (full
#: N x N contrast, kept-edges-only views).
GOLDEN_STATE_SHA256 = {
    "float64": ("9559ad00560b0cb1adee9c472cb37f3a"
                "008db008d0dc79c7e1b6557954cc5f6e"),
    "float32": ("092512a7cdef63ae0bec25c541065c6d"
                "ba5adc6e29aee655d5c9f32c5648345c"),
}


# ---------------------------------------------------------------------- #
# test-local copy of the replaced step
# ---------------------------------------------------------------------- #
def _old_view(edge_logits, candidates, num_nodes, rng, threshold,
              gumbel_temperature):
    """The old ``sample_view``: a COO graph of the kept edges only."""
    relaxed = F.gumbel_sigmoid(edge_logits, rng,
                               temperature=gumbel_temperature)
    keep = relaxed.data > threshold
    if not keep.any():
        keep[int(np.argmax(relaxed.data))] = True
    kept_idx = np.where(keep)[0]
    kept_weights = relaxed.take_rows(kept_idx)
    u = candidates.user_nodes[kept_idx]
    v = candidates.item_nodes[kept_idx]
    norm = normalized_edge_weights(u, v, kept_weights.data, num_nodes)
    scale = np.divide(norm, kept_weights.data, out=np.zeros_like(norm),
                      where=kept_weights.data > 1e-12)
    normalized = kept_weights * scale
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    weights = concat([normalized, normalized], axis=0)
    return lambda h: weighted_spmm(rows, cols, weights,
                                   (num_nodes, num_nodes), h)


def _old_loss(model, users, pos, neg):
    """The old ``GraphAug.loss`` (mixhop, GIB and CL all on)."""
    cfg = model.config
    embeddings = model._encode(lambda h: spmm(model.mixhop_adj, h))
    user_final, item_final = model.split_nodes(embeddings)
    total = (model.bpr_loss(user_final, item_final, users, pos, neg)
             + model.embedding_reg(users, pos, neg))
    logits = model.augmentor.edge_logits(embeddings, model.candidates,
                                         model.aug_rng)
    num_nodes = model.num_users + model.num_items
    views = [_old_view(logits, model.candidates, num_nodes, model.aug_rng,
                       cfg.edge_threshold, cfg.gumbel_temperature)
             for _ in range(2)]
    z_a, z_b = (model._encode(view) for view in views)
    prior = F.binary_cross_entropy_with_logits(
        logits, model.candidates.observed.astype(np.float64))
    total = total + model.prior_weight * prior
    ua, ia = model.split_nodes(z_a)
    ub, ib = model.split_nodes(z_b)
    prediction = 0.5 * (gib_prediction_term(ua, ia, users, pos, neg)
                        + gib_prediction_term(ub, ib, users, pos, neg))
    kl = gib_kl_term([embeddings, z_a, z_b])
    total = total + model.gib_term_weight * (prediction
                                             + cfg.gib_weight * kl)
    contrastive = F.decomposed_infonce_loss(z_a, z_b, cfg.temperature,
                                            cfg.negative_weight)
    return total + cfg.ssl_weight * contrastive


def _old_vjp_mixhop_encode(g, ans, res, adjacency, operands, hops):
    """The fused encode's VJP with the per-CSR-slot edge-weight gradient
    (``np.repeat`` of each row's cotangent, an E x d gather and einsum
    per hop), as it was before the pair-level form."""
    csr_t, layers = res
    weights = operands[1]
    g_mean = g * np.asarray(1.0 / (len(layers) + 1), dtype=g.dtype)
    counts = np.diff(adjacency.indptr)
    order = np.argsort(adjacency.rows * adjacency.shape[1]
                       + adjacency.cols)
    pair_slots = np.empty_like(order)
    pair_slots[order] = np.arange(order.shape[0])
    pair_slots = pair_slots.reshape(2, adjacency.num_pairs)
    slot_grads = np.zeros(adjacency.indices.shape[0], dtype=weights.dtype)
    gate_grads = []
    carry = g_mean
    for states, mix in reversed(layers):
        dmix = np.array([np.vdot(carry, states[hop]) for hop in hops],
                        dtype=mix.dtype)
        gate_grads.append(mix * (dmix - np.dot(mix, dmix)))
        grad = None
        for k in range(hops[-1], -1, -1):
            for idx, hop in enumerate(hops):
                if hop == k:
                    term = carry * mix[idx]
                    grad = term if grad is None else grad + term
            if k == 0:
                break
            slot_grads += np.einsum(
                "ed,ed->e", np.repeat(grad, counts, axis=0),
                states[k - 1][adjacency.indices])
            grad = csr_t @ grad
        carry = grad + g_mean
    weight_grad = slot_grads[pair_slots[0]] + slot_grads[pair_slots[1]]
    return [carry, weight_grad, *reversed(gate_grads)]


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=7)


def _batch(dataset, size=48, seed=3):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, dataset.num_users, size=size)
    pos = np.array([dataset.train_items_of(u)[0] for u in users])
    neg = rng.integers(0, dataset.num_items, size=size)
    return users, pos, neg


def _step(model, loss_fn, batch):
    """Loss value and every parameter gradient of one step."""
    model.zero_grad()
    loss = loss_fn(*batch)
    loss.backward()
    return loss.item(), {name: param.grad.copy()
                         for name, param in model.named_parameters()
                         if param.grad is not None}


def _twin_steps(model, first, second, batch):
    """Run two loss functions from the same augmentation rng state."""
    state = model.aug_rng.bit_generator.state
    a = _step(model, first, batch)
    model.aug_rng.bit_generator.state = state
    b = _step(model, second, batch)
    return a, b


def _fit_digest(dtype):
    data = tiny_dataset(seed=7)
    with default_dtype(dtype):
        model = build_model("graphaug", data,
                            ModelConfig(embedding_dim=16, num_layers=2),
                            seed=7)
        fit_model(model, data, TrainConfig(epochs=3, batch_size=64,
                                           eval_every=3), seed=7)
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        array = np.ascontiguousarray(array)
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# reference backend: bit-identical to the old step
# ---------------------------------------------------------------------- #
class TestReferenceBitIdentity:
    @pytest.mark.parametrize("dtype,rtol", [("float32", 1e-6),
                                            ("float64", 1e-12)])
    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_gradients_match_old_step(self, dataset, dtype, rtol, ratio):
        batch = _batch(dataset)
        with default_dtype(dtype):
            model = build_model(
                "graphaug", dataset,
                ModelConfig(embedding_dim=16, num_layers=2,
                            negative_weight=ratio), seed=5)
            (old_loss, old_grads), (new_loss, new_grads) = _twin_steps(
                model, lambda *b: _old_loss(model, *b), model.loss, batch)
        assert new_grads.keys() == old_grads.keys()
        assert len(new_grads) == len(list(model.parameters()))
        for name, grad in old_grads.items():
            assert new_grads[name].dtype == np.dtype(dtype)
            assert np.array_equal(new_grads[name], grad), name
        if ratio:
            assert new_loss == old_loss
        else:  # only the rounding of the positive row dots differs
            assert new_loss == pytest.approx(old_loss, rel=rtol)

    def test_dropped_edges_are_exact_zeros(self, dataset):
        model = build_model("graphaug", dataset,
                            ModelConfig(embedding_dim=16, num_layers=2),
                            seed=5)
        view, other = model.sample_augmented_views(
            model._encode_original())
        assert 0 < view.keep_mask.sum() < len(model.candidates)
        assert (view.edge_weights.data[~view.keep_mask] == 0).all()
        assert (view.edge_weights.data[view.keep_mask] > 0).all()
        # every view shares the one fixed pattern (pattern-cache hits)
        assert view.rows is other.rows and view.cols is other.cols
        assert view.pattern is model.candidates.view_pattern(
            model.num_users + model.num_items)

    @pytest.mark.parametrize("dtype", sorted(GOLDEN_STATE_SHA256))
    def test_three_epoch_fit_matches_golden(self, dtype):
        assert _fit_digest(dtype) == GOLDEN_STATE_SHA256[dtype]


# ---------------------------------------------------------------------- #
# fused backend: one-node mixhop encode
# ---------------------------------------------------------------------- #
class TestFusedEncodeParity:
    @pytest.mark.parametrize("dtype,rtol", [("float32", 1e-5),
                                            ("float64", 1e-12)])
    def test_encodes_bit_identical_and_step_close(self, dataset, dtype,
                                                  rtol):
        batch = _batch(dataset)
        with default_dtype(dtype):
            model = build_model("graphaug", dataset,
                                ModelConfig(embedding_dim=16, num_layers=3),
                                seed=5)
            embeddings = model._encode_original()
            with use_backend("fused"):
                fused = model._encode_original()
            assert fused._op == "mixhop_encode"
            assert np.array_equal(fused.data, embeddings.data)
            view, _ = model.sample_augmented_views(embeddings)
            composed = model._encode(view.propagate_fn())
            with use_backend("fused"):
                fused = model._encode(view.propagate_fn())
            assert np.array_equal(fused.data, composed.data)

            def fused_loss(*b):
                with use_backend("fused"):
                    return model.loss(*b)
            (ref_loss, ref_grads), (fused_loss_value, fused_grads) = \
                _twin_steps(model, model.loss, fused_loss, batch)
        assert fused_loss_value == pytest.approx(ref_loss, rel=rtol)
        assert fused_grads.keys() == ref_grads.keys()
        for name, grad in ref_grads.items():
            assert fused_grads[name].dtype == np.dtype(dtype)
            scale = np.abs(grad).max()
            np.testing.assert_allclose(fused_grads[name], grad, rtol=rtol,
                                       atol=rtol * scale, err_msg=name)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_edge_weight_grad_bit_identical_to_slot_formula(self, dataset,
                                                            dtype):
        with default_dtype(dtype):
            model = build_model("graphaug", dataset,
                                ModelConfig(embedding_dim=16, num_layers=3),
                                seed=5)
            view, _ = model.sample_augmented_views(
                model._encode_original())
        operands = (model.ego_embeddings().data, view.edge_weights.data,
                    *(layer.gates.data for layer in model.encoder.layers))
        hops = model.encoder.hops
        ans, res = _mixhop_encode_fwd(view.pattern, operands, hops)
        g = np.random.default_rng(9).normal(size=ans.shape).astype(dtype)
        new = _vjp_mixhop_encode(g, ans, res, view.pattern, operands, hops)
        old = _old_vjp_mixhop_encode(g, ans, res, view.pattern, operands,
                                     hops)
        assert new[1].dtype == np.dtype(dtype)
        for new_grad, old_grad in zip(new, old):
            assert np.array_equal(new_grad, old_grad)

    @pytest.mark.parametrize("dtype,rtol", [("float32", 1e-5),
                                            ("float64", 1e-12)])
    def test_edge_scorer_matches_composed_scorer(self, dataset, dtype,
                                                 rtol):
        with default_dtype(dtype):
            model = build_model("graphaug", dataset,
                                ModelConfig(embedding_dim=16, num_layers=2),
                                seed=5)
            nodes = model._encode_original().detach()
            nodes.requires_grad = True
            weights = np.random.default_rng(2).normal(
                size=len(model.candidates)).astype(dtype)
            runs = []
            for backend in ("reference", "fused"):
                model.zero_grad()
                nodes.grad = None
                with use_backend(backend):
                    logits = model.augmentor.score(nodes, model.candidates)
                (logits * Tensor(weights)).sum().backward()
                grads = {name: p.grad.copy() for name, p in
                         model.augmentor.named_parameters()}
                grads["nodes"] = nodes.grad.copy()
                runs.append((logits, grads))
        (ref, ref_grads), (fused, fused_grads) = runs
        assert fused._op == "edge_scorer" and ref._op != "edge_scorer"
        assert fused.data.dtype == np.dtype(dtype)
        np.testing.assert_allclose(fused.data, ref.data, rtol=rtol,
                                   atol=rtol * np.abs(ref.data).max())
        assert fused_grads.keys() == ref_grads.keys()
        for name, grad in ref_grads.items():
            assert fused_grads[name].dtype == np.dtype(dtype)
            np.testing.assert_allclose(fused_grads[name], grad, rtol=rtol,
                                       atol=rtol * np.abs(grad).max(),
                                       err_msg=name)

    def test_profile_splits_vjp_time(self, dataset):
        model = build_model("graphaug", dataset,
                            ModelConfig(embedding_dim=16, num_layers=2),
                            seed=5)
        reset_primitive_profile()
        enable_primitive_profiling(True)
        try:
            with use_backend("fused"):
                loss = model.loss(*_batch(dataset))
                forward = primitive_profile()
                loss.backward()
        finally:
            enable_primitive_profiling(False)
        profile = primitive_profile()
        reset_primitive_profile()
        # three encodes and one scorer, each one forward and one VJP
        for name, nodes in (("mixhop_encode", 3), ("edge_scorer", 1)):
            assert forward[name]["calls"] == nodes
            assert forward[name]["vjp_calls"] == 0
            assert forward[name]["vjp_seconds"] == 0.0
            entry = profile[name]
            assert entry["vjp_calls"] == nodes
            assert entry["calls"] == 2 * nodes  # forward + VJP
            assert 0.0 < entry["vjp_seconds"] < entry["seconds"]
            assert entry["seconds"] - entry["vjp_seconds"] == \
                pytest.approx(forward[name]["seconds"])

    @pytest.mark.parametrize("overrides", [{"mixhop_mode": "dense"},
                                           {"use_mixhop": False}])
    def test_dense_and_wo_mixhop_keep_composed_path(self, dataset,
                                                    overrides):
        config = ModelConfig(embedding_dim=16, num_layers=2,
                             mixhop_mode=overrides.get("mixhop_mode",
                                                       "light"))
        model = build_model("graphaug", dataset, config, seed=5)
        model.use_mixhop = overrides.get("use_mixhop", True)
        with use_backend("fused"):
            out = model._encode_original()
        assert out._op != "mixhop_encode"


# ---------------------------------------------------------------------- #
# memory: O(N·d + E), not O(N²)
# ---------------------------------------------------------------------- #
def _step_peak_mb(scale):
    """Peak traced MB of one float32, fused-backend step (bench config)."""
    base = PROFILES["gowalla"]
    profile = replace(base, num_users=round(base.num_users * scale),
                      num_items=round(base.num_items * scale))
    data = generate_synthetic(profile, seed=0)
    with default_dtype("float32"), use_backend("fused"):
        model = build_model("graphaug", data,
                            ModelConfig(embedding_dim=32, num_layers=3),
                            seed=0)
        batch = _batch(data, size=512, seed=1)
        tracemalloc.start()
        try:
            model.loss(*batch).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20, data.num_users + data.num_items


def test_step_memory_grows_linearly_with_graph_size():
    small_mb, small_n = _step_peak_mb(2.5)
    large_mb, large_n = _step_peak_mb(10.0)
    assert large_n / small_n == pytest.approx(4.0, rel=0.05)
    # an N x N term would grow 16x; N·d + E terms grow ~4x
    assert large_mb / small_mb < 6.0, (small_mb, large_mb)
