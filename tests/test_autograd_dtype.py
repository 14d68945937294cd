"""Tests for the configurable autograd dtype and gradient-buffer reuse.

float32 is the training hot-path mode; float64 (the default) is preserved
for finite-difference gradient checking.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (Adam, Embedding, Linear, Tensor, default_dtype,
                            get_default_dtype, gradcheck, ones,
                            set_default_dtype, spmm, weighted_spmm, zeros)


class TestDefaultDtypeConfig:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_set_and_restore(self):
        set_default_dtype(np.float32)
        try:
            assert get_default_dtype() == np.float32
        finally:
            set_default_dtype(np.float64)
        assert get_default_dtype() == np.float64

    def test_context_manager_restores_on_exit(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_dtype("float32"):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)


class TestFloat32Mode:
    def test_leaf_coercion(self):
        with default_dtype("float32"):
            assert Tensor([1, 2, 3]).data.dtype == np.float32
            assert zeros(2, 3).data.dtype == np.float32
            assert ones(4).data.dtype == np.float32
        # explicit float arrays keep their dtype either way
        assert Tensor(np.zeros(3, np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(3, np.float64)).data.dtype == np.float64

    def test_parameter_copies_caller_array(self):
        """In-place optimizer updates must never reach caller-owned data."""
        from repro.autograd import Parameter, SGD
        source = np.ones((2, 2))
        param = Parameter(source)
        assert param.data is not source
        param.grad = np.ones((2, 2))
        SGD([param], lr=0.5).step()
        np.testing.assert_allclose(source, 1.0)  # caller array untouched
        np.testing.assert_allclose(param.data, 0.5)

    def test_parameters_cast_to_active_dtype(self):
        rng = np.random.default_rng(0)
        with default_dtype("float32"):
            layer = Linear(4, 3, rng)
            emb = Embedding(5, 4, rng)
        assert layer.weight.data.dtype == np.float32
        assert layer.bias.data.dtype == np.float32
        assert emb.weight.data.dtype == np.float32

    def test_training_step_stays_float32(self):
        rng = np.random.default_rng(1)
        with default_dtype("float32"):
            emb = Embedding(6, 4, rng)
            opt = Adam(emb.parameters(), lr=0.01)
            out = emb.weight.take_rows(np.array([0, 1, 1, 3]))
            loss = (out * out).sum()
            loss.backward()
        assert loss.data.dtype == np.float32
        assert emb.weight.grad.dtype == np.float32
        opt.step()
        assert emb.weight.data.dtype == np.float32

    def test_python_scalar_operands_do_not_promote(self):
        """Regression: NEP-50 0-d float64 wrappers upcast float32 exprs."""
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        assert (x * 0.5).data.dtype == np.float32
        assert (x + 1).data.dtype == np.float32
        assert (x - 0.5).data.dtype == np.float32
        assert (x / 2.0).data.dtype == np.float32
        assert (1.0 - x).data.dtype == np.float32
        assert (1.0 / x).data.dtype == np.float32

    # one representative per promotion hazard: plain spmm, weighted_spmm
    # augmentor, feature masks, per-layer noise, node masking
    @pytest.mark.parametrize("name", ["lightgcn", "graphaug", "slrec",
                                      "simgcl", "stgcn", "cgi"])
    def test_gnn_loss_stays_float32_end_to_end(self, name):
        from repro.data import tiny_dataset
        from repro.models import build_model
        from repro.train import ModelConfig
        data = tiny_dataset(seed=0)
        rng = np.random.default_rng(0)
        with default_dtype("float32"):
            model = build_model(name, data,
                                ModelConfig(embedding_dim=8, num_layers=2),
                                seed=0)
            if hasattr(model, "on_epoch_start"):
                model.on_epoch_start(1, rng)
            loss = model.loss(np.array([0, 1]), np.array([0, 1]),
                              np.array([2, 3]))
            loss.backward()
        assert loss.data.dtype == np.float32
        assert model.user_emb.weight.grad.dtype == np.float32

    def test_graphaug_fused_encode_stays_float32(self):
        from repro.autograd import use_backend
        from repro.data import tiny_dataset
        from repro.models import build_model
        from repro.train import ModelConfig
        data = tiny_dataset(seed=0)
        with default_dtype("float32"), use_backend("fused"):
            model = build_model("graphaug", data,
                                ModelConfig(embedding_dim=8, num_layers=2),
                                seed=0)
            loss = model.loss(np.array([0, 1]), np.array([0, 1]),
                              np.array([2, 3]))
            loss.backward()
        assert loss.data.dtype == np.float32
        # gates, ego tables and the augmentor all get float32 gradients
        # through the one-node encode
        for name, param in model.named_parameters():
            assert param.grad.dtype == np.float32, name

    def test_spmm_float32_operands(self):
        matrix = sp.random(5, 4, density=0.5, random_state=0, format="csr")
        x = Tensor(np.random.default_rng(2).normal(size=(4, 3))
                   .astype(np.float32), requires_grad=True)
        out = spmm(matrix, x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_weighted_spmm_float32_operands(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 0, 2])
        w = Tensor(np.ones(3, np.float32), requires_grad=True)
        x = Tensor(np.random.default_rng(3).normal(size=(3, 2))
                   .astype(np.float32), requires_grad=True)
        out = weighted_spmm(rows, cols, w, (3, 3), x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32


class TestTakeRowsScatter:
    def test_negative_indices_backward(self):
        """Regression: the bincount scatter must accept negative indices."""
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        t.take_rows(np.array([-1, 0, -1])).sum().backward()
        np.testing.assert_allclose(t.grad.sum(axis=1), [3.0, 0.0, 0.0, 6.0])

    def test_out_of_range_negative_index_raises(self):
        """Regression: -5 into 4 rows must raise, not wrap to row -1."""
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(IndexError):
            t.take_rows(np.array([-5]))

    def test_duplicate_indices_accumulate(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.take_rows(np.array([2, 2, 2])).sum().backward()
        np.testing.assert_allclose(t.grad[2], [3.0, 3.0])


class TestGradAccumulationBuffer:
    def test_in_place_reuse(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        t._accumulate(np.ones((3, 2)))
        buffer = t.grad
        t._accumulate(np.full((3, 2), 2.0))
        assert t.grad is buffer  # same buffer, updated in place
        np.testing.assert_allclose(t.grad, 3.0)

    def test_first_accumulation_copies(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        t._accumulate(g)
        g[:] = 99.0
        np.testing.assert_allclose(t.grad, 1.0)

    def test_repeated_backward_through_shared_node(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])


class TestGradcheckFloat64Mode:
    def test_gradcheck_still_passes_in_float64(self):
        """The satellite acceptance: float64 finite differences stay tight."""
        matrix = sp.random(5, 5, density=0.5, random_state=4, format="csr")
        rng = np.random.default_rng(5)

        def fn(x, w):
            h = spmm(matrix, x)
            return (h @ w).tanh().sum()

        assert gradcheck(fn, [
            Tensor(rng.normal(size=(5, 3)), requires_grad=True),
            Tensor(rng.normal(size=(3, 2)), requires_grad=True),
        ])

    def test_gradcheck_rejects_float32_inputs(self):
        bad = Tensor(np.ones(3, np.float32), requires_grad=True)
        with pytest.raises(TypeError, match="float64"):
            gradcheck(lambda t: (t * t).sum(), [bad])
