"""Unit tests for the core autograd Tensor: every op gradchecked."""

import numpy as np
import pytest

from repro.autograd import (Tensor, concat, stack, where, gradcheck,
                            no_grad, unbroadcast)


def t(shape, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestBasics:
    def test_leaf_properties(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        assert x.shape == (2, 2)
        assert x.ndim == 2
        assert x.size == 4
        assert x.grad is None

    def test_backward_requires_grad(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_non_scalar_needs_grad(self):
        x = t((3,))
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_detach_breaks_graph(self):
        x = t((3,))
        y = (x * 2).detach()
        assert not y.requires_grad
        z = (y * 3).sum()
        assert not z.requires_grad

    def test_no_grad_context(self):
        x = t((3,))
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_item_and_numpy(self):
        x = Tensor([2.5])
        assert x.item() == 2.5
        assert isinstance(x.numpy(), np.ndarray)

    def test_grad_accumulates_across_backward_calls(self):
        x = t((2,))
        (x.sum()).backward()
        (x.sum()).backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(2))


class TestArithmeticGradients:
    def test_add(self):
        assert gradcheck(lambda a, b: (a + b).sum(), [t((3, 4)), t((3, 4), 1)])

    def test_add_broadcast(self):
        assert gradcheck(lambda a, b: (a + b).sum(), [t((3, 4)), t((4,), 1)])

    def test_sub(self):
        assert gradcheck(lambda a, b: (a - b).sum(), [t((3, 2)), t((3, 2), 1)])

    def test_mul(self):
        assert gradcheck(lambda a, b: (a * b).sum(), [t((2, 5)), t((2, 5), 1)])

    def test_mul_broadcast_scalar_tensor(self):
        assert gradcheck(lambda a, b: (a * b).sum(), [t((2, 3)), t((1,), 1)])

    def test_div(self):
        b = t((2, 3), 1)
        b.data = np.abs(b.data) + 1.0
        assert gradcheck(lambda a, b: (a / b).sum(), [t((2, 3)), b])

    def test_pow(self):
        x = t((4,))
        x.data = np.abs(x.data) + 0.5
        assert gradcheck(lambda a: (a ** 3).sum(), [x])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            t((2,)) ** t((2,))

    def test_neg(self):
        assert gradcheck(lambda a: (-a).sum(), [t((3,))])

    def test_scalar_radd_rmul(self):
        assert gradcheck(lambda a: (2.0 + 3.0 * a).sum(), [t((3,))])

    def test_rsub_rdiv(self):
        x = t((3,))
        x.data = np.abs(x.data) + 1.0
        assert gradcheck(lambda a: (1.0 - a).sum(), [x])
        assert gradcheck(lambda a: (1.0 / a).sum(), [x])


class TestElementwiseGradients:
    def test_exp(self):
        assert gradcheck(lambda a: a.exp().sum(), [t((3, 3))])

    def test_log(self):
        x = t((3,))
        x.data = np.abs(x.data) + 0.5
        assert gradcheck(lambda a: a.log().sum(), [x])

    def test_sqrt(self):
        x = t((3,))
        x.data = np.abs(x.data) + 0.5
        assert gradcheck(lambda a: a.sqrt().sum(), [x])

    def test_sigmoid(self):
        assert gradcheck(lambda a: a.sigmoid().sum(), [t((4, 2))])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-800.0, 800.0])
        y = x.sigmoid()
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 1.0], atol=1e-12)

    def test_tanh(self):
        assert gradcheck(lambda a: a.tanh().sum(), [t((5,))])

    def test_relu(self):
        x = t((10,))
        x.data += 0.1 * np.sign(x.data)  # keep away from kink
        assert gradcheck(lambda a: a.relu().sum(), [x])

    def test_leaky_relu(self):
        x = t((10,))
        x.data += 0.1 * np.sign(x.data)
        assert gradcheck(lambda a: a.leaky_relu(0.5).sum(), [x])

    def test_leaky_relu_negative_slope_value(self):
        x = Tensor([-2.0, 2.0])
        np.testing.assert_allclose(x.leaky_relu(0.5).data, [-1.0, 2.0])

    def test_softplus(self):
        assert gradcheck(lambda a: a.softplus().sum(), [t((6,))])

    def test_softplus_large_values_stable(self):
        x = Tensor([900.0, -900.0])
        y = x.softplus()
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data[1], 0.0, atol=1e-12)

    def test_logsigmoid(self):
        assert gradcheck(lambda a: a.logsigmoid().sum(), [t((6,))])

    def test_abs(self):
        x = t((5,))
        x.data += 0.2 * np.sign(x.data)
        assert gradcheck(lambda a: a.abs().sum(), [x])

    def test_clamp_gradient_masked(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        y = x.clamp(low=-1.0, high=1.0)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(y.data, [-1.0, 0.5, 1.0])


class TestReductions:
    def test_sum_all(self):
        assert gradcheck(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda a: (a.sum(axis=0) ** 2).sum(), [t((3, 4))])

    def test_sum_keepdims(self):
        assert gradcheck(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(),
                         [t((3, 4))])

    def test_mean_all(self):
        assert gradcheck(lambda a: a.mean(), [t((4, 2))])

    def test_mean_axis(self):
        assert gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), [t((3, 4))])

    def test_max_all(self):
        x = t((4, 3))
        assert gradcheck(lambda a: a.max(), [x])

    def test_max_axis(self):
        x = t((4, 3))
        assert gradcheck(lambda a: a.max(axis=1).sum(), [x])

    def test_logsumexp(self):
        assert gradcheck(lambda a: a.logsumexp(axis=1).sum(), [t((3, 5))])

    def test_logsumexp_keepdims_shape(self):
        x = t((3, 5))
        assert x.logsumexp(axis=1, keepdims=True).shape == (3, 1)
        assert x.logsumexp(axis=1).shape == (3,)

    def test_logsumexp_stability(self):
        x = Tensor([[1000.0, 1000.0]])
        np.testing.assert_allclose(x.logsumexp(axis=1).data,
                                   [1000.0 + np.log(2)])


class TestLinearAlgebraAndShape:
    def test_matmul(self):
        assert gradcheck(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4, 2), 1)])

    def test_matmul_vector(self):
        assert gradcheck(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4,), 1)])

    def test_transpose(self):
        assert gradcheck(lambda a: (a.T @ a).sum(), [t((3, 4))])

    def test_reshape(self):
        assert gradcheck(lambda a: (a.reshape(6) ** 2).sum(), [t((2, 3))])

    def test_reshape_tuple_arg(self):
        x = t((2, 3))
        assert x.reshape((3, 2)).shape == (3, 2)
        assert x.reshape(-1).shape == (6,)

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 1])
        assert gradcheck(lambda a: (a.take_rows(idx) ** 2).sum(), [t((3, 4))])

    def test_take_rows_repeated_accumulates(self):
        x = t((3, 2))
        y = x.take_rows(np.array([1, 1, 1]))
        y.sum().backward()
        np.testing.assert_allclose(x.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(x.grad[0], [0.0, 0.0])

    def test_getitem_fancy(self):
        x = t((4, 3))
        assert gradcheck(
            lambda a: (a[np.array([0, 1]), np.array([2, 0])] ** 2).sum(), [x])

    def test_getitem_column_slice(self):
        x = t((4, 6))
        cols = np.arange(2, 5)
        assert gradcheck(lambda a: (a[:, cols] ** 2).sum(), [x])

    @pytest.mark.parametrize("key", [
        (slice(None), slice(None, 3)), (slice(None), slice(3, None)),
        2, np.int64(-1), (Ellipsis, 1), (None, slice(1, 4)),
        (slice(None, None, -2), slice(1, 5, 2)), Ellipsis],
        ids=repr)
    def test_getitem_basic_key_grad_matches_add_at(self, key):
        """Basic keys assign the cotangent instead of np.add.at-ing it;
        the gradient must be the same bits as the add.at form."""
        x = t((4, 6))
        upstream = np.random.default_rng(3).normal(size=x.data[key].shape)
        (x[key] * Tensor(upstream)).sum().backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, key, upstream)
        assert np.array_equal(x.grad, expected)

    def test_getitem_repeated_fancy_key_accumulates(self):
        x = t((3, 2))
        x[np.array([1, 1, 0])].sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0],
                                               [0.0, 0.0]])

    def test_concat(self):
        assert gradcheck(
            lambda a, b: (concat([a, b], axis=1) ** 2).sum(),
            [t((3, 2)), t((3, 4), 1)])

    def test_concat_axis0(self):
        assert gradcheck(
            lambda a, b: (concat([a, b], axis=0) ** 2).sum(),
            [t((2, 3)), t((4, 3), 1)])

    def test_stack(self):
        assert gradcheck(
            lambda a, b: (stack([a, b], axis=0) ** 2).sum(),
            [t((2, 3)), t((2, 3), 1)])

    def test_where(self):
        cond = np.array([True, False, True])
        assert gradcheck(
            lambda a, b: where(cond, a, b).sum(), [t((3,)), t((3,), 1)])


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_leading_axis(self):
        g = np.ones((5, 3, 4))
        out = unbroadcast(g, (3, 4))
        np.testing.assert_allclose(out, 5 * np.ones((3, 4)))

    def test_expanded_axis(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, 4 * np.ones((3, 1)))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 4.0


class TestGraphTopology:
    def test_diamond_graph(self):
        # x feeds two paths that rejoin: gradient must accumulate once each
        x = t((3,))
        y = (x * 2 + x.exp()).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, 2 + np.exp(x.data))

    def test_deep_chain(self):
        x = t((2,))
        y = x
        for _ in range(50):
            y = y * 1.01
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 1.01 ** 50 * np.ones(2),
                                   rtol=1e-10)

    def test_shared_subexpression(self):
        # the same intermediate feeds two consumers — grads must accumulate
        assert gradcheck(lambda a: (a.sigmoid() * a.sigmoid()).sum(),
                         [t((2, 2), 3)])


class TestGradOwnership:
    """A grad buffer is edited in place only by the tensor that owns it.

    Tape nodes keep their first cotangent by reference (no copy), so one
    array may be the grad of several nodes at once; leaves own a copy.
    """

    def test_add_fan_out_then_second_contribution(self):
        x, y = t((3, 2), 1), t((3, 2), 2)
        w1, w2 = np.full((3, 2), 1.5), np.full((3, 2), -0.25)
        a, b = x * 2.0, y * 3.0
        c = a + b  # add hands one cotangent array to both a and b
        loss = (c * Tensor(w1)).sum() + (a * Tensor(w2)).sum()
        loss.backward()
        # a's second contribution must not leak into b's shared buffer
        assert np.array_equal(b.grad, w1)
        assert np.array_equal(a.grad, w1 + w2)
        assert np.array_equal(y.grad, 3.0 * w1)
        assert np.array_equal(x.grad, 2.0 * (w1 + w2))

    def test_two_backward_calls_match_separate_losses(self):
        w = np.random.default_rng(3).normal(size=(2, 3))

        def losses(x):
            h = (x * 3.0).tanh()  # interior node shared by both losses
            return (h * h).sum(), (h * Tensor(w)).sum()

        x = t((2, 3), 4)
        first, second = losses(x)
        first.backward()
        second.backward()

        separate = t((2, 3), 4)
        losses(separate)[0].backward()
        losses(separate)[1].backward()
        assert np.array_equal(x.grad, separate.grad)

    def test_leaf_operands_of_add_get_distinct_buffers(self):
        a, b = t((2, 2), 5), t((2, 2), 6)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        a.grad[0, 0] = 42.0
        assert np.array_equal(b.grad, np.ones((2, 2)))

    def test_float32_grads_stay_float32(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        a = x * 2.0
        c = a + a.exp()  # fan-out: a's grad is kept, then summed
        (c * c).sum().backward()
        assert a.grad.dtype == np.float32
        assert x.grad.dtype == np.float32
        # a float64 contribution into a kept float32 buffer
        node = x * 1.0
        node._accumulate(np.ones((3, 2), dtype=np.float32))
        node._accumulate(np.ones((3, 2), dtype=np.float64))
        assert node.grad.dtype == np.float32
        assert np.array_equal(node.grad, np.full((3, 2), 2.0))
