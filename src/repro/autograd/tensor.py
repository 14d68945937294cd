"""A reverse-mode automatic-differentiation engine on numpy arrays.

This module is the computational substrate for the whole repository.  The
paper's models were originally written against PyTorch; this environment has
no deep-learning framework installed, so we provide one: a tape-based,
vectorized autograd ``Tensor`` supporting the operations graph neural
recommenders need (dense linear algebra, elementwise math, reductions,
row gather / scatter-add, concatenation and stable softmax primitives).

Design notes
------------
* Values are stored as ``numpy.ndarray`` of a configurable float dtype
  (:func:`set_default_dtype` / the :class:`default_dtype` context manager).
  The default is ``float64``: the datasets in this reproduction are small
  (hundreds of nodes), so we favour the numerical headroom of double
  precision, which also makes finite-difference gradient checking tight.
  Training throughput workloads opt into ``float32``, which halves memory
  traffic through the spmm/embedding hot path.
* The graph is dynamic (define-by-run).  Every operation is a registered
  *primitive* (:mod:`repro.autograd.primitives`): a forward function plus
  per-argument VJP functions.  A ``Tensor`` produced by an operation keeps
  references to its parents and one generic tape node recording
  ``(primitive, args, kwargs)``; calling :meth:`Tensor.backward`
  topologically sorts the tape and dispatches each node to its
  primitive's registered VJPs, accumulating into ``tensor.grad``.  The
  dunder methods below are thin wrappers over the registry — gradients
  never live in closures, so new ops (including fused or alternate-
  backend kernels) plug in without touching this file.
* Broadcasting follows numpy semantics; gradients are reduced back to the
  operand shape by :func:`unbroadcast`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import primitives as _prims
from .primitives import defvjp, primitive

try:  # the C segment-sum kernel behind scipy's own sparse matmul
    from scipy.sparse import _sparsetools as _sptools
except ImportError:  # pragma: no cover - layout differs on odd versions
    _sptools = None

Scalar = Union[int, float]
ArrayLike = Union[Scalar, Sequence, np.ndarray, "Tensor"]

_default_dtype = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def get_default_dtype() -> type:
    """Return the scalar type new tensors are created with."""
    return _default_dtype


def set_default_dtype(dtype) -> None:
    """Set the global tensor dtype: ``float32`` or ``float64``.

    float64 (the default) keeps finite-difference gradient checking tight;
    float32 halves memory traffic on the training hot path.  Tensors that
    are already float32/float64 keep their dtype — the default only governs
    coercion of non-float inputs and fresh allocations.
    """
    global _default_dtype
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {resolved}")
    _default_dtype = resolved.type


class default_dtype:
    """Context manager scoping :func:`set_default_dtype` to a block."""

    def __init__(self, dtype):
        self._dtype = dtype

    def __enter__(self):
        self._prev = _default_dtype
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._prev)
        return False


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self):
        self._prev = _prims.is_grad_enabled()
        _prims.set_grad_enabled(False)
        return self

    def __exit__(self, *exc):
        _prims.set_grad_enabled(self._prev)
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _prims.is_grad_enabled()


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summation is performed over the leading dimensions added by broadcasting
    and over any axis that was expanded from size one.
    """
    if grad.shape == shape:
        return grad
    # Sum out the extra leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over broadcast (size-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(_default_dtype)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def cast_like(array: ArrayLike, ref: "Tensor") -> np.ndarray:
    """Cast a constant helper array (mask, noise, targets) to ``ref``'s dtype.

    The single entry point for mixing rng-generated float64 arrays into a
    tape: casting at the boundary keeps a float32 graph float32 instead of
    silently promoting every downstream op.  No copy when dtypes match.
    """
    return np.asarray(array).astype(ref.data.dtype, copy=False)


def _operand(value: ArrayLike, dtype) -> "Tensor":
    """Coerce a binary-op operand, adopting ``dtype`` for scalars.

    Under NEP 50 a 0-d float64 array is *not* value-cast, so wrapping a
    Python scalar as float64 would silently promote every float32
    expression like ``x * 0.5`` back to float64 and defeat the float32
    hot path.  Scalar operands therefore take the peer tensor's dtype.
    """
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if arr.ndim == 0 and arr.dtype.kind in "fiub" and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor(arr)


class Tensor:
    """A numpy-backed array node in a dynamically-built autograd graph.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; float32/float64 arrays keep
        their dtype, everything else is coerced to the default dtype
        (see :func:`set_default_dtype`).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor when :meth:`backward` is called downstream.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_node", "_op",
                 "_owns_grad")
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_default_dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._owns_grad = False
        self._parents: Tuple["Tensor", ...] = ()
        self._node: Optional[_prims.Node] = None
        self._op = "leaf"

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # reverse mode
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one cotangent into :attr:`grad`.

        A buffer is updated in place only by the tensor that owns it.
        A leaf copies its first gradient, so callers and optimizers may
        edit it.  A tape node keeps its first cotangent by reference
        when dtype and shape match: it may be a VJP's read-only view, or
        the very array a VJP handed to a sibling (``add`` passes one
        ``g`` to both operands), so a second contribution allocates a
        new, owned sum.  :meth:`backward` clears tape-node grads before
        each pass, so a buffer handed to a VJP is never updated after.
        """
        if self.grad is None:
            if (self._node is not None and isinstance(grad, np.ndarray)
                    and grad.dtype == self.data.dtype
                    and grad.shape == self.data.shape):
                self.grad = grad
                self._owns_grad = False
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
                self._owns_grad = True
        elif self.grad.shape == np.shape(grad):
            if self._owns_grad:
                self.grad += grad  # in-place: reuse the accumulation buffer
            else:  # the dtype and rounding of the in-place add
                self.grad = (self.grad + grad).astype(self.grad.dtype,
                                                      copy=False)
                self._owns_grad = True
        else:
            self.grad = self.grad + grad
            self._owns_grad = True

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (so scalars need no argument, matching the
        PyTorch convention).  Each non-leaf node dispatches through the
        primitive registry (:func:`repro.autograd.primitives.backpropagate`).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar "
                                   "outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape)

        # Topological order over the tape.
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in order:
            if node._node is not None:  # a fresh pass: no stale cotangent
                node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node._node is None or node.grad is None:
                continue
            _prims.backpropagate(node)

    # ------------------------------------------------------------------ #
    # elementwise arithmetic (thin wrappers over registered primitives)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _add(self, _operand(other, self.data.dtype))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _neg(self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_operand(other, self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _operand(other, self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _mul(self, _operand(other, self.data.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _div(self, _operand(other, self.data.dtype))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _operand(other, self.data.dtype) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return _pow(self, exponent=exponent)

    # comparison helpers return plain numpy bool arrays (non-differentiable)
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return _exp(self)

    def log(self) -> "Tensor":
        return _log(self)

    def sqrt(self) -> "Tensor":
        return _sqrt(self)

    def sigmoid(self) -> "Tensor":
        return _sigmoid(self)

    def tanh(self) -> "Tensor":
        return _tanh(self)

    def relu(self) -> "Tensor":
        return _relu(self)

    def leaky_relu(self, negative_slope: float = 0.5) -> "Tensor":
        """LeakyReLU; the paper fixes the slope at 0.5 (Sec IV-A.3)."""
        return _leaky_relu(self, negative_slope=negative_slope)

    def softplus(self) -> "Tensor":
        return _softplus(self)

    def logsigmoid(self) -> "Tensor":
        """log(sigmoid(x)) = -softplus(-x), computed stably."""
        return -(-self).softplus()

    def abs(self) -> "Tensor":
        return _abs(self)

    def clamp(self, low: Optional[float] = None,
              high: Optional[float] = None) -> "Tensor":
        """Clip values; gradient is passed through only inside the range."""
        return _clamp(self, low=low, high=high)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        return _mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None,
            keepdims: bool = False) -> "Tensor":
        return _max(self, axis=axis, keepdims=keepdims)

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        """Stable log-sum-exp along ``axis`` with exact softmax gradient."""
        return _logsumexp(self, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # linear algebra & shape ops
    # ------------------------------------------------------------------ #
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return _matmul(self, _operand(other, self.data.dtype))

    def transpose(self) -> "Tensor":
        return _transpose(self)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape=shape)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0); backward scatter-adds into the source.

        This is the embedding-lookup primitive: repeated indices must
        accumulate gradient.  The scatter is a segment sum expressed as
        ``S^T @ g`` with ``S`` the one-hot batch-selection matrix, driven
        straight through scipy's C ``csc_matvecs`` kernel: it accumulates
        *in the tape dtype* — float32 batches no longer pay the previous
        ``np.bincount`` scatter's hidden float64 accumulation plus cast —
        runs ~9x faster than bincount on the trainer's batch-gather
        shapes, and unlike bincount its work scales with the batch
        instead of ``table.size``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx < 0).any():
            # normalize python-style negative indices: the selection
            # matrix in the VJP needs non-negative row positions
            if (idx < -len(self.data)).any():
                raise IndexError(
                    f"index {int(idx.min())} is out of bounds for axis 0 "
                    f"with size {len(self.data)}")
            idx = np.where(idx < 0, idx + len(self.data), idx)
        return _take_rows(self, idx)

    def __getitem__(self, key) -> "Tensor":
        # the key rides in kwargs so list keys keep their (fancy-indexing)
        # semantics instead of being unwrapped as a Tensor container
        return _getitem(self, key=key)


# --------------------------------------------------------------------- #
# primitive registrations: elementwise arithmetic
# --------------------------------------------------------------------- #

_add = primitive("add")(lambda a, b: a + b)
defvjp("add",
       lambda g, ans, a, b: unbroadcast(g, a.shape),
       lambda g, ans, a, b: unbroadcast(g, b.shape))

_neg = primitive("neg")(lambda a: -a)
defvjp("neg", lambda g, ans, a: -g)

_mul = primitive("mul")(lambda a, b: a * b)
defvjp("mul",
       lambda g, ans, a, b: unbroadcast(g * b, a.shape),
       lambda g, ans, a, b: unbroadcast(g * a, b.shape))

_div = primitive("div")(lambda a, b: a / b)
defvjp("div",
       lambda g, ans, a, b: unbroadcast(g / b, a.shape),
       lambda g, ans, a, b: unbroadcast(-g * a / (b ** 2), b.shape))

_pow = primitive("pow")(lambda a, exponent: np.power(a, exponent))
defvjp("pow",
       lambda g, ans, a, exponent: g * exponent * np.power(a, exponent - 1))


# --------------------------------------------------------------------- #
# primitive registrations: elementwise functions
# --------------------------------------------------------------------- #

_exp = primitive("exp")(np.exp)
defvjp("exp", lambda g, ans, a: g * ans)

_log = primitive("log")(np.log)
defvjp("log", lambda g, ans, a: g / a)

_sqrt = primitive("sqrt")(np.sqrt)
defvjp("sqrt", lambda g, ans, a: g * 0.5 / ans)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic (shared by sigmoid/softplus VJPs)."""
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0)) /
                    (1.0 + np.exp(np.clip(x, None, 0))))


_sigmoid = primitive("sigmoid")(_stable_sigmoid)
defvjp("sigmoid", lambda g, ans, a: g * ans * (1.0 - ans))

_tanh = primitive("tanh")(np.tanh)
defvjp("tanh", lambda g, ans, a: g * (1.0 - ans ** 2))

_relu = primitive("relu")(lambda a: a * (a > 0))
defvjp("relu", lambda g, ans, a: g * (a > 0))

# dtype-preserving: select between `a` and the scaled branch instead of
# multiplying by a float64 ``np.where(..., 1.0, slope)`` mask, which would
# silently promote a float32 activation (and its gradient) to float64.
# Bit-identical to the masked form in float64 (x * 1.0 == x).
_leaky_relu = primitive("leaky_relu")(
    lambda a, negative_slope: np.where(a > 0, a, a * negative_slope))
defvjp("leaky_relu",
       lambda g, ans, a, negative_slope:
       np.where(a > 0, g, g * negative_slope))

# log(1 + e^x) computed stably
_softplus = primitive("softplus")(lambda a: np.logaddexp(0.0, a))
defvjp("softplus", lambda g, ans, a: g * _stable_sigmoid(a))

_abs = primitive("abs")(np.abs)
defvjp("abs", lambda g, ans, a: g * np.sign(a))


def _clamp_inside(a: np.ndarray, low, high) -> np.ndarray:
    inside = np.ones_like(a)
    if low is not None:
        inside = inside * (a >= low)
    if high is not None:
        inside = inside * (a <= high)
    return inside


_clamp = primitive("clamp")(lambda a, low, high: np.clip(a, low, high))
defvjp("clamp", lambda g, ans, a, low, high: g * _clamp_inside(a, low, high))


# --------------------------------------------------------------------- #
# primitive registrations: reductions
# --------------------------------------------------------------------- #

_sum = primitive("sum")(
    lambda a, axis, keepdims: a.sum(axis=axis, keepdims=keepdims))


def _vjp_sum(g, ans, a, axis, keepdims):
    grad = g
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis)
    # read-only broadcast view is fine: _accumulate never mutates a
    # buffer it does not own
    return np.broadcast_to(grad, a.shape)


defvjp("sum", _vjp_sum)

_mean = primitive("mean")(
    lambda a, axis, keepdims: a.mean(axis=axis, keepdims=keepdims))


def _vjp_mean(g, ans, a, axis, keepdims):
    count = a.size if axis is None else (
        np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    grad = g / count
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad, a.shape)


defvjp("mean", _vjp_mean)

_max = primitive("max")(
    lambda a, axis, keepdims: a.max(axis=axis, keepdims=keepdims))


def _vjp_max(g, ans, a, axis, keepdims):
    if axis is None:
        mask = (a == ans)
        share = mask / mask.sum()
        return g * share
    expanded = ans if keepdims else np.expand_dims(ans, axis)
    mask = (a == expanded)
    share = mask / mask.sum(axis=axis, keepdims=True)
    grad = g if keepdims else np.expand_dims(g, axis)
    return grad * share


defvjp("max", _vjp_max)


def _logsumexp_fwd(a, axis, keepdims):
    m = a.max(axis=axis, keepdims=True)
    shifted = np.exp(a - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out = np.log(total) + m
    soft = shifted / total
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out, soft


def _vjp_logsumexp(g, ans, soft, a, axis, keepdims):
    grad = g if keepdims else np.expand_dims(g, axis)
    return grad * soft


# the softmax weights are residuals: recomputing them from ``ans`` would
# change float rounding (exp(a - out) != shifted/total bit-for-bit)
_logsumexp = primitive("logsumexp", residuals=True)(_logsumexp_fwd)
defvjp("logsumexp", _vjp_logsumexp)


# --------------------------------------------------------------------- #
# primitive registrations: linear algebra & shape ops
# --------------------------------------------------------------------- #

_matmul = primitive("matmul")(lambda a, b: a @ b)


def _vjp_matmul_a(g, ans, a, b):
    if b.ndim == 1:
        return np.outer(g, b) if a.ndim == 2 else g * b
    return g @ b.T


def _vjp_matmul_b(g, ans, a, b):
    if a.ndim == 1:
        return np.outer(a, g) if b.ndim == 2 else g * a
    return a.T @ g


defvjp("matmul", _vjp_matmul_a, _vjp_matmul_b)

_transpose = primitive("transpose")(lambda a: a.T)
defvjp("transpose", lambda g, ans, a: g.T)

_reshape = primitive("reshape")(lambda a, shape: a.reshape(shape))
defvjp("reshape", lambda g, ans, a, shape: g.reshape(a.shape))

_take_rows = primitive("take_rows")(lambda a, idx: a[idx])


def scatter_rows(g: np.ndarray, idx: np.ndarray, num_rows: int
                 ) -> np.ndarray:
    """Dense segment-sum scatter: rows of ``g`` summed into ``idx`` slots.

    The ``take_rows`` VJP: the dtype-preserving, C-kernel scatter that
    pushes a row-batch gradient back into an embedding table.  The fused
    kernels (:mod:`repro.autograd.fused`) reuse it for their per-edge
    node gradients, so they accumulate exactly like the tape does.
    """
    n, dim = g.shape
    dtype = g.dtype
    g = np.ascontiguousarray(g)
    ones = np.ones(n, dtype=dtype)
    indptr = np.arange(n + 1, dtype=idx.dtype)
    if _sptools is not None:
        # grad += S^T g; S^T is the (num_rows, n) one-hot selection
        # in CSC form, whose index arrays are exactly (indptr, idx)
        grad = np.zeros((num_rows, dim), dtype=dtype)
        _sptools.csc_matvecs(num_rows, n, dim, indptr, idx,
                             ones, g.ravel(), grad.ravel())
    else:
        select = sp.csr_matrix((ones, idx, indptr),
                               shape=(n, num_rows))
        grad = select.T @ g
    return grad


def _vjp_take_rows(g, ans, a, idx):
    if a.ndim == 2 and idx.ndim == 1 and idx.size:
        return scatter_rows(np.ascontiguousarray(g, dtype=a.dtype), idx,
                            a.shape[0])
    grad = np.zeros_like(a)
    np.add.at(grad, idx, g)
    return grad


defvjp("take_rows", _vjp_take_rows)

_getitem = primitive("getitem")(lambda a, key: a[key])


_BASIC_KEY_TYPES = (int, np.integer, slice, type(None), type(Ellipsis))


def _vjp_getitem(g, ans, a, key):
    grad = np.zeros_like(a)
    parts = key if isinstance(key, tuple) else (key,)
    if all(isinstance(part, _BASIC_KEY_TYPES) and not isinstance(part, bool)
           for part in parts):
        # basic keys select each element at most once: plain assignment
        grad[key] = g
    else:
        np.add.at(grad, key, g)  # fancy keys may repeat an index
    return grad


defvjp("getitem", _vjp_getitem)


# --------------------------------------------------------------------- #
# multi-tensor ops
# --------------------------------------------------------------------- #

_concat = primitive("concat")(
    lambda parts, axis: np.concatenate(parts, axis=axis))


def _vjp_concat(g, ans, parts, axis):
    sizes = [part.shape[axis] for part in parts]
    offsets = np.cumsum([0] + sizes)
    grads = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(start, stop)
        grads.append(g[tuple(sl)])  # views: no copy until accumulation
    return grads


defvjp("concat", _vjp_concat)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    return _concat([as_tensor(t) for t in tensors], axis=axis)


_stack = primitive("stack")(lambda parts, axis: np.stack(parts, axis=axis))


def _vjp_stack(g, ans, parts, axis):
    return [np.take(g, i, axis=axis) for i in range(len(parts))]


defvjp("stack", _vjp_stack)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return _stack([as_tensor(t) for t in tensors], axis=axis)


_where = primitive("where")(lambda cond, a, b: np.where(cond, a, b))
defvjp("where", None,
       lambda g, ans, cond, a, b: unbroadcast(g * cond, a.shape),
       lambda g, ans, cond, a, b: unbroadcast(g * (~cond), b.shape))


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    return _where(np.asarray(condition, dtype=bool), as_tensor(a),
                  as_tensor(b))


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-zeros tensor of the given shape (default dtype)."""
    return Tensor(np.zeros(shape, dtype=_default_dtype),
                  requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-ones tensor of the given shape (default dtype)."""
    return Tensor(np.ones(shape, dtype=_default_dtype),
                  requires_grad=requires_grad)


_prims.register_tensor_type(Tensor)
