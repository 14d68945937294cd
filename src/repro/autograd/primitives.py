"""The open primitive/VJP registry at the heart of the autograd engine.

Every differentiable operation in :mod:`repro.autograd` is a *primitive*:
a named forward function plus one vector-Jacobian-product (VJP) function
per differentiable argument, registered here.  The tape no longer stores
per-op ``backward`` closures — each non-leaf :class:`~repro.autograd
.tensor.Tensor` carries a single generic :class:`Node` recording
``(primitive, arg values, kwargs)``, and reverse mode replays the
registered VJPs.  The registry is the *only* extension point: models and
subsystems never hand-roll gradients (a tier-1 lint enforces this), they
register primitives.

Adding a primitive takes ~10 lines:

>>> import numpy as np
>>> from repro.autograd import Tensor
>>> from repro.autograd.primitives import (primitive, defvjp,
...                                        unregister_primitive)
>>> square = primitive("square_example")(lambda x: x * x)
>>> defvjp("square_example", lambda g, ans, x: g * 2.0 * x)
>>> x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
>>> square(x).sum().backward()
>>> x.grad
array([2., 6.])
>>> unregister_primitive("square_example")  # doctest cleanup

VJP convention
--------------
``vjp(g, ans, *args, **kwargs) -> grad`` where ``g`` is the incoming
cotangent, ``ans`` the forward output and ``args``/``kwargs`` the raw
(numpy-level) forward arguments.  A primitive registered with
``residuals=True`` returns ``(ans, residuals)`` from its forward and its
VJPs receive ``vjp(g, ans, residuals, *args, **kwargs)`` — the hook fused
kernels use to precompute backward work during the forward pass.  A VJP
for a *list-valued* argument (``concat``/``stack``) returns one gradient
per list element.

Backend table
-------------
A primitive may carry several implementations keyed by backend name
(``reference`` is the required default; register others with
:func:`defimpl`).  Selection is per-primitive with a global default:

>>> from repro.autograd.primitives import (defimpl, use_backend,
...                                        selected_backend)
>>> twice = primitive("twice_example")(lambda x: x * 2.0)
>>> defvjp("twice_example", lambda g, ans, x: g * 2.0)
>>> _ = defimpl("twice_example", "turbo")(lambda x: x + x)
>>> with use_backend("turbo"):
...     selected_backend("twice_example")
'turbo'
>>> selected_backend("twice_example")   # back to the default
'reference'
>>> unregister_primitive("twice_example")  # doctest cleanup

The ``REPRO_AUTOGRAD_BACKEND`` environment variable seeds the table at
import time: a bare backend name (``fused``) sets the global default, and
comma-separated ``primitive=backend`` pairs set per-op overrides
(``fused_bpr_loss=fused,light_propagate=reference``).  A primitive
without an implementation for the selected backend falls back to
``reference``, so a global ``fused`` default only affects ops that
actually ship a fused variant.

Profiling
---------
:func:`enable_primitive_profiling` turns on wall-clock accounting of
every primitive application — forward and each VJP call — aggregated per
primitive name under a lock (safe under the sharded serving executor,
unlike the module-level spmm counters this replaces).
:func:`primitive_profile` returns ``{name: {"seconds", "calls",
"vjp_seconds", "vjp_calls"}}``: the first two count forward and VJP
together, the last two the VJP share alone.  The legacy ``spmm_profile``
view in :mod:`repro.autograd.sparse` derives from it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Primitive", "Node", "primitive", "defvjp", "defimpl",
    "get_primitive", "list_primitives", "unregister_primitive",
    "set_default_backend", "set_primitive_backend", "selected_backend",
    "use_backend", "fused_kernels_enabled",
    "enable_primitive_profiling", "reset_primitive_profile",
    "primitive_profile", "primitive_profiling_enabled",
    "is_grad_enabled", "set_grad_enabled",
]

REFERENCE_BACKEND = "reference"

_REGISTRY: Dict[str, "Primitive"] = {}

# the Tensor class is injected by repro.autograd.tensor at import time to
# avoid a circular module dependency (tensor.py registers the core ops
# here, so primitives.py cannot import it back)
_tensor_type: Optional[type] = None

_grad_enabled = True


def register_tensor_type(cls) -> None:
    """Install the Tensor class (called once by ``tensor.py`` at import)."""
    global _tensor_type
    _tensor_type = cls


def is_grad_enabled() -> bool:
    """Return whether primitive applications currently record the tape."""
    return _grad_enabled


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable/disable tape recording (see ``tensor.no_grad``)."""
    global _grad_enabled
    _grad_enabled = bool(enabled)


# --------------------------------------------------------------------- #
# profiling (thread-safe, per-primitive)
# --------------------------------------------------------------------- #

_profile_lock = threading.Lock()
_profile_enabled = False
_profile_counters: Dict[str, Dict[str, float]] = {}


def enable_primitive_profiling(enabled: bool = True) -> None:
    """Toggle wall-clock accounting of every primitive fwd/VJP call."""
    global _profile_enabled
    _profile_enabled = bool(enabled)


def primitive_profiling_enabled() -> bool:
    """Return whether per-primitive wall-clock accounting is on."""
    return _profile_enabled


def reset_primitive_profile(names: Optional[Sequence[str]] = None) -> None:
    """Zero the accumulated counters (all of them, or just ``names``)."""
    with _profile_lock:
        if names is None:
            _profile_counters.clear()
        else:
            for name in names:
                _profile_counters.pop(name, None)


def primitive_profile() -> Dict[str, Dict[str, float]]:
    """Snapshot of the per-primitive counters.

    ``{name: {seconds, calls, vjp_seconds, vjp_calls}}``.  Only
    primitives that have run since the last reset (with profiling
    enabled) appear.  Forward applications and VJP invocations both
    accumulate into ``seconds``/``calls``, so a profiled op's
    ``seconds`` is its total fwd+bwd wall-clock and ``calls`` counts
    both directions; ``vjp_seconds``/``vjp_calls`` are the VJP share
    (a list-valued VJP counts once per tape node).
    """
    with _profile_lock:
        return {name: dict(entry)
                for name, entry in _profile_counters.items()}


def _profile_add(name: str, seconds: float, vjp: bool) -> None:
    with _profile_lock:
        entry = _profile_counters.get(name)
        if entry is None:
            entry = _profile_counters[name] = {
                "seconds": 0.0, "calls": 0, "vjp_seconds": 0.0,
                "vjp_calls": 0}
        entry["seconds"] += seconds
        entry["calls"] += 1
        if vjp:
            entry["vjp_seconds"] += seconds
            entry["vjp_calls"] += 1


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #

_default_backend = REFERENCE_BACKEND
_backend_overrides: Dict[str, str] = {}


def set_default_backend(backend: str) -> None:
    """Set the backend every primitive prefers absent a per-op override."""
    global _default_backend
    _default_backend = str(backend)


def set_primitive_backend(name: str, backend: Optional[str]) -> None:
    """Pin one primitive to ``backend`` (``None`` clears the override)."""
    if backend is None:
        _backend_overrides.pop(name, None)
    else:
        _backend_overrides[name] = str(backend)


def selected_backend(name: str) -> str:
    """The backend currently *selected* for primitive ``name``.

    This is the configured preference; resolution at call time falls back
    to ``reference`` when the primitive has no implementation registered
    under the selected name.
    """
    return _backend_overrides.get(name, _default_backend)


def fused_kernels_enabled(name: str) -> bool:
    """True when ``name``'s selected backend is ``"fused"``.

    The high-level consumers of the fused kernels (``Recommender.
    bpr_loss``, ``light_gcn_propagate``, ``functional.bpr_loss``) gate on
    this: the default tape stays the bit-reproducible composed graph, and
    selecting the ``fused`` backend — via :func:`use_backend`,
    :func:`set_primitive_backend`, ``TrainConfig.autograd_backend`` or
    ``REPRO_AUTOGRAD_BACKEND`` — routes them through the one-node fused
    primitives instead.
    """
    return selected_backend(name) == "fused"


class use_backend:
    """Context manager scoping backend selection to a block.

    ``use_backend("fused")`` swaps the global default;
    ``use_backend("fused", primitives=("spmm",))`` overrides just those
    primitives.  Previous selections are restored on exit.

    >>> from repro.autograd import use_backend, selected_backend
    >>> with use_backend("fused", primitives=("light_propagate",)):
    ...     (selected_backend("light_propagate"), selected_backend("spmm"))
    ('fused', 'reference')
    >>> selected_backend("light_propagate")
    'reference'
    """

    def __init__(self, backend: str,
                 primitives: Optional[Sequence[str]] = None):
        self._backend = backend
        self._primitives = tuple(primitives) if primitives else None

    def __enter__(self):
        if self._primitives is None:
            self._prev = _default_backend
            set_default_backend(self._backend)
        else:
            self._prev = {name: _backend_overrides.get(name)
                          for name in self._primitives}
            for name in self._primitives:
                set_primitive_backend(name, self._backend)
        return self

    def __exit__(self, *exc):
        if self._primitives is None:
            set_default_backend(self._prev)
        else:
            for name, prev in self._prev.items():
                set_primitive_backend(name, prev)
        return False


def configure_from_env(spec: Optional[str] = None) -> None:
    """Apply a ``REPRO_AUTOGRAD_BACKEND``-style selection string.

    A bare backend name sets the global default; ``prim=backend`` pairs
    (comma-separated, mixable with the bare form) set per-op overrides::

        REPRO_AUTOGRAD_BACKEND=fused
        REPRO_AUTOGRAD_BACKEND=fused_bpr_loss=fused,light_propagate=fused
    """
    if spec is None:
        spec = os.environ.get("REPRO_AUTOGRAD_BACKEND", "")
    for entry in (part.strip() for part in spec.split(",")):
        if not entry:
            continue
        if "=" in entry:
            name, backend = entry.split("=", 1)
            set_primitive_backend(name.strip(), backend.strip())
        else:
            set_default_backend(entry)


# --------------------------------------------------------------------- #
# the primitive object and its tape node
# --------------------------------------------------------------------- #

class Primitive:
    """A named differentiable operation: forward impls + per-arg VJPs.

    Instances are callable — applying one to a mix of Tensors and plain
    values runs the selected forward implementation on the raw arrays and
    (when grad is enabled and any Tensor argument requires grad) records
    a generic :class:`Node` on the tape.  Construct via :func:`primitive`
    rather than directly.
    """

    __slots__ = ("name", "impls", "vjps", "residuals", "__weakref__")

    def __init__(self, name: str, impl: Callable, residuals: bool = False):
        self.name = name
        self.impls: Dict[str, Callable] = {REFERENCE_BACKEND: impl}
        self.vjps: Dict[int, Callable] = {}
        self.residuals = bool(residuals)

    def __repr__(self) -> str:
        return (f"Primitive({self.name!r}, "
                f"backends={sorted(self.impls)}, "
                f"vjp_args={sorted(self.vjps)})")

    def impl(self) -> Callable:
        """The forward implementation for the currently selected backend."""
        chosen = self.impls.get(selected_backend(self.name))
        if chosen is None:
            chosen = self.impls[REFERENCE_BACKEND]
        return chosen

    def __call__(self, *args, **kwargs):
        return _apply(self, args, kwargs)


class Node:
    """One generic tape entry: ``(primitive, argument values, kwargs)``.

    Replaces the per-op ``backward`` closures of the closed tape: reverse
    mode reads the recorded values back out and dispatches to the
    primitive's registered VJPs (:func:`backpropagate`).
    """

    __slots__ = ("prim", "vals", "kwargs", "res", "slots")

    def __init__(self, prim: Primitive, vals: tuple, kwargs: dict,
                 res, slots: Tuple[Tuple[int, Optional[int]], ...]):
        self.prim = prim
        self.vals = vals
        self.kwargs = kwargs
        self.res = res
        self.slots = slots


def primitive(name: str, residuals: bool = False):
    """Register a forward implementation under ``name`` (decorator).

    Returns the :class:`Primitive`, which is the callable to use in op
    wrappers.  Re-registering a name replaces the previous primitive.
    Pass ``residuals=True`` when the forward returns ``(ans, residuals)``
    for its VJPs to reuse.

    >>> import numpy as np
    >>> from repro.autograd import (Tensor, primitive, defvjp,
    ...                             unregister_primitive)
    >>> cube = primitive("cube_demo")(lambda x: x ** 3)
    >>> defvjp("cube_demo", lambda g, ans, x: g * 3.0 * x ** 2)
    >>> t = Tensor(np.array([2.0]), requires_grad=True)
    >>> cube(t).backward()
    >>> t.grad
    array([12.])
    >>> unregister_primitive("cube_demo")  # doctest cleanup
    """
    def register(impl: Callable) -> Primitive:
        prim = Primitive(name, impl, residuals=residuals)
        _REGISTRY[name] = prim
        return prim
    return register


def defvjp(prim: "Primitive | str", *vjps: Optional[Callable],
           argnums: Optional[Sequence[int]] = None) -> None:
    """Register per-argument VJP functions for a primitive.

    ``vjps[i]`` differentiates w.r.t. positional argument ``i`` (or
    ``argnums[i]`` when given); ``None`` marks an argument as
    non-differentiable.  See the module docstring for the VJP signature.

    >>> import numpy as np
    >>> from repro.autograd import (Tensor, primitive, defvjp,
    ...                             unregister_primitive)
    >>> scale = primitive("scale_demo")(lambda a, b: a * b)
    >>> defvjp("scale_demo",
    ...        lambda g, ans, a, b: g * b,   # d/da
    ...        lambda g, ans, a, b: g * a)   # d/db
    >>> a = Tensor(np.array([3.0]), requires_grad=True)
    >>> b = Tensor(np.array([5.0]), requires_grad=True)
    >>> scale(a, b).backward()
    >>> (a.grad, b.grad)
    (array([5.]), array([3.]))
    >>> unregister_primitive("scale_demo")  # doctest cleanup
    """
    resolved = get_primitive(prim) if isinstance(prim, str) else prim
    positions = tuple(argnums) if argnums is not None else range(len(vjps))
    for pos, vjp in zip(positions, vjps):
        if vjp is None:
            resolved.vjps.pop(pos, None)
        else:
            resolved.vjps[pos] = vjp


def defimpl(prim: "Primitive | str", backend: str):
    """Register an alternate forward implementation (decorator).

    The new backend must honour the primitive's ``residuals`` contract
    and produce outputs its registered VJPs remain valid for.
    """
    resolved = get_primitive(prim) if isinstance(prim, str) else prim

    def register(impl: Callable) -> Callable:
        resolved.impls[str(backend)] = impl
        return impl
    return register


def get_primitive(name: str) -> Primitive:
    """Look up a registered primitive by name (KeyError with the roster)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no primitive named {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def list_primitives() -> Tuple[str, ...]:
    """Sorted names of every registered primitive."""
    return tuple(sorted(_REGISTRY))


def unregister_primitive(name: str) -> None:
    """Remove a primitive from the registry (tests / doctest cleanup)."""
    _REGISTRY.pop(name, None)


# --------------------------------------------------------------------- #
# apply + generic reverse dispatch
# --------------------------------------------------------------------- #

def _apply(prim: Primitive, args: tuple, kwargs: dict):
    """Run a primitive's forward and record the generic tape node."""
    tensor_type = _tensor_type
    vals = []
    parents = []
    slots = []
    for pos, arg in enumerate(args):
        if isinstance(arg, tensor_type):
            vals.append(arg.data)
            if arg.requires_grad:
                parents.append(arg)
                slots.append((pos, None))
        elif isinstance(arg, (list, tuple)):
            unwrapped = []
            for sub, item in enumerate(arg):
                if isinstance(item, tensor_type):
                    unwrapped.append(item.data)
                    if item.requires_grad:
                        parents.append(item)
                        slots.append((pos, sub))
                else:
                    unwrapped.append(item)
            vals.append(tuple(unwrapped))
        else:
            vals.append(arg)
    vals = tuple(vals)

    impl = prim.impl()
    if _profile_enabled:
        start = time.perf_counter()
        out = impl(*vals, **kwargs)
        _profile_add(prim.name, time.perf_counter() - start, vjp=False)
    else:
        out = impl(*vals, **kwargs)
    res = None
    if prim.residuals:
        out, res = out

    requires = _grad_enabled and bool(parents)
    result = tensor_type(out, requires_grad=requires)
    if requires:
        result._parents = tuple(parents)
        result._node = Node(prim, vals, kwargs, res, tuple(slots))
        result._op = prim.name
    return result


def backpropagate(tensor) -> None:
    """Dispatch one tape node's cotangent to its parents' VJPs.

    Called by ``Tensor.backward`` for every non-leaf in reverse
    topological order.  Raises ``NotImplementedError`` when the node's
    primitive has no VJP registered for a differentiable argument — an
    unregistered gradient fails loudly instead of silently dropping.
    """
    node = tensor._node
    prim = node.prim
    if prim.residuals:
        head = (tensor.grad, tensor.data, node.res)
    else:
        head = (tensor.grad, tensor.data)
    list_grads: Dict[int, Sequence] = {}
    for (pos, sub), parent in zip(node.slots, tensor._parents):
        vjp = prim.vjps.get(pos)
        if vjp is None:
            raise NotImplementedError(
                f"primitive {prim.name!r} has no VJP registered for "
                f"argument {pos}; register one with defvjp()")
        if sub is not None and pos in list_grads:
            grad = list_grads[pos][sub]  # list VJPs run once per node
        else:
            if _profile_enabled:
                start = time.perf_counter()
                out = vjp(*head, *node.vals, **node.kwargs)
                _profile_add(prim.name, time.perf_counter() - start,
                             vjp=True)
            else:
                out = vjp(*head, *node.vals, **node.kwargs)
            if sub is None:
                grad = out
            else:
                list_grads[pos] = out
                grad = out[sub]
        parent._accumulate(grad)


configure_from_env()
