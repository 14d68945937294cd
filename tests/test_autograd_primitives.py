"""Combo-check sweep over the primitive registry.

The classic ``autograd``-package discipline: every operation "must be
primitive, have gradient implemented" — so this module sweeps **every
registered primitive** through finite-difference :func:`gradcheck`
across dtypes and broadcast shapes, and a completeness check fails the
build when a primitive is registered without a combo case (or a VJP).
An op added without a gradient cannot slip through silently.
"""

import itertools as it

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (SymmetricPattern, Tensor, concat, defvjp,
                            edge_scorer, fused_bpr_loss, fused_bpr_scores,
                            gradcheck,
                            light_propagate, list_primitives, mixhop_encode,
                            primitive, spmm, stack, unregister_primitive,
                            weighted_spmm, where)
from repro.autograd.primitives import get_primitive


def _arr(shape, seed, positive=False, spread=False, zeros=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if spread:  # distinct magnitudes: keeps max/abs/relu away from ties
        data = data + np.linspace(0.3, 2.7, num=int(np.prod(shape))
                                  ).reshape(shape) * np.sign(data + 1e-9)
    if positive:
        data = np.abs(data) + 0.5
    if zeros:  # exact zeros at seeded positions (dropped edges)
        data.flat[rng.permutation(data.size)[:zeros]] = 0.0
    return data


def _scalarize(out: Tensor) -> Tensor:
    """Deterministic scalar head for non-scalar primitive outputs."""
    w = np.random.default_rng(out.data.size).normal(size=out.shape)
    return (out * Tensor(w.astype(out.data.dtype))).sum()


_ADJ = sp.random(6, 6, density=0.4, random_state=7, format="csr")
_WS_ROWS = np.array([0, 1, 2, 2, 3], dtype=np.int64)
_WS_COLS = np.array([1, 2, 0, 3, 1], dtype=np.int64)
_WS_DUP_ROWS = np.array([0, 1, 0], dtype=np.int64)
_WS_DUP_COLS = np.array([1, 2, 1], dtype=np.int64)  # duplicate (0, 1)
_COND = np.random.default_rng(21).random((3, 4)) > 0.5

#: a 3-user x 3-item bipartite view pattern over 6 unified nodes
_PATTERN = SymmetricPattern(np.array([0, 0, 1, 2, 2, 1]),
                            np.array([3, 4, 4, 5, 3, 5]), 6)
#: dropped share of n edge values: none, half, all but one
_DROPPED = {"none": lambda n: 0, "half": lambda n: n // 2,
            "all-but-one": lambda n: n - 1}


def _constant_adjacency(dropped):
    """A non-symmetric constant graph with dropped values stored as 0."""
    adj = sp.random(6, 6, density=0.4, random_state=7, format="csr")
    adj.data = _arr(adj.data.shape, 70, positive=True,
                    zeros=dropped(adj.nnz))
    return adj


def _mixhop_cases():
    """combo_check-style product: hops x layers x graph x dropped share."""
    cases = []
    for hops, layers, graph, (share, dropped) in it.product(
            ((0, 1, 2), (1, 2), (0, 2)), (1, 3), ("constant", "weights"),
            _DROPPED.items()):
        gate_specs = [((len(hops),), 71 + i, {}) for i in range(layers)]
        if graph == "constant":
            def fn(ego, *gates, _adj=_constant_adjacency(dropped), _h=hops):
                return _scalarize(mixhop_encode(_adj, ego, gates, _h))
            specs = [((6, 3), 65, {})] + gate_specs
        else:
            def fn(ego, weights, *gates, _h=hops):
                return _scalarize(mixhop_encode(_PATTERN, ego, gates, _h,
                                                edge_weights=weights))
            specs = [((6, 3), 65, {}),
                     ((_PATTERN.num_pairs,), 66,
                      {"zeros": dropped(_PATTERN.num_pairs)})] \
                + gate_specs
        case_id = f"hops{''.join(map(str, hops))}-L{layers}-{graph}-{share}"
        cases.append((case_id, fn, specs))
    return cases


#: (heads, tails) over 7 nodes: repeated ids and a repeated pair, with
#: node 6 in no candidate; then a single candidate (E_c = 1)
_SCORER_EDGES = {
    "repeated-ids-isolated-node": (np.array([0, 0, 1, 2, 2, 1, 0]),
                                   np.array([3, 4, 4, 5, 3, 5, 3])),
    "single-edge": (np.array([1]), np.array([4])),
}


def _edge_scorer_cases():
    """Nodes (7, 3) -> hidden 4 -> 1 for each candidate layout."""
    cases = []
    for case_id, (heads, tails) in _SCORER_EDGES.items():
        def fn(nodes, w1, b1, w2, b2, _h=heads, _t=tails):
            return _scalarize(edge_scorer(nodes, _h, _t, w1, b1, w2, b2))
        specs = [((7, 3), 80, {}), ((9, 4), 81, {}), ((4,), 82, {}),
                 ((4, 1), 83, {}), ((1,), 84, {})]
        cases.append((case_id, fn, specs))
    return cases


#: primitive name -> list of (case_id, fn, input specs); every input spec
#: is (shape, seed, kwargs-for-_arr) and becomes a requires_grad Tensor
CASES = {
    "add": [
        ("same", lambda a, b: _scalarize(a + b),
         [((3, 4), 0, {}), ((3, 4), 1, {})]),
        ("bcast-row", lambda a, b: _scalarize(a + b),
         [((3, 4), 2, {}), ((4,), 3, {})]),
        ("bcast-outer", lambda a, b: _scalarize(a + b),
         [((3, 1), 4, {}), ((1, 4), 5, {})]),
    ],
    "neg": [("basic", lambda a: _scalarize(-a), [((3, 4), 6, {})])],
    "mul": [
        ("same", lambda a, b: _scalarize(a * b),
         [((3, 4), 7, {}), ((3, 4), 8, {})]),
        ("bcast", lambda a, b: _scalarize(a * b),
         [((3, 1), 9, {}), ((1, 4), 10, {})]),
        ("scalar", lambda a: _scalarize(a * 2.5), [((3, 4), 11, {})]),
    ],
    "div": [
        ("same", lambda a, b: _scalarize(a / b),
         [((3, 4), 12, {}), ((3, 4), 13, {"positive": True})]),
        ("bcast", lambda a, b: _scalarize(a / b),
         [((3, 4), 14, {}), ((4,), 15, {"positive": True})]),
    ],
    "pow": [("fractional", lambda a: _scalarize(a ** 2.5),
             [((3, 4), 16, {"positive": True})])],
    "exp": [("basic", lambda a: _scalarize(a.exp()), [((3, 4), 17, {})])],
    "log": [("basic", lambda a: _scalarize(a.log()),
             [((3, 4), 18, {"positive": True})])],
    "sqrt": [("basic", lambda a: _scalarize(a.sqrt()),
              [((3, 4), 19, {"positive": True})])],
    "sigmoid": [("basic", lambda a: _scalarize(a.sigmoid()),
                 [((3, 4), 20, {})])],
    "tanh": [("basic", lambda a: _scalarize(a.tanh()), [((3, 4), 21, {})])],
    "relu": [("basic", lambda a: _scalarize(a.relu()),
              [((3, 4), 22, {"spread": True})])],
    "leaky_relu": [("slope", lambda a: _scalarize(a.leaky_relu(0.3)),
                    [((3, 4), 23, {"spread": True})])],
    "softplus": [("basic", lambda a: _scalarize(a.softplus()),
                  [((3, 4), 24, {})])],
    "abs": [("basic", lambda a: _scalarize(a.abs()),
             [((3, 4), 25, {"spread": True})])],
    "clamp": [("both", lambda a: _scalarize(a.clamp(-1.3, 1.3)),
               [((3, 4), 26, {"spread": True})])],
    "sum": [
        ("all", lambda a: a.sum(), [((3, 4), 27, {})]),
        ("axis", lambda a: _scalarize(a.sum(axis=1)), [((3, 4), 28, {})]),
        ("keepdims", lambda a: _scalarize(a.sum(axis=0, keepdims=True)),
         [((3, 4), 29, {})]),
    ],
    "mean": [
        ("all", lambda a: a.mean(), [((3, 4), 30, {})]),
        ("axis", lambda a: _scalarize(a.mean(axis=0)), [((3, 4), 31, {})]),
    ],
    "max": [
        ("all", lambda a: a.max(), [((3, 4), 32, {"spread": True})]),
        ("axis", lambda a: _scalarize(a.max(axis=1)),
         [((3, 4), 33, {"spread": True})]),
    ],
    "logsumexp": [
        ("axis", lambda a: _scalarize(a.logsumexp(axis=1)),
         [((3, 4), 34, {})]),
        ("keepdims", lambda a: _scalarize(a.logsumexp(axis=0,
                                                      keepdims=True)),
         [((3, 4), 35, {})]),
    ],
    "matmul": [
        ("mat-mat", lambda a, b: _scalarize(a @ b),
         [((3, 4), 36, {}), ((4, 5), 37, {})]),
        ("mat-vec", lambda a, b: _scalarize(a @ b),
         [((3, 4), 38, {}), ((4,), 39, {})]),
        ("vec-mat", lambda a, b: _scalarize(a @ b),
         [((4,), 40, {}), ((4, 5), 41, {})]),
    ],
    "transpose": [("basic", lambda a: _scalarize(a.T), [((3, 4), 42, {})])],
    "reshape": [("basic", lambda a: _scalarize(a.reshape(4, 3)),
                 [((3, 4), 43, {})])],
    "take_rows": [("repeated", lambda a: _scalarize(
        a.take_rows(np.array([0, 2, 2, 4, 1]))), [((5, 3), 44, {})])],
    "getitem": [
        ("fancy-pair", lambda a: _scalarize(
            a[np.arange(3), np.arange(3)]), [((3, 4), 45, {})]),
        ("mask", lambda a: _scalarize(a[_COND]), [((3, 4), 46, {})]),
    ],
    "concat": [("axis0", lambda a, b, c: _scalarize(
        concat([a, b, c], axis=0)),
        [((2, 3), 47, {}), ((1, 3), 48, {}), ((3, 3), 49, {})])],
    "stack": [("axis0", lambda a, b: _scalarize(stack([a, b], axis=0)),
               [((3, 4), 50, {}), ((3, 4), 51, {})])],
    "where": [("bcast", lambda a, b: _scalarize(where(_COND, a, b)),
               [((3, 4), 52, {}), ((1, 4), 53, {})])],
    "spmm": [("dense-grad", lambda x: _scalarize(spmm(_ADJ, x)),
              [((6, 3), 54, {})])],
    "weighted_spmm": [
        ("pattern", lambda v, x: _scalarize(
            weighted_spmm(_WS_ROWS, _WS_COLS, v, (4, 4), x)),
         [((5,), 55, {}), ((4, 3), 56, {})]),
        ("duplicates", lambda v, x: _scalarize(
            weighted_spmm(_WS_DUP_ROWS, _WS_DUP_COLS, v, (3, 3), x)),
         [((3,), 57, {}), ((3, 2), 58, {})]),
    ],
    "fused_bpr_loss": [("triplet", fused_bpr_loss,
                        [((7, 5), 59, {}), ((7, 5), 60, {}),
                         ((7, 5), 61, {})])],
    "fused_bpr_scores": [("scores", fused_bpr_scores,
                          [((9,), 62, {}), ((9,), 63, {})])],
    "light_propagate": [("two-layer", lambda e: _scalarize(
        light_propagate(_ADJ, e, 2)), [((6, 3), 64, {})])],
    "mixhop_encode": _mixhop_cases(),
    "edge_scorer": _edge_scorer_cases(),
}

SWEEP = [(name, case_id, fn, specs)
         for name, cases in sorted(CASES.items())
         for case_id, fn, specs in cases]
SWEEP_IDS = [f"{name}-{case_id}" for name, case_id, _, _ in SWEEP]


def _build_inputs(specs, dtype):
    return tuple(Tensor(_arr(shape, seed, **kw).astype(dtype),
                        requires_grad=True)
                 for shape, seed, kw in specs)


class TestComboSweep:
    @pytest.mark.parametrize("name,case_id,fn,specs", SWEEP, ids=SWEEP_IDS)
    def test_float64_gradcheck(self, name, case_id, fn, specs):
        inputs = _build_inputs(specs, np.float64)
        assert gradcheck(fn, inputs)

    @pytest.mark.parametrize("name,case_id,fn,specs", SWEEP, ids=SWEEP_IDS)
    def test_float32_matches_float64_analytic(self, name, case_id, fn,
                                              specs):
        ref = _build_inputs(specs, np.float64)
        fn(*ref).backward()
        low = _build_inputs(specs, np.float32)
        out = fn(*low)
        assert out.data.dtype == np.float32  # no silent promotion
        out.backward()
        for t64, t32 in zip(ref, low):
            assert t32.grad.dtype == np.float32
            np.testing.assert_allclose(t32.grad, t64.grad,
                                       rtol=2e-3, atol=2e-4)


class TestRegistryCompleteness:
    def test_every_primitive_has_a_combo_case(self):
        missing = set(list_primitives()) - set(CASES)
        assert not missing, (
            f"primitives registered without a combo-check case: "
            f"{sorted(missing)} — add one to CASES so its VJPs are swept")

    def test_every_case_names_a_registered_primitive(self):
        stale = set(CASES) - set(list_primitives())
        assert not stale, f"combo cases for unregistered primitives: {stale}"

    def test_every_differentiable_primitive_has_vjps(self):
        missing = [name for name in list_primitives()
                   if not get_primitive(name).vjps]
        assert not missing, f"primitives with no VJPs at all: {missing}"


class TestLoudFailures:
    def test_missing_vjp_raises_not_implemented(self):
        prim = primitive("_test_no_vjp")(lambda x: x * 2.0)
        try:
            out = prim(Tensor(np.ones(3), requires_grad=True))
            with pytest.raises(NotImplementedError, match="_test_no_vjp"):
                out.sum().backward()
        finally:
            unregister_primitive("_test_no_vjp")

    def test_partial_vjp_raises_for_uncovered_argument(self):
        prim = primitive("_test_partial_vjp")(lambda a, b: a + b)
        defvjp("_test_partial_vjp", lambda g, ans, a, b: g)  # arg 0 only
        try:
            x = Tensor(np.ones(3), requires_grad=True)
            y = Tensor(np.ones(3), requires_grad=True)
            with pytest.raises(NotImplementedError, match="argument 1"):
                prim(x, y).sum().backward()
        finally:
            unregister_primitive("_test_partial_vjp")

    def test_wrong_vjp_fails_gradcheck(self):
        prim = primitive("_test_wrong_vjp")(lambda x: x * 3.0)
        defvjp("_test_wrong_vjp", lambda g, ans, x: g * 2.0)  # should be 3
        try:
            x = Tensor(np.random.default_rng(0).normal(size=4),
                       requires_grad=True)
            with pytest.raises(AssertionError, match="gradient mismatch"):
                gradcheck(lambda t: prim(t).sum(), (x,))
        finally:
            unregister_primitive("_test_wrong_vjp")

    def test_unknown_primitive_lookup_names_roster(self):
        with pytest.raises(KeyError, match="no primitive named"):
            get_primitive("_never_registered")
