"""Fused hot-path kernels registered through the primitive registry.

The bench artifact says where GNN training time goes: the spmm
propagation loop and the BPR loss pipeline.  This module collapses each
into a single tape node — one forward, one VJP dispatch, no intermediate
tensors — registered via the same :func:`~repro.autograd.primitives
.primitive`/:func:`~repro.autograd.primitives.defvjp` mechanism as every
other op, which is exactly the extension point the registry refactor
exists to provide.

All five kernels are **opt-in**: the default tape keeps the composed
(bit-reproducible) graph, and high-level consumers
(``Recommender.bpr_loss``, ``light_gcn_propagate``,
``functional.bpr_loss``, the light-mode ``MixhopEncoder``, the
augmentor's ``LearnableAugmentor.score``) switch to the fused node only
when the ``fused`` backend is selected for it — via
``TrainConfig.autograd_backend``, :class:`~repro.autograd.primitives
.use_backend` or the ``REPRO_AUTOGRAD_BACKEND`` env knob.  Forward
values match the composed path bit-for-bit (:func:`light_propagate`,
:func:`mixhop_encode`) or to float tolerance (the BPR kernels reorder
the dot-product reduction, :func:`edge_scorer` splits the first
layer's); gradients differ only by accumulation order, which is why
selecting them is spec-visible rather than silent.

Why fusing helps without leaving numpy: the composed BPR graph runs
~14 elementwise tape nodes over batch-sized temporaries (two mul+sum
score reductions, neg/softplus/mean and their VJPs, each a python
dispatch plus an allocation); the fused kernel is two einsums forward
and three scaled outer products backward, with the shared logistic
coefficient computed once as a residual.  ``light_propagate`` removes
the per-layer tape nodes and list-sum intermediates, keeping only the
unavoidable csr matvecs (forward) and transposed csr matvecs (VJP).
``mixhop_encode`` does the same for a whole GraphAug encode, gates and
learnable view weights included: ~50 composed tape nodes per encode
become one, and a view's CSR is gathered once per encode from the fixed
pattern's layout instead of once per hop.  Its VJP takes each hop's
edge-weight gradient per pair, ``<g[h], x[t]> + <g[t], x[h]>`` over the
pattern's heads and tails, with no per-entry copy of the cotangent.
``edge_scorer`` is the augmentor's two-layer MLP over
``[h_u ‖ h_v ‖ h_u⊙h_v]`` with its first layer factorized: the
end-point blocks become per-node projections gathered per edge, so no
``E x 3d`` feature matrix is built and only a third of the first
layer's ``E``-row GEMMs remain, forward and backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .primitives import defvjp, primitive
from .sparse import _cached_csr_pair
from .tensor import Tensor, _logsumexp_fwd, as_tensor, scatter_rows


def _logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid (shared by the BPR kernel VJPs)."""
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0)) /
                    (1.0 + np.exp(np.clip(x, None, 0))))


# --------------------------------------------------------------------- #
# fused BPR loss
# --------------------------------------------------------------------- #

def _fused_bpr_loss_fwd(u, vp, vn):
    x = np.einsum("nd,nd->n", u, vp) - np.einsum("nd,nd->n", u, vn)
    loss = np.logaddexp(0.0, -x).mean()
    # dloss/dx, shared by all three VJPs; computing it here (the
    # residuals hook) is the fusion win: backward is three scaled
    # outer products instead of replaying the elementwise chain
    coef = -_logistic(-x) / x.shape[0]
    return np.asarray(loss, dtype=u.dtype), coef.astype(u.dtype, copy=False)


_fused_bpr_loss = primitive("fused_bpr_loss", residuals=True)(
    _fused_bpr_loss_fwd)
defvjp("fused_bpr_loss",
       lambda g, ans, coef, u, vp, vn: (g * coef)[:, None] * (vp - vn),
       lambda g, ans, coef, u, vp, vn: (g * coef)[:, None] * u,
       lambda g, ans, coef, u, vp, vn: (-g * coef)[:, None] * u)


def fused_bpr_loss(user: Tensor, pos_item: Tensor, neg_item: Tensor) -> Tensor:
    """BPR loss + grad over embedding triplets as one tape node.

    ``mean(softplus(-(u·vp - u·vn)))`` for row-aligned ``(n, d)``
    embedding batches.  Equivalent to the composed
    ``F.bpr_loss((u * vp).sum(1), (u * vn).sum(1))`` graph within float
    tolerance (the einsum reduction reorders the dot products).

    >>> import numpy as np
    >>> from repro.autograd import Tensor, fused_bpr_loss
    >>> u = Tensor(np.full((2, 3), 0.1), requires_grad=True)
    >>> loss = fused_bpr_loss(u, Tensor(np.ones((2, 3))),
    ...                       Tensor(np.zeros((2, 3))))
    >>> round(loss.item(), 4)   # softplus(-0.3)
    0.5544
    >>> loss.backward()
    >>> u.grad.shape
    (2, 3)
    """
    return _fused_bpr_loss(as_tensor(user), as_tensor(pos_item),
                           as_tensor(neg_item))


def _fused_bpr_scores_fwd(pos, neg):
    x = pos - neg
    loss = np.logaddexp(0.0, -x).mean()
    coef = -_logistic(-x) / x.size
    return np.asarray(loss, dtype=pos.dtype), coef.astype(pos.dtype,
                                                          copy=False)


_fused_bpr_scores = primitive("fused_bpr_scores", residuals=True)(
    _fused_bpr_scores_fwd)
defvjp("fused_bpr_scores",
       lambda g, ans, coef, pos, neg: g * coef,
       lambda g, ans, coef, pos, neg: -g * coef)


def fused_bpr_scores(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Score-level fused BPR: ``mean(softplus(neg - pos))`` in one node.

    The drop-in fused form of :func:`repro.autograd.functional.bpr_loss`
    for models that already hold score vectors rather than embedding
    triplets.
    """
    return _fused_bpr_scores(as_tensor(pos_scores), as_tensor(neg_scores))


# --------------------------------------------------------------------- #
# fused propagate-and-pool
# --------------------------------------------------------------------- #

def _light_propagate_fwd(adjacency, ego, num_layers):
    csr, _ = _cached_csr_pair(adjacency, ego.dtype)
    out = ego
    h = ego
    for _ in range(num_layers):
        h = csr @ h
        out = out + h
    return out * (1.0 / (num_layers + 1))


def _vjp_light_propagate(g, ans, adjacency, ego, num_layers):
    _, csr_t = _cached_csr_pair(adjacency, ego.dtype)
    scaled = g * (1.0 / (num_layers + 1))
    total = scaled
    acc = scaled
    for _ in range(num_layers):
        acc = csr_t @ acc
        total = total + acc
    return total


_light_propagate = primitive("light_propagate")(_light_propagate_fwd)
defvjp("light_propagate", None, _vjp_light_propagate)


def light_propagate(adjacency, ego: Tensor, num_layers: int) -> Tensor:
    """LightGCN propagation + mean-pool as one tape node.

    Forward equals ``mean_k(A^k ego, k=0..num_layers)`` with the exact
    accumulation order of the composed spmm loop (bit-identical output);
    the VJP runs the transposed csr matvec chain
    ``sum_k (A^T)^k g / (L+1)`` without materializing per-layer tape
    nodes, so gradient accumulation order (only) differs from the
    composed graph.  Counts toward the spmm profile family.

    >>> import numpy as np, scipy.sparse as sp
    >>> from repro.autograd import Tensor, light_propagate
    >>> adj = sp.eye(3, format="csr") * 2.0
    >>> ego = Tensor(np.ones((3, 1)), requires_grad=True)
    >>> light_propagate(adj, ego, 2).data.ravel()  # (1 + 2 + 4) / 3
    array([2.33333333, 2.33333333, 2.33333333])
    """
    return _light_propagate(adjacency, as_tensor(ego),
                            num_layers=int(num_layers))


# --------------------------------------------------------------------- #
# fused light-mode mixhop encode
# --------------------------------------------------------------------- #

def _mixhop_encode_fwd(adjacency, operands, hops):
    ego, weights, *gates = operands
    if weights is None:
        csr, csr_t = _cached_csr_pair(adjacency, ego.dtype)
    else:
        csr = csr_t = adjacency.csr(weights)  # symmetric by construction
    total = current = ego
    layers = []
    for gate in gates:
        # the composed softmax's float ops: exp(x + (-logsumexp(x)))
        row = gate.reshape(1, -1)
        mix = np.exp(row + (-_logsumexp_fwd(row, -1, True)[0])).reshape(-1)
        states = [current]
        for _ in range(hops[-1]):
            states.append(csr @ states[-1])
        out = None
        for idx, hop in enumerate(hops):
            term = states[hop] * mix[idx]
            out = term if out is None else out + term
        layers.append((states, mix))
        current = out
        total = total + current
    scale = np.asarray(1.0 / (len(gates) + 1), dtype=ego.dtype)
    return total * scale, (csr_t, layers)


def _vjp_mixhop_encode(g, ans, res, adjacency, operands, hops):
    csr_t, layers = res
    weights = operands[1]
    g_mean = g * np.asarray(1.0 / (len(layers) + 1), dtype=g.dtype)
    if weights is not None:
        # d weight[p] = sum over hops of <grad[h], state[t]> (forward
        # entry) + <grad[t], state[h]> (mirror entry); the two entries
        # keep separate accumulators, each summed over hops in order.
        # np.take gathers the same rows as fancy indexing, ~2x faster
        heads = adjacency.rows[:adjacency.num_pairs]
        tails = adjacency.cols[:adjacency.num_pairs]
        fwd_grads = np.zeros(adjacency.num_pairs, dtype=weights.dtype)
        mirror_grads = np.zeros_like(fwd_grads)
    gate_grads = []
    carry = g_mean  # cotangent of the current layer's output
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
            if weights is not None:
                state = states[k - 1]
                fwd_grads += np.einsum("pd,pd->p", np.take(grad, heads, 0),
                                       np.take(state, tails, 0))
                mirror_grads += np.einsum("pd,pd->p", np.take(grad, tails, 0),
                                          np.take(state, heads, 0))
            grad = csr_t @ grad
        carry = grad + g_mean  # each layer input is also a pooled output
    weight_grad = None if weights is None else fwd_grads + mirror_grads
    return [carry, weight_grad, *reversed(gate_grads)]


_mixhop_encode = primitive("mixhop_encode", residuals=True)(
    _mixhop_encode_fwd)
defvjp("mixhop_encode", None, _vjp_mixhop_encode)


def mixhop_encode(adjacency, ego: Tensor, gates, hops,
                  edge_weights: Optional[Tensor] = None) -> Tensor:
    """A whole light-mode mixhop encode as one tape node.

    ``L = len(gates)`` layers of ``h' = sum_m softmax(gate)_m A^m h``
    over the sorted ``hops``, then the mean of ``ego`` and every layer
    output: the composed :class:`~repro.core.mixhop.MixhopEncoder`
    forward, with the same float ops in the same order (bit-identical
    output).  ``adjacency`` is a constant scipy matrix, or a
    :class:`~repro.autograd.sparse.SymmetricPattern` whose per-pair
    values are ``edge_weights`` (a sampled view).  The VJP walks the
    layers backwards once, producing the ``ego``, gate and edge-weight
    gradients together; it reuses the forward CSR of a pattern, which is
    symmetric.  Gradients differ from the composed graph only by
    accumulation order.  Counts toward the spmm profile family.

    >>> import numpy as np, scipy.sparse as sp
    >>> from repro.autograd import Tensor, mixhop_encode
    >>> adj = sp.eye(3, format="csr") * 2.0
    >>> gate = Tensor(np.zeros(2), requires_grad=True)   # mix = (0.5, 0.5)
    >>> out = mixhop_encode(adj, Tensor(np.ones((3, 1))), [gate], (0, 1))
    >>> out.data.ravel()   # (1 + (0.5 * 1 + 0.5 * 2)) / 2
    array([1.25, 1.25, 1.25])
    """
    hops = tuple(sorted(int(hop) for hop in hops))
    if not hops:
        raise ValueError("need at least one hop")
    operands = [as_tensor(ego),
                None if edge_weights is None else as_tensor(edge_weights),
                *(as_tensor(gate) for gate in gates)]
    return _mixhop_encode(adjacency, operands, hops=hops)


# --------------------------------------------------------------------- #
# fused factorized edge scorer
# --------------------------------------------------------------------- #

def _end_selection(heads, tails, num_nodes, dtype):
    """The ``(E, 2N)`` 0/1 matrix picking ``heads[e]`` and ``N + tails[e]``.

    Times the stacked per-node tables ``[T_head; T_tail]`` it is a
    gather-and-add in one csr pass; its transpose is the matching
    scatter.
    """
    picks = np.stack([heads, tails + num_nodes], axis=1).ravel()
    return sp.csr_matrix((np.ones(picks.shape[0], dtype=dtype), picks,
                          np.arange(0, picks.shape[0] + 1, 2)),
                         shape=(heads.shape[0], 2 * num_nodes))


def _edge_scorer_fwd(operands, heads, tails):
    nodes, w1, b1, w2, b2 = operands
    dim = nodes.shape[1]
    head = np.take(nodes, heads, 0)
    tail = np.take(nodes, tails, 0)
    prod = head * tail
    ends = _end_selection(heads, tails, nodes.shape[0], nodes.dtype)
    # [h_u ‖ h_v ‖ h_u⊙h_v] W1 + b1
    #   = (H W_a + b1)[u] + (H W_b)[v] + (h_u⊙h_v) W_c
    hidden = ends @ np.concatenate([nodes @ w1[:dim] + b1,
                                    nodes @ w1[dim:2 * dim]])
    hidden += prod @ w1[2 * dim:]
    np.maximum(hidden, 0, out=hidden)
    return hidden @ w2[:, 0] + b2, (head, tail, prod, hidden, ends)


def _vjp_edge_scorer(g, ans, res, operands, heads, tails):
    nodes, w1, b1, w2, b2 = operands
    head, tail, prod, hidden, ends = res
    num_nodes, dim = nodes.shape
    d_hidden = np.outer(g, w2[:, 0])
    d_hidden *= hidden > 0
    # per-node sums of d_hidden over each node's head / tail edges
    by_head, by_tail = np.split(ends.T @ d_hidden, 2)
    d_prod = d_hidden @ w1[2 * dim:].T
    d_nodes = by_head @ w1[:dim].T + by_tail @ w1[dim:2 * dim].T
    d_nodes += scatter_rows(d_prod * tail, heads, num_nodes)
    d_nodes += scatter_rows(d_prod * head, tails, num_nodes)
    d_w1 = np.concatenate([nodes.T @ by_head, nodes.T @ by_tail,
                           prod.T @ d_hidden])
    # every edge has one head, so by_head's rows sum to d_hidden's
    return [d_nodes, d_w1, by_head.sum(axis=0), (hidden.T @ g)[:, None],
            g.sum(keepdims=True)]


_edge_scorer = primitive("edge_scorer", residuals=True)(_edge_scorer_fwd)
defvjp("edge_scorer", _vjp_edge_scorer)


def edge_scorer(nodes: Tensor, heads: np.ndarray, tails: np.ndarray,
                w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu([h_u ‖ h_v ‖ h_u⊙h_v] W1 + b1) W2 + b2`` per edge, one node.

    Scores edge ``e = (heads[e], tails[e])`` from the rows of ``nodes``
    (``(N, d)``) through a two-layer MLP with ``W1`` of shape
    ``(3d, h)`` and ``W2`` of shape ``(h, 1)``, returning ``(E,)``
    logits.  The first layer is factorized: its head and tail blocks
    are ``N``-row projections gathered per edge, so only the product
    block is an ``E``-row GEMM and no ``E x 3d`` feature matrix exists,
    forward or backward.  Equal to the composed ``MLP`` over the
    concatenated features within float tolerance (the first layer's
    reduction is split in three).

    >>> import numpy as np
    >>> from repro.autograd import Tensor, edge_scorer
    >>> nodes = Tensor(np.ones((3, 1)))
    >>> w1 = Tensor(np.array([[1.0], [2.0], [3.0]]))   # d = 1, h = 1
    >>> edge_scorer(nodes, np.array([0]), np.array([2]), w1,
    ...             Tensor(np.zeros(1)), Tensor(np.ones((1, 1))),
    ...             Tensor(np.zeros(1))).data   # relu(1 + 2 + 3)
    array([6.])
    """
    operands = [as_tensor(t) for t in (nodes, w1, b1, w2, b2)]
    return _edge_scorer(operands, heads=np.asarray(heads, dtype=np.int64),
                        tails=np.asarray(tails, dtype=np.int64))
