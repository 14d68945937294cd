"""The Graph Mixhop encoder (paper Sec III-C, Eqs 11-13).

The paper describes mixhop propagation twice, at two levels of machinery:

* **Eq 11-13 ("dense" mode)**: each layer concatenates propagated
  embeddings from a set of hops ``M`` (default ``{0, 1, 2}``), with a
  per-hop learnable transform ``W_m`` and a LeakyReLU (slope 0.5).
  Following the Eq 12 simplification, ``W_0`` of the *first* layer is fixed
  to zero.
* **"High-Order Smoothing via Mixhop Propagation" ("light" mode)**: the
  ``(l+1)``-order embedding is "a weighted mixture of the l-order
  embeddings ... the weights of the mixture are determined by ... a mixing
  matrix M [that] is learned to optimize the downstream task".  That is a
  learnable per-layer mixing vector over hop powers, with no dense
  transforms — it stays in the embedding space of the id-embedding tables,
  which is what dot-product scoring needs at small training budgets.

Both are implemented; :class:`MixhopEncoder` defaults to ``mode="light"``
(the one the GraphAug model uses), while ``mode="dense"`` realizes Eq 11-13
literally.  In both modes hop powers are computed iteratively as
``A(A(...(AH)))`` so ``A^m`` is never materialized (Sec III-E).

The adjacency is abstracted as a ``propagate_fn`` callable so the same
encoder runs over a constant scipy matrix (original graph, via ``spmm``) or
a learnable-weight augmented view (via ``weighted_spmm``) — that is what
lets augmentor gradients flow through message passing.  When that callable
is a :class:`Propagation` and the ``fused`` backend is selected for
``mixhop_encode``, a light-mode encode runs as that single tape node
(:func:`~repro.autograd.fused.mixhop_encode`) instead, with a
bit-identical output.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..autograd import (Module, Parameter, Tensor, concat,
                        fused_kernels_enabled, mixhop_encode, spmm,
                        weighted_spmm)
from ..autograd import functional as F
from ..autograd import init as init_schemes


class Propagation:
    """``h -> A h`` over the original graph or a sampled view.

    ``adjacency`` is a constant scipy matrix (``spmm``), or a
    :class:`~repro.autograd.SymmetricPattern` whose per-pair values are
    ``edge_weights`` (``weighted_spmm`` over both directions).  The
    light-mode encoder hands the same operands to the fused kernel.
    """

    def __init__(self, adjacency, edge_weights: Optional[Tensor] = None):
        self.adjacency = adjacency
        self.edge_weights = edge_weights
        self._entry_weights: Optional[Tensor] = None

    def __call__(self, h: Tensor) -> Tensor:
        if self.edge_weights is None:
            return spmm(self.adjacency, h)
        if self._entry_weights is None:
            self._entry_weights = concat(
                [self.edge_weights, self.edge_weights], axis=0)
        pattern = self.adjacency
        return weighted_spmm(pattern.rows, pattern.cols,
                             self._entry_weights, pattern.shape, h)


class MixhopLayer(Module):
    """One dense-mode mixhop layer: ``h' = δ(||_m A^m h W_m)`` (Eq 11)."""

    def __init__(self, dim: int, hops: Sequence[int],
                 rng: np.random.Generator, leaky_slope: float = 0.5,
                 freeze_hop0: bool = False):
        super().__init__()
        self.hops = tuple(hops)
        self.leaky_slope = leaky_slope
        self.freeze_hop0 = freeze_hop0
        # output widths per hop sum to dim (last hop absorbs the remainder)
        base = dim // len(self.hops)
        widths = [base] * len(self.hops)
        widths[-1] += dim - base * len(self.hops)
        self.widths = widths
        self._transforms: List[Parameter] = []
        for idx, width in enumerate(widths):
            if freeze_hop0 and self.hops[idx] == 0:
                weight = Parameter(np.zeros((dim, width)))
                weight.requires_grad = False  # W_0 = 0, per Eq 12
            else:
                weight = Parameter(
                    init_schemes.xavier_uniform((dim, width), rng))
            setattr(self, f"w_hop{self.hops[idx]}", weight)
            self._transforms.append(weight)

    def forward(self, h: Tensor,
                propagate_fn: Callable[[Tensor], Tensor]) -> Tensor:
        pieces = []
        current = h
        reached = 0
        for hop, weight in zip(self.hops, self._transforms):
            # advance the iterated propagation up to this hop count
            while reached < hop:
                current = propagate_fn(current)
                reached += 1
            pieces.append(current @ weight)
        return concat(pieces, axis=1).leaky_relu(self.leaky_slope)


class MixingLayer(Module):
    """One light-mode mixhop layer: ``h' = Σ_m softmax(g)_m A^m h``.

    The learnable gate vector ``g`` is the per-layer row of the paper's
    mixing matrix ``M``; softmax keeps the mixture convex so propagation
    stays a contraction and embeddings stay in the id-embedding space.
    """

    #: initial gate logit for hop 0 — starting the self-hop low makes the
    #: initial mixture behave like a vanilla GCN layer (mostly hops 1-2);
    #: the gates then learn how much self-signal to re-inject.
    HOP0_INIT = -4.0

    def __init__(self, hops: Sequence[int], rng: np.random.Generator):
        super().__init__()
        self.hops = tuple(hops)
        init = np.array([self.HOP0_INIT if hop == 0 else 0.0
                         for hop in self.hops])
        self.gates = Parameter(init)

    def forward(self, h: Tensor,
                propagate_fn: Callable[[Tensor], Tensor]) -> Tensor:
        mix = F.softmax(self.gates.reshape(1, -1)).reshape(-1)
        out = None
        current = h
        reached = 0
        for idx, hop in enumerate(self.hops):
            while reached < hop:
                current = propagate_fn(current)
                reached += 1
            term = current * mix[np.array([idx])]
            out = term if out is None else out + term
        return out


class MixhopEncoder(Module):
    """Stacked mixhop layers; final embedding averages all layer outputs.

    Averaging (rather than taking only ``H^{(L)}``) mirrors the LightGCN
    aggregation every baseline uses, which keeps the "w/o Mixhop" ablation
    an encoder-for-encoder swap — the comparison the paper's Table III
    makes.  Hops must be sorted ascending (they share the iterated
    propagation state).

    Parameters
    ----------
    mode:
        ``"light"`` (default) — learnable hop-mixing gates, no transforms;
        ``"dense"`` — the literal Eq 11-13 encoder with per-hop ``W_m``.
    """

    def __init__(self, dim: int, num_layers: int, hops: Sequence[int],
                 rng: np.random.Generator, leaky_slope: float = 0.5,
                 mode: str = "light"):
        super().__init__()
        hops = tuple(sorted(hops))
        if not hops:
            raise ValueError("need at least one hop")
        if mode not in ("light", "dense"):
            raise ValueError(f"unknown mixhop mode {mode!r}")
        self.mode = mode
        self.hops = hops
        self.num_layers = num_layers
        self.layers: List[Module] = []
        for i in range(num_layers):
            if mode == "dense":
                layer = MixhopLayer(dim, hops, rng, leaky_slope,
                                    freeze_hop0=(i == 0))
            else:
                layer = MixingLayer(hops, rng)
            setattr(self, f"mixhop_{i}", layer)
            self.layers.append(layer)

    def forward(self, ego: Tensor,
                propagate_fn: Callable[[Tensor], Tensor]) -> Tensor:
        if (self.mode == "light" and isinstance(propagate_fn, Propagation)
                and fused_kernels_enabled("mixhop_encode")):
            return mixhop_encode(propagate_fn.adjacency, ego,
                                 [layer.gates for layer in self.layers],
                                 self.hops, propagate_fn.edge_weights)
        outputs = [ego]
        current = ego
        for layer in self.layers:
            current = layer(current, propagate_fn)
            outputs.append(current)
        return sum(outputs[1:], outputs[0]) * (1.0 / len(outputs))
