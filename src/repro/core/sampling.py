"""Differentiable graph sampling with reparameterization (paper Eq 5).

Given per-edge keep logits from the augmentor, draw a *relaxed Bernoulli*
score per edge:

    ā = σ( (logit(p) + log ε' - log(1-ε')) / τ1 ),  ε' ~ Uniform(0,1)

then hard-threshold at ``ξ``: edges with ``ā > ξ`` stay in the augmented
view *with their soft weight* (a straight-through style estimator — the
surviving weights keep the gradient path to the augmentor), others are
dropped.  The kept weights are then symmetrically degree-normalized with
degrees computed from the current detached weights.

A view is a weight vector over the candidates' fixed symmetric pattern
(:meth:`~repro.core.augmentor.CandidateEdges.view_pattern`), with the
dropped edges exactly 0.  The pattern's arrays are the same objects for
every view, so :func:`~repro.autograd.weighted_spmm`'s pattern cache
hits on every call and the fused mixhop encode reuses one CSR layout;
the exact zeros leave every product and gradient of the kept edges
bit-identical to a kept-edges-only graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmentor import CandidateEdges
from .mixhop import Propagation
from ..autograd import SymmetricPattern, Tensor, concat, functional as F
from ..graph import normalized_edge_weights


@dataclass
class SampledView:
    """One sampled augmented graph ``G'`` over the fixed candidate pattern."""

    pattern: SymmetricPattern   # shared by every view of the candidates
    edge_logits: Tensor         # the augmentor scores it was drawn from
    edge_weights: Tensor        # normalized soft weight per candidate
                                # (0 where dropped), grad -> augmentor
    keep_mask: np.ndarray       # which candidates survived thresholding
    soft_scores: np.ndarray     # detached relaxed-Bernoulli scores ā

    @property
    def rows(self) -> np.ndarray:
        """COO rows, both directions (the unified adjacency is symmetric)."""
        return self.pattern.rows

    @property
    def cols(self) -> np.ndarray:
        return self.pattern.cols

    @property
    def weights(self) -> Tensor:
        """Per-entry weights aligned with :attr:`rows`/:attr:`cols`."""
        return concat([self.edge_weights, self.edge_weights], axis=0)

    def propagate_fn(self) -> Propagation:
        """Return ``h -> Ã' h`` for this view (used by the mixhop encoder)."""
        return Propagation(self.pattern, self.edge_weights)


def sample_view(edge_logits: Tensor, candidates: CandidateEdges,
                num_nodes: int, rng: np.random.Generator,
                threshold: float = 0.2,
                gumbel_temperature: float = 0.5) -> SampledView:
    """Draw one reparameterized augmented graph from edge keep logits.

    Notes
    -----
    * If thresholding would drop *every* edge, the highest-scoring edge is
      retained so the view never degenerates to an empty graph.
    * Dropped candidates keep their place in the pattern with weight 0.
    """
    relaxed = F.gumbel_sigmoid(edge_logits, rng,
                               temperature=gumbel_temperature)
    keep = relaxed.data > threshold
    if not keep.any():
        keep[int(np.argmax(relaxed.data))] = True
    kept_idx = np.where(keep)[0]
    kept = relaxed.data[kept_idx]

    # symmetric normalization with detached degrees of the kept edges
    norm = normalized_edge_weights(candidates.user_nodes[kept_idx],
                                   candidates.item_nodes[kept_idx],
                                   kept, num_nodes)
    scale = np.zeros(len(candidates), dtype=norm.dtype)
    scale[kept_idx] = np.divide(norm, kept, out=np.zeros_like(norm),
                                where=kept > 1e-12)
    return SampledView(pattern=candidates.view_pattern(num_nodes),
                       edge_logits=edge_logits,
                       edge_weights=relaxed * scale,
                       keep_mask=keep, soft_scores=relaxed.data.copy())
