"""The learnable graph augmentor (paper Sec III-B.1, Eq 4).

Scores every *candidate* edge with an MLP over noise-perturbed, masked
endpoint embeddings:

    h~_u = (h̄_u - ε_u) ⊙ m_u + ε_u,   ε ~ N(0, I),  m ~ Bernoulli(keep)
    p((u,v) | H̄) = σ( MLP([h~_u ‖ h~_v ‖ h~_u ⊙ h~_v]) )

The product block makes the dot-product affinity linearly learnable by
the MLP's first layer.  Under the ``fused`` backend the scorer runs as
one :func:`~repro.autograd.edge_scorer` tape node, whose first layer
projects the end-point blocks per node instead of per edge.

The candidate set is the observed edges plus a budget of sampled
*higher-order* user-item pairs (3-hop reachable pairs), realizing the
paper's "additional edges that capture higher-order collaborative signals".
It is fixed for the model's lifetime, so every sampled view is a subset
of it: :meth:`CandidateEdges.view_pattern` is the one symmetric sparsity
pattern all views share, built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..autograd import MLP, Module, SymmetricPattern, Tensor, cast_like, \
    concat, edge_scorer, fused_kernels_enabled
from ..graph import InteractionGraph


@dataclass(frozen=True)
class CandidateEdges:
    """COO candidate edges over the unified (user+item) node space."""

    user_nodes: np.ndarray      # node ids in [0, I)
    item_nodes: np.ndarray      # node ids in [I, I+J)
    observed: np.ndarray        # bool mask: True for edges present in G

    def __len__(self) -> int:
        return len(self.user_nodes)

    def view_pattern(self, num_nodes: int) -> SymmetricPattern:
        """The symmetric pattern every view of these candidates lives on.

        Pair ``p`` is candidate ``p`` in both directions; built on first
        use and kept on the (immutable) candidate set.
        """
        pattern = self.__dict__.get("_view_pattern")
        if pattern is None or pattern.shape[0] != num_nodes:
            pattern = SymmetricPattern(self.user_nodes, self.item_nodes,
                                       num_nodes)
            object.__setattr__(self, "_view_pattern", pattern)
        return pattern


def build_candidate_edges(graph: InteractionGraph,
                          rng: np.random.Generator,
                          higher_order_budget: float = 0.25,
                          max_candidates_per_user: int = 5
                          ) -> CandidateEdges:
    """Observed edges + sampled 3-hop (u, i) pairs not already observed.

    ``higher_order_budget`` is a fraction of ``|E|``; the extra pairs come
    from ``A A^T A`` (user -> item -> co-user -> item), the shortest
    bipartite path that proposes *new* user-item edges.
    """
    rows, cols = graph.edges()
    n_extra = int(round(higher_order_budget * len(rows)))
    extra_u, extra_i = [], []
    if n_extra > 0:
        reach = (graph.matrix @ graph.matrix.T @ graph.matrix).tocsr()
        reach = reach - reach.multiply(graph.matrix)  # drop observed pairs
        reach.eliminate_zeros()
        users = rng.permutation(graph.num_users)
        for u in users:
            if len(extra_u) >= n_extra:
                break
            start, stop = reach.indptr[u:u + 2]
            items = reach.indices[start:stop]
            weights = reach.data[start:stop]
            if len(items) == 0:
                continue
            k = min(max_candidates_per_user, len(items),
                    n_extra - len(extra_u))
            top = items[np.argsort(-weights)[:k]]
            extra_u.extend([u] * len(top))
            extra_i.extend(top.tolist())
    user_nodes = np.concatenate([rows, np.asarray(extra_u, dtype=np.int64)])
    item_nodes = np.concatenate([cols, np.asarray(extra_i, dtype=np.int64)])
    observed = np.zeros(len(user_nodes), dtype=bool)
    observed[:len(rows)] = True
    return CandidateEdges(user_nodes=user_nodes,
                          item_nodes=item_nodes + graph.num_users,
                          observed=observed)


class LearnableAugmentor(Module):
    """MLP edge scorer with reparameterized embedding perturbation (Eq 4)."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 hidden_dim: int = 32, mask_keep: float = 0.8):
        super().__init__()
        if not 0.0 < mask_keep <= 1.0:
            raise ValueError("mask_keep must be in (0, 1]")
        self.mask_keep = mask_keep
        # input: [h_u ‖ h_v ‖ h_u ⊙ h_v] — the product block makes the
        # dot-product affinity (the natural denoising feature) linearly
        # learnable by the first layer
        self.scorer = MLP([3 * dim, hidden_dim, 1], rng,
                          activation=Tensor.relu)

    def perturb(self, embeddings: Tensor,
                rng: np.random.Generator) -> Tensor:
        """``(h̄ - ε) ⊙ m + ε`` — noise-anchored feature masking (Eq 4).

        The noise is scaled to the embeddings' own standard deviation so
        masked positions carry comparable magnitude to kept ones; unit
        noise would drown the signal at the 0.1-std embedding scale this
        substrate initializes with.
        """
        scale = float(embeddings.data.std()) or 1.0
        noise = cast_like(rng.normal(0.0, scale, size=embeddings.shape),
                          embeddings)
        mask = cast_like(rng.random(embeddings.shape) < self.mask_keep,
                         embeddings)
        return (embeddings - noise) * mask + noise

    def score(self, node_embeddings: Tensor,
              candidates: CandidateEdges) -> Tensor:
        """Raw (pre-sigmoid) scores of ``node_embeddings`` as they are."""
        if fused_kernels_enabled("edge_scorer"):
            first, second = self.scorer.linear_0, self.scorer.linear_1
            return edge_scorer(node_embeddings, candidates.user_nodes,
                               candidates.item_nodes, first.weight,
                               first.bias, second.weight, second.bias)
        head = node_embeddings.take_rows(candidates.user_nodes)
        tail = node_embeddings.take_rows(candidates.item_nodes)
        features = concat([head, tail, head * tail], axis=1)
        return self.scorer(features).reshape(-1)

    def edge_logits(self, node_embeddings: Tensor,
                    candidates: CandidateEdges,
                    rng: np.random.Generator) -> Tensor:
        """Raw (pre-sigmoid) keep scores for every candidate edge."""
        return self.score(self.perturb(node_embeddings, rng), candidates)
