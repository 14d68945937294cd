"""DGCL (Li et al., NeurIPS'21) — disentangled contrastive learning on graphs.

Factor channels are propagated over two stochastically corrupted views; each
factor is aligned *factor-wise* across the views with InfoNCE (the
"factor-wise discriminative objective").  DGCL's larger parameter footprint
(per-factor projection heads) is what the paper blames for its slow
convergence in Fig 4 — the projections are kept here for that reason.
"""

from __future__ import annotations

import numpy as np

from .base import GraphRecommender
from .disentangled import merge_channels, split_channels
from .registry import MODEL_REGISTRY
from ..autograd import Linear, spmm, functional as F
from ..graph import edge_dropout, symmetric_normalize


@MODEL_REGISTRY.register("dgcl")
class DGCL(GraphRecommender):
    """Factor-wise contrast between corrupted views (disentangled CL)."""
    name = "dgcl"

    def __init__(self, dataset, config=None, seed: int = 0):
        super().__init__(dataset, config, seed)
        dim = self.config.embedding_dim
        k = self.config.num_factors
        width = dim // k
        self.factor_heads = []
        for i in range(k):
            head = Linear(width, width, self.init_rng)
            setattr(self, f"factor_head_{i}", head)
            self.factor_heads.append(head)
        self._view_adjs = None
        self.on_epoch_start(0, self.aug_rng)

    def on_epoch_start(self, epoch: int, rng: np.random.Generator) -> None:
        views = []
        for _ in range(2):
            dropped = edge_dropout(self.dataset.train, self.config.dropout,
                                   self.aug_rng)
            views.append(symmetric_normalize(dropped.bipartite_adjacency(),
                                             add_self_loops=False))
        self._view_adjs = views

    def _propagate_factors(self, adj):
        ego = self.ego_embeddings()
        channels = split_channels(ego, self.config.num_factors)
        outs = []
        for channel in channels:
            current = channel
            acc = channel
            for _ in range(self.config.num_layers):
                current = spmm(adj, current)
                acc = acc + current
            outs.append(acc * (1.0 / (self.config.num_layers + 1)))
        return outs

    def propagate(self):
        final = merge_channels(self._propagate_factors(self.norm_adj))
        return self.split_nodes(final)

    def loss(self, users, pos, neg):
        final = merge_channels(self._propagate_factors(self.norm_adj))
        user_final, item_final = self.split_nodes(final)
        main = self.bpr_loss(user_final, item_final, users, pos, neg)

        factors_a = self._propagate_factors(self._view_adjs[0])
        factors_b = self._propagate_factors(self._view_adjs[1])
        batch_nodes = np.unique(np.concatenate(
            [users, pos + self.num_users, neg + self.num_users]))
        ssl = None
        for head, fa, fb in zip(self.factor_heads, factors_a, factors_b):
            term = F.decomposed_infonce_loss(
                                  head(fa.take_rows(batch_nodes)),
                                  head(fb.take_rows(batch_nodes)),
                                  self.config.temperature,
                                  self.config.negative_weight)
            ssl = term if ssl is None else ssl + term
        ssl = ssl * (1.0 / len(self.factor_heads))
        return (main + self.config.ssl_weight * ssl
                + self.embedding_reg(users, pos, neg))
