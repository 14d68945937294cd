"""SGL (Wu et al., SIGIR'21) — self-supervised graph learning for CF.

LightGCN encoder + two stochastically corrupted structural views (edge
dropout by default; node dropout / random-walk variants selectable), aligned
per node with InfoNCE.  Views are resampled at the start of every epoch, as
in the original implementation.
"""

from __future__ import annotations

import numpy as np

from .base import GraphRecommender, light_gcn_propagate
from .registry import MODEL_REGISTRY
from ..autograd import functional as F
from ..graph import edge_dropout, node_dropout, symmetric_normalize


@MODEL_REGISTRY.register("sgl")
class SGL(GraphRecommender):
    """LightGCN + stochastic structural views aligned contrastively."""
    name = "sgl"

    #: corruption operator: "edge", "node"
    augmentation = "edge"

    def __init__(self, dataset, config=None, seed: int = 0):
        super().__init__(dataset, config, seed)
        self._view_adjs = None
        self.on_epoch_start(0, self.aug_rng)

    def on_epoch_start(self, epoch: int, rng: np.random.Generator) -> None:
        """Resample the two corrupted structural views."""
        corrupt = edge_dropout if self.augmentation == "edge" else node_dropout
        views = []
        for _ in range(2):
            dropped = corrupt(self.dataset.train, self.config.dropout,
                              self.aug_rng)
            views.append(symmetric_normalize(dropped.bipartite_adjacency(),
                                             add_self_loops=False))
        self._view_adjs = views

    def propagate(self):
        ego = self.ego_embeddings()
        final = light_gcn_propagate(self.norm_adj, ego,
                                    self.config.num_layers)
        return self.split_nodes(final)

    def _view_embeddings(self):
        ego = self.ego_embeddings()
        return [light_gcn_propagate(adj, ego, self.config.num_layers)
                for adj in self._view_adjs]

    def loss(self, users, pos, neg):
        user_final, item_final = self.propagate()
        main = self.bpr_loss(user_final, item_final, users, pos, neg)

        view_a, view_b = self._view_embeddings()
        batch_users = np.unique(users)
        batch_items = np.unique(np.concatenate([pos, neg])) + self.num_users
        ssl = (F.decomposed_infonce_loss(
                              view_a.take_rows(batch_users),
                              view_b.take_rows(batch_users),
                              self.config.temperature,
                              self.config.negative_weight)
               + F.decomposed_infonce_loss(
                                view_a.take_rows(batch_items),
                                view_b.take_rows(batch_items),
                                self.config.temperature,
                                self.config.negative_weight))
        return (main + self.config.ssl_weight * ssl
                + self.embedding_reg(users, pos, neg))
