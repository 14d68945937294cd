"""NCL (Lin et al., WWW'22) — neighborhood-enriched contrastive learning.

Two contrastive signals on top of a LightGCN encoder:

* **structural**: a node's layer-0 embedding is contrasted with its
  even-hop (layer-2) propagated embedding — its structural neighbourhood;
* **semantic (prototype)**: an EM step clusters node embeddings with
  k-means every few epochs; each node is contrasted against its prototype.

The paper calls out NCL's reliance on "accurate clustering results ... biased
towards high-degree nodes", which the Table V bench probes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import GraphRecommender, light_gcn_propagate
from .registry import MODEL_REGISTRY
from ..autograd import Tensor, concat, no_grad, spmm, functional as F


def kmeans(points: np.ndarray, num_clusters: int,
           rng: np.random.Generator, num_iterations: int = 10
           ) -> tuple:
    """Plain Lloyd's k-means; returns (centroids, assignment)."""
    n = points.shape[0]
    k = min(num_clusters, n)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(num_iterations):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        new_assign = dists.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assign


@MODEL_REGISTRY.register("ncl")
class NCL(GraphRecommender):
    """LightGCN + structural-neighbour and k-means prototype contrast."""
    name = "ncl"

    #: epochs between EM (k-means) prototype refreshes
    em_interval = 5
    #: weight of the structural neighbour contrast.  Kept small: aligning
    #: layer-0 with layer-2 embeddings is an explicit smoothing pressure
    #: that collapses ranking quality on dense miniature graphs.
    structural_weight = 0.002
    #: weight of the prototype contrast
    prototype_weight = 0.01

    def __init__(self, dataset, config=None, seed: int = 0):
        super().__init__(dataset, config, seed)
        self._user_protos: Optional[np.ndarray] = None
        self._item_protos: Optional[np.ndarray] = None
        self._user_assign: Optional[np.ndarray] = None
        self._item_assign: Optional[np.ndarray] = None

    def propagate(self):
        ego = self.ego_embeddings()
        final = light_gcn_propagate(self.norm_adj, ego,
                                    self.config.num_layers)
        return self.split_nodes(final)

    def _layer_embeddings(self):
        """Per-layer propagated embeddings (layer 0 .. L)."""
        current = self.ego_embeddings()
        layers = [current]
        for _ in range(max(2, self.config.num_layers)):
            current = spmm(self.norm_adj, current)
            layers.append(current)
        return layers

    def on_epoch_start(self, epoch: int, rng: np.random.Generator) -> None:
        if epoch % self.em_interval not in (0, 1) \
                and self._user_protos is not None:
            return
        with no_grad():
            users, items = self.propagate()
        self._user_protos, self._user_assign = kmeans(
            users.data, self.config.num_clusters, self.aug_rng)
        self._item_protos, self._item_assign = kmeans(
            items.data, self.config.num_clusters, self.aug_rng)

    def loss(self, users, pos, neg):
        layers = self._layer_embeddings()
        final = sum(layers[1:], layers[0]) * (1.0 / len(layers))
        user_final, item_final = self.split_nodes(final)
        main = self.bpr_loss(user_final, item_final, users, pos, neg)

        batch_users = np.unique(users)
        batch_items = np.unique(np.concatenate([pos, neg]))
        batch_item_nodes = batch_items + self.num_users

        # structural: layer-0 vs layer-2 (even-hop neighbourhood)
        structural = (
            F.decomposed_infonce_loss(
                           layers[0].take_rows(batch_users),
                           layers[2].take_rows(batch_users),
                           self.config.temperature,
                           self.config.negative_weight)
            + F.decomposed_infonce_loss(
                             layers[0].take_rows(batch_item_nodes),
                             layers[2].take_rows(batch_item_nodes),
                             self.config.temperature,
                             self.config.negative_weight))

        # semantic: node vs its k-means prototype
        if self._user_protos is None:
            self.on_epoch_start(0, self.aug_rng)
        proto_u = Tensor(self._user_protos[self._user_assign[batch_users]])
        proto_i = Tensor(self._item_protos[self._item_assign[batch_items]])
        semantic = (
            F.decomposed_infonce_loss(
                user_final.take_rows(batch_users), proto_u,
                self.config.temperature, self.config.negative_weight)
            + F.decomposed_infonce_loss(
                item_final.take_rows(batch_items), proto_i,
                self.config.temperature, self.config.negative_weight))

        return (main + self.structural_weight * structural
                + self.prototype_weight * semantic
                + self.embedding_reg(users, pos, neg))
