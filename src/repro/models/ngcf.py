"""NGCF (Wang et al., SIGIR'19) — neural graph collaborative filtering.

Per layer: ``h' = LeakyReLU(W1 (A h) + W2 (A h ⊙ h))`` — message passing
with a bilinear interaction term — and the final representation is the
concatenation of every layer's output.
"""

from __future__ import annotations

from .base import GraphRecommender
from .registry import MODEL_REGISTRY
from ..autograd import Linear, Tensor, concat, spmm, functional as F


@MODEL_REGISTRY.register("ngcf")
class NGCF(GraphRecommender):
    """Message passing with bilinear interaction terms, layers concatenated."""
    name = "ngcf"

    def __init__(self, dataset, config=None, seed: int = 0):
        super().__init__(dataset, config, seed)
        dim = self.config.embedding_dim
        self.w1_layers, self.w2_layers = [], []
        for i in range(self.config.num_layers):
            w1 = Linear(dim, dim, self.init_rng)
            w2 = Linear(dim, dim, self.init_rng)
            setattr(self, f"w1_{i}", w1)
            setattr(self, f"w2_{i}", w2)
            self.w1_layers.append(w1)
            self.w2_layers.append(w2)

    def propagate(self):
        current = self.ego_embeddings()
        outputs = [current]
        slope = self.config.leaky_slope
        for w1, w2 in zip(self.w1_layers, self.w2_layers):
            side = spmm(self.norm_adj, current)
            message = w1(side) + w2(side * current)
            current = F.l2_normalize(message.leaky_relu(slope))
            outputs.append(current)
        final = concat(outputs, axis=1)
        return self.split_nodes(final)
