"""GraphAug — the paper's model (Sec III, Algorithm 1).

Wiring of the three components:

1. :class:`~repro.core.augmentor.LearnableAugmentor` scores candidate edges
   from mixhop-encoded, noise-perturbed node embeddings (Eq 4);
2. :func:`~repro.core.sampling.sample_view` draws two differentiable
   augmented graphs ``G'``/``G''`` via Gumbel reparameterization and
   thresholding at ``ξ`` (Eq 5);
3. the :class:`~repro.core.mixhop.MixhopEncoder` encodes the original graph
   and both views (Eqs 11-13);
4. the joint objective (Eq 16) combines BPR on the original graph, the GIB
   surrogate ``-log q(Y|Z') + β KL`` on the views (Eq 9), InfoNCE between
   the views (Eq 14), and weight decay.

Ablation switches (used by the Fig 2 / Table III benches):

* ``use_mixhop=False`` — vanilla LightGCN-style propagation ("w/o Mixhop");
* ``use_gib=False`` — drop the GIB surrogate ("w/o GIB");
* ``use_cl=False`` — drop the InfoNCE term; GIB still regularizes the BPR
  optimization, exactly the paper's "w/o CL" variant.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .augmentor import CandidateEdges, LearnableAugmentor, \
    build_candidate_edges
from .gib import gib_kl_term, gib_prediction_term
from .mixhop import MixhopEncoder, Propagation
from .sampling import SampledView, sample_view
from ..autograd import Tensor, no_grad, functional as F
from ..graph import symmetric_normalize
from ..models.base import GraphRecommender, light_gcn_propagate
from ..models.registry import MODEL_REGISTRY


@MODEL_REGISTRY.register("graphaug")
class GraphAug(GraphRecommender):
    """The paper's model: learnable GIB-regularized graph augmentation."""
    name = "graphaug"

    #: Eq 16 weight on the whole GIB surrogate (β inside Eq 9 is
    #: ``config.gib_weight``, the Lagrange multiplier the paper tunes).
    gib_term_weight = 1.0
    #: fraction of |E| of higher-order candidate edges offered to the
    #: augmentor (the "additional edges" of Sec III-A).
    higher_order_budget = 0.5
    #: weight of the structure prior BCE(edge logits, observed) — the
    #: ``p(G)`` factor of the paper's augmented-graph probability
    #: decomposition (Sec III-B.1).  Without it, alignment-style contrast
    #: admits the degenerate optimum of dropping every edge.
    prior_weight = 0.2

    def __init__(self, dataset, config=None, seed: int = 0,
                 use_mixhop: bool = True, use_gib: bool = True,
                 use_cl: bool = True):
        super().__init__(dataset, config, seed)
        self.use_mixhop = use_mixhop
        self.use_gib = use_gib
        self.use_cl = use_cl
        dim = self.config.embedding_dim
        # In light mode hop 0 already carries the self signal, so the
        # propagation matrix omits self-loops (the LightGCN convention);
        # the dense Eq-11 encoder keeps them, per the paper's Sec III-C.
        self.mixhop_adj = symmetric_normalize(
            self.adjacency,
            add_self_loops=(self.config.mixhop_mode == "dense"))
        self.encoder = MixhopEncoder(dim, self.config.num_layers,
                                     self.config.mixhop_hops, self.init_rng,
                                     leaky_slope=self.config.leaky_slope,
                                     mode=self.config.mixhop_mode)
        self.augmentor = LearnableAugmentor(dim, self.init_rng)
        self.candidates = build_candidate_edges(
            dataset.train, self.aug_rng,
            higher_order_budget=self.higher_order_budget)
        self.candidates.view_pattern(self.num_users + self.num_items)

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def _encode(self, propagate_fn: Callable[[Tensor], Tensor]) -> Tensor:
        """Encode the unified node set over an arbitrary propagation op."""
        ego = self.ego_embeddings()
        if self.use_mixhop:
            return self.encoder(ego, propagate_fn)
        # "w/o Mixhop": LightGCN-style mean-of-layers propagation
        outputs = [ego]
        current = ego
        for _ in range(self.config.num_layers):
            current = propagate_fn(current)
            outputs.append(current)
        return sum(outputs[1:], outputs[0]) * (1.0 / len(outputs))

    def _encode_original(self) -> Tensor:
        adj = self.mixhop_adj if self.use_mixhop else self.norm_adj
        return self._encode(Propagation(adj))

    def propagate(self):
        return self.split_nodes(self._encode_original())

    # ------------------------------------------------------------------ #
    # augmentation
    # ------------------------------------------------------------------ #
    def sample_augmented_views(self, node_embeddings: Tensor
                               ) -> Tuple[SampledView, SampledView]:
        """Draw ``G'`` and ``G''`` from the augmentor's edge distribution.

        Both views share one set of edge logits (``view.edge_logits``).
        """
        logits = self.augmentor.edge_logits(node_embeddings,
                                            self.candidates, self.aug_rng)
        num_nodes = self.num_users + self.num_items
        return tuple(sample_view(logits, self.candidates, num_nodes,
                                 self.aug_rng,
                                 threshold=self.config.edge_threshold,
                                 gumbel_temperature=self.config
                                 .gumbel_temperature)
                     for _ in range(2))

    def edge_keep_probabilities(self) -> np.ndarray:
        """Noise-free keep probabilities per candidate edge (Fig 6 probe).

        Scores the unperturbed encoding, so it draws nothing from
        ``aug_rng`` and repeated calls agree.
        """
        with no_grad():
            return self.augmentor.score(self._encode_original(),
                                        self.candidates).sigmoid().data

    # ------------------------------------------------------------------ #
    # objective (Eq 16)
    # ------------------------------------------------------------------ #
    def loss(self, users, pos, neg):
        embeddings = self._encode_original()
        user_final, item_final = self.split_nodes(embeddings)
        total = (self.bpr_loss(user_final, item_final, users, pos, neg)
                 + self.embedding_reg(users, pos, neg))
        if not (self.use_gib or self.use_cl):
            return total

        view_a, view_b = self.sample_augmented_views(embeddings)
        z_a = self._encode(view_a.propagate_fn())
        z_b = self._encode(view_b.propagate_fn())

        # structure prior: the p(G) factor of Eq 4's decomposition —
        # observed edges anchor towards keep, higher-order candidates
        # towards drop, preventing the empty-graph degenerate optimum
        prior = F.binary_cross_entropy_with_logits(
            view_a.edge_logits, self.candidates.observed.astype(np.float64))
        total = total + self.prior_weight * prior

        if self.use_gib:
            ua, ia = self.split_nodes(z_a)
            ub, ib = self.split_nodes(z_b)
            prediction = 0.5 * (
                gib_prediction_term(ua, ia, users, pos, neg)
                + gib_prediction_term(ub, ib, users, pos, neg))
            kl = gib_kl_term([embeddings, z_a, z_b])
            total = total + self.gib_term_weight * (
                prediction + self.config.gib_weight * kl)

        if self.use_cl:
            # every node gets a consistency signal each step.  At r = 0
            # Eq 14's negatives are weighted by zero, so only the O(N·d)
            # positive alignment is computed (same gradients, no N x N
            # matrix); r > 0 contrasts each node against all N others
            if self.config.negative_weight == 0:
                contrastive = F.infonce_positive_term(
                    z_a, z_b, self.config.temperature)
            else:
                contrastive = F.decomposed_infonce_loss(
                    z_a, z_b, self.config.temperature,
                    self.config.negative_weight)
            total = total + self.config.ssl_weight * contrastive
        return total


def make_graphaug_variant(variant: str):
    """Factory for the paper's ablation variants (Fig 2 / Table III).

    ``variant`` is one of ``"full"``, ``"wo_mixhop"``, ``"wo_gib"``,
    ``"wo_cl"``; returns a constructor with the Recommender signature.
    """
    flags = {
        "full": {},
        "wo_mixhop": {"use_mixhop": False},
        "wo_gib": {"use_gib": False},
        "wo_cl": {"use_cl": False},
    }
    if variant not in flags:
        raise KeyError(f"unknown GraphAug variant {variant!r}; "
                       f"available: {sorted(flags)}")
    overrides = flags[variant]

    def build(dataset, config=None, seed: int = 0) -> GraphAug:
        return GraphAug(dataset, config=config, seed=seed, **overrides)

    build.__name__ = f"graphaug_{variant}"
    return build
