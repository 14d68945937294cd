"""GraphAug reproduction: Graph Augmentation for Recommendation (ICDE 2024).

Subpackages
-----------
``repro.autograd``  from-scratch reverse-mode autodiff on numpy
``repro.graph``     sparse bipartite graph substrate
``repro.data``      datasets, synthetic generators, samplers
``repro.eval``      ranking metrics, MAD, uniformity, robustness protocols
``repro.train``     configs and the shared training loop
``repro.models``    17 baseline recommenders + registry
``repro.core``      GraphAug: learnable augmentor, GIB, mixhop encoder
``repro.serve``     online serving: snapshots, exact/ANN retrieval, updates
``repro.api``       declarative experiment facade: specs, runs, sweeps
"""

__version__ = "1.1.0"

from . import autograd, graph, data, eval, train, serve, utils, api

__all__ = ["autograd", "graph", "data", "eval", "train", "serve", "utils",
           "api", "__version__"]
