"""The GIB-regularized objective (paper Sec III-B.3, Eqs 6-10).

``L_GIB = -I(Z'; Y) + β I(Z'; A)`` is intractable; the paper optimizes

* a **lower bound** on ``I(Z'; Y)`` — the variational prediction term
  ``E[log q(Y | Z')]`` (Lemma 2).  With Y the interaction labels and the
  pairwise training schema, ``-log q(Y|Z')`` is the BPR negative
  log-likelihood evaluated with the *view* embeddings ``Z'``;
* an **upper bound** on ``I(Z'; A)`` — the Gaussian KL between
  ``N(μ(A), η(A)²)`` and the marginal ``r(Z') = N(0, I)`` (Lemma 1), where
  ``(μ, η)`` come from mean-pooling the embeddings of the three views
  ``{Z, Z', Z''}`` and splitting the feature dimension in half (Eq 10).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..autograd import Tensor, functional as F


def pool_gaussian_parameters(views: Sequence[Tensor]
                             ) -> Tuple[Tensor, Tensor]:
    """Eq 10: mean-pool view embeddings; split features into (mu, log_var).

    The second half of the pooled features parameterizes the *log-variance*
    (the paper's η is a standard deviation; working in log-variance keeps
    the KL numerically stable and positive-definite by construction).
    """
    if not views:
        raise ValueError("need at least one view")
    dim = views[0].shape[1]
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even to split into (mu, eta)")
    pooled = sum(views[1:], views[0]) * (1.0 / len(views))
    half = dim // 2
    mu = pooled[:, :half]
    log_var = pooled[:, half:].clamp(low=-6.0, high=6.0)
    return mu, log_var


def gib_kl_term(views: Sequence[Tensor]) -> Tensor:
    """The upper bound on ``I(Z'; A)``: KL(N(mu, var) || N(0, I))."""
    mu, log_var = pool_gaussian_parameters(views)
    return F.gaussian_kl(mu, log_var)


def gib_prediction_term(user_view: Tensor, item_view: Tensor,
                        users: np.ndarray, pos: np.ndarray,
                        neg: np.ndarray) -> Tensor:
    """The lower bound on ``I(Z'; Y)``: ``-log q(Y | Z')`` as pairwise NLL."""
    u = user_view.take_rows(users)
    vp = item_view.take_rows(pos)
    vn = item_view.take_rows(neg)
    return F.bpr_loss((u * vp).sum(axis=1), (u * vn).sum(axis=1))
