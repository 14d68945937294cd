"""The full-ranking evaluation protocol shared by every experiment.

Rank all items per user with training positives masked to ``-inf`` and
average the ranking metrics over test users (optionally a subset, for the
Table V degree-group protocol).

The engine is *chunked*: users are processed in blocks of
``chunk_size``, so evaluation never materializes the dense
``(num_users, num_items)`` score matrix — at most ``chunk_size x
num_items`` scores are alive at a time.  Each block does one vectorized
CSR-driven masking pass, one ``np.argpartition`` for the top-``max_k``
cut, and batched metric kernels (see :mod:`repro.eval.metrics`).

Score sources
-------------
Every entry point accepts, via :func:`scorer_from`, any of:

* a dense ``(num_users, num_items)`` matrix (the legacy interface);
* a model implementing ``score_users(user_ids)`` — the chunked scoring
  contract of :class:`repro.models.base.Recommender`; its optional
  ``inference_cache()`` context is entered so repeated chunk calls share
  one propagation pass;
* a model exposing only ``score_all_users()`` (materialized once);
* a plain ``callable(user_ids) -> (len(user_ids), num_items)``.

:func:`rank_items` remains the single-user reference implementation the
chunked path is tested against (``tests/test_eval_chunked.py``).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .metrics import block_hits, compute_block_metrics
from ..data import InteractionDataset

#: legacy fixed block size; still the floor-of-last-resort when a score
#: source gives no way to infer ``num_items``
DEFAULT_CHUNK_SIZE = 1024

#: default peak-score-memory budget for auto-sized chunks (bytes); the
#: ``REPRO_CHUNK_BUDGET_BYTES`` environment variable overrides it
DEFAULT_CHUNK_BUDGET_BYTES = 64 * 1024 * 1024


def auto_chunk_size(num_items: int, itemsize: int = 8,
                    budget_bytes: Optional[int] = None) -> int:
    """Users per block so one score block fits a memory budget.

    ``chunk = budget_bytes / (num_items * itemsize)``: one block of
    ``chunk x num_items`` scores at ``itemsize`` bytes per score stays
    under ``budget_bytes`` (default :data:`DEFAULT_CHUNK_BUDGET_BYTES`,
    overridable via the ``REPRO_CHUNK_BUDGET_BYTES`` environment
    variable).  Both the chunked evaluator (``chunk_size=None``) and the
    serving shard executor (:mod:`repro.serve.sharding`) size their user
    blocks through this.
    """
    if budget_bytes is None:
        budget_bytes = int(os.environ.get("REPRO_CHUNK_BUDGET_BYTES",
                                          DEFAULT_CHUNK_BUDGET_BYTES))
    return max(1, int(budget_bytes) // max(1, int(num_items) * int(itemsize)))


# --------------------------------------------------------------------- #
# single-user reference
# --------------------------------------------------------------------- #

def rank_items(scores: np.ndarray, train_matrix, user: int,
               k: Optional[int] = None) -> np.ndarray:
    """Ranked item ids for one user, excluding their training positives."""
    user_scores = scores[user].copy()
    start, stop = train_matrix.indptr[user:user + 2]
    user_scores[train_matrix.indices[start:stop]] = -np.inf
    if k is None or k >= len(user_scores):
        return np.argsort(-user_scores, kind="stable")
    top = np.argpartition(-user_scores, k)[:k]
    return top[np.argsort(-user_scores[top], kind="stable")]


# --------------------------------------------------------------------- #
# chunked engine
# --------------------------------------------------------------------- #

def scorer_from(source) -> Tuple[Callable[[np.ndarray], np.ndarray], object]:
    """Normalize a score source into a ``(scorer, context)`` pair.

    ``scorer(user_ids) -> (len(user_ids), num_items)``; ``context`` is a
    context manager to hold open while scoring (a model's
    ``inference_cache()`` when available, else a no-op).
    """
    if isinstance(source, np.ndarray):
        matrix = source

        def scorer(user_ids: np.ndarray) -> np.ndarray:
            return matrix[np.asarray(user_ids, dtype=np.int64)]

        return scorer, nullcontext()
    score_users = getattr(source, "score_users", None)
    if callable(score_users):
        cache = getattr(source, "inference_cache", None)
        return score_users, (cache() if callable(cache) else nullcontext())
    score_all = getattr(source, "score_all_users", None)
    if callable(score_all):
        return scorer_from(np.asarray(score_all()))
    if callable(source):
        return source, nullcontext()
    raise TypeError("cannot build a scorer from "
                    f"{type(source).__name__}: expected a score matrix, a "
                    "model with score_users/score_all_users, or a callable")


def _csr_rows_concat(matrix: sp.csr_matrix,
                     rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated ``matrix.indices`` of ``rows``, plus per-row counts."""
    starts = matrix.indptr[rows].astype(np.int64)
    counts = matrix.indptr[rows + 1].astype(np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=matrix.indices.dtype), counts
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    flat = (np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets, counts))
    return matrix.indices[flat], counts


def rank_items_block(scores_block: np.ndarray, train_matrix,
                     user_ids: Optional[np.ndarray] = None,
                     k: Optional[int] = None,
                     item_ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Top-``k`` ranked item ids for a block of users, train masked.

    Vectorized counterpart of :func:`rank_items`: one fancy-index masking
    pass over the block and a single ``argpartition`` / ``argsort`` call
    instead of a Python loop over users.

    ``scores_block`` is already sliced to the chunk — row ``i`` holds the
    scores of ``user_ids[i]``; ``user_ids`` only selects the train rows
    to mask.  ``train_matrix=None`` skips masking entirely (the serving
    tier's ``exclude_seen=False`` path), in which case ``user_ids`` may
    be omitted.

    ``item_ids`` is the column map of a compact block (the ANN
    backend's candidates): column ``j`` of row ``i`` scores item
    ``item_ids[i, j]``, and ``-1`` marks padding.  Without it column
    ``j`` is item ``j``.  See :func:`_rank_compact_block` for how a
    compact block is masked and how its ties break.
    """
    if item_ids is not None:
        return _rank_compact_block(scores_block, item_ids, train_matrix,
                                   user_ids, k)
    block = np.array(scores_block, copy=True)
    if train_matrix is not None:
        if user_ids is None:
            raise ValueError("user_ids is required when masking against "
                             "a train matrix")
        user_ids = np.asarray(user_ids, dtype=np.int64)
        cols, counts = _csr_rows_concat(train_matrix, user_ids)
        if cols.size:
            rows = np.repeat(np.arange(len(user_ids)), counts)
            block[rows, cols] = -np.inf
    num_items = block.shape[1]
    if k is None or k >= num_items:
        return np.argsort(-block, kind="stable", axis=1)
    part = np.argpartition(-block, k, axis=1)[:, :k]
    part_scores = np.take_along_axis(block, part, axis=1)
    order = np.argsort(-part_scores, kind="stable", axis=1)
    return np.take_along_axis(part, order, axis=1)


def _rank_compact_block(scores_block: np.ndarray, item_ids: np.ndarray,
                        train_matrix, user_ids: Optional[np.ndarray],
                        k: Optional[int]) -> np.ndarray:
    """:func:`rank_items_block` over a ``(batch, W)`` candidate block.

    Seen items are masked by sorted-key membership on ``row * num_items
    + item`` keys (the :func:`repro.eval.metrics.block_hits` idiom), and
    the ``argpartition`` runs over the W candidate columns only.  Among
    exactly equal scores the lower item id ranks first, both inside the
    top-k and at the k-th boundary, so a row's answer depends only on
    its own candidate set and never on W or the column order.
    ``-1`` padding scores ``-inf`` and is never returned while a row has
    ``k`` finite candidates.
    """
    # a fresh negated array: masking never writes into the caller's block
    neg = -np.asarray(scores_block)
    item_ids = np.asarray(item_ids)
    batch, width = neg.shape
    if train_matrix is not None:
        if user_ids is None:
            raise ValueError("user_ids is required when masking against "
                             "a train matrix")
        user_ids = np.asarray(user_ids, dtype=np.int64)
        seen, counts = _csr_rows_concat(train_matrix, user_ids)
        if seen.size:
            stride = train_matrix.shape[1]
            rows = np.repeat(np.arange(batch, dtype=np.int64), counts)
            seen_keys = np.sort(rows * stride + seen)
            # only candidates some user of the block has seen need the
            # key lookup; padding (-1) reads the last item's flag, and
            # its key (row * stride - 1) can only alias the row above's
            # last item, so at worst padding is masked again
            flagged = np.zeros(stride, dtype=bool)
            flagged[seen] = True
            rows, cols = np.nonzero(flagged[item_ids])
            keys = rows * stride + item_ids[rows, cols]
            loc = np.minimum(np.searchsorted(seen_keys, keys),
                             len(seen_keys) - 1)
            hit = seen_keys[loc] == keys
            neg[rows[hit], cols[hit]] = np.inf
    if batch == 0:
        return np.empty((0, width if k is None else k), dtype=item_ids.dtype)
    if k is None or k >= width:
        order = np.lexsort((item_ids, neg), axis=1)
        return np.take_along_axis(item_ids, order, axis=1)
    part = np.argpartition(neg, k - 1, axis=1)[:, :k]
    part_neg = np.take_along_axis(neg, part, axis=1)
    boundary = part_neg.max(axis=1, keepdims=True)
    # argpartition picks among scores equal to the k-th arbitrarily;
    # rows where a tie straddles the cut are rare, so re-cut them one
    # at a time by (score, item id)
    straddles = ((neg == boundary).sum(axis=1)
                 > (part_neg == boundary).sum(axis=1))
    for row in np.flatnonzero(straddles):
        part[row] = np.lexsort((item_ids[row], neg[row]))[:k]
        part_neg[row] = neg[row, part[row]]
    part_ids = np.take_along_axis(item_ids, part, axis=1)
    order = np.lexsort((part_ids, part_neg), axis=1)
    return np.take_along_axis(part_ids, order, axis=1)


def _sorted_csr(matrix) -> sp.csr_matrix:
    """CSR with sorted indices (the membership kernel's precondition)."""
    if not sp.isspmatrix_csr(matrix):
        matrix = sp.csr_matrix(matrix)
    if not matrix.has_sorted_indices:
        matrix = matrix.copy()
        matrix.sort_indices()
    return matrix


def evaluate_ranking(scorer: Callable[[np.ndarray], np.ndarray],
                     dataset: InteractionDataset,
                     ks: Sequence[int] = (20, 40),
                     metrics: Sequence[str] = ("recall", "ndcg"),
                     users: Optional[np.ndarray] = None,
                     test_matrix=None,
                     chunk_size: Optional[int] = None) -> Dict[str, float]:
    """Chunked full-ranking evaluation of an arbitrary scorer.

    Parameters
    ----------
    scorer:
        ``scorer(user_ids) -> (len(user_ids), num_items)`` score blocks
        (see :func:`scorer_from` to adapt matrices and models).
    users:
        Optional subset of user ids to evaluate (Table V user groups);
        defaults to all users with test positives.  Users without test
        positives are skipped either way.
    test_matrix:
        Optional replacement test matrix (Table V item groups restrict
        test positives to the item bucket).
    chunk_size:
        Users ranked per block; bounds peak score memory at
        ``chunk_size x num_items``.  ``None`` auto-sizes from the memory
        budget via :func:`auto_chunk_size`.
    """
    test = _sorted_csr(dataset.test_matrix if test_matrix is None
                       else test_matrix)
    positive_counts = np.diff(test.indptr)
    if users is None:
        users = np.where(positive_counts > 0)[0]
    else:
        users = np.asarray(users, dtype=np.int64)
        users = users[positive_counts[users] > 0]
    if len(users) == 0:
        return {}
    if chunk_size is None:
        chunk_size = auto_chunk_size(test.shape[1])
    chunk_size = max(1, int(chunk_size))
    max_k = max(ks)
    train = dataset.train.matrix
    num_items = test.shape[1]
    per_key: Dict[str, list] = {}
    for start in range(0, len(users), chunk_size):
        chunk = users[start:start + chunk_size]
        ranked = rank_items_block(scorer(chunk), train, chunk, k=max_k)
        positives, counts = _csr_rows_concat(test, chunk)
        hits = block_hits(ranked, positives, counts, num_items)
        for key, values in compute_block_metrics(hits, counts, ks,
                                                 metrics).items():
            per_key.setdefault(key, []).append(values)
    return {key: float(np.mean(np.concatenate(blocks)))
            for key, blocks in per_key.items()}


def top_k_lists(source, dataset: InteractionDataset, k: int,
                users: Optional[np.ndarray] = None,
                chunk_size: Optional[int] = None) -> np.ndarray:
    """``(len(users), k)`` recommended item ids, train positives masked.

    ``source`` is anything :func:`scorer_from` accepts; defaults to all
    users.  Requires ``k <= num_items``.  ``chunk_size=None`` auto-sizes
    from the memory budget via :func:`auto_chunk_size`.
    """
    if users is None:
        users = np.arange(dataset.num_users, dtype=np.int64)
    else:
        users = np.asarray(users, dtype=np.int64)
    if chunk_size is None:
        chunk_size = auto_chunk_size(dataset.num_items)
    chunk_size = max(1, int(chunk_size))
    scorer, context = scorer_from(source)
    lists = np.empty((len(users), k), dtype=np.int64)
    train = dataset.train.matrix
    with context:
        for start in range(0, len(users), chunk_size):
            chunk = users[start:start + chunk_size]
            lists[start:start + len(chunk)] = rank_items_block(
                scorer(chunk), train, chunk, k=k)
    return lists


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #

def evaluate_scores(scores: np.ndarray, dataset: InteractionDataset,
                    ks: Sequence[int] = (20, 40),
                    metrics: Sequence[str] = ("recall", "ndcg"),
                    users: Optional[np.ndarray] = None,
                    test_matrix=None,
                    chunk_size: Optional[int] = None) -> Dict[str, float]:
    """Evaluate a dense score matrix against the dataset's test split.

    Kept for the callers that already hold a dense matrix; the ranking
    and metrics still run through the chunked block engine.
    """
    scorer, context = scorer_from(np.asarray(scores))
    with context:
        return evaluate_ranking(scorer, dataset, ks=ks, metrics=metrics,
                                users=users, test_matrix=test_matrix,
                                chunk_size=chunk_size)


def evaluate_model(model, dataset: InteractionDataset,
                   ks: Sequence[int] = (20, 40),
                   metrics: Sequence[str] = ("recall", "ndcg"),
                   users: Optional[np.ndarray] = None,
                   test_matrix=None,
                   chunk_size: Optional[int] = None) -> Dict[str, float]:
    """Evaluate a model through the chunked engine.

    Models implementing ``score_users`` are scored block-by-block without
    ever materializing the all-pairs matrix; their ``inference_cache()``
    (when present) keeps propagation shared across blocks.  Objects with
    only ``score_all_users()`` fall back to one dense materialization.
    """
    scorer, context = scorer_from(model)
    with context:
        return evaluate_ranking(scorer, dataset, ks=ks, metrics=metrics,
                                users=users, test_matrix=test_matrix,
                                chunk_size=chunk_size)
