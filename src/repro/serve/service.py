"""The online recommendation service.

:class:`RecommenderService` answers ``recommend(user_ids, k)`` requests
over a trained model's state through the same block-ranking kernel the
chunked evaluator uses (:func:`repro.eval.rank_items_block`), so a
service answer over a snapshot reproduces ``top_k_lists`` of the live
model exactly.

Two scoring backends (picked automatically):

* **embeddings** — the propagated user/item arrays (from a live model's
  ``serving_embeddings()`` or a snapshot).  Scoring a request block is
  one GEMM against the cached arrays; no model object is needed.
* **model** — models whose scores are not an embedding dot product
  (``ncf``, ``autorec``, ``biasmf``) are driven through their
  ``score_users`` contract, with ``inference_cache()`` held open per
  request batch.  Model scoring is serialized under a lock (it toggles
  the process-global autograd mode), because the request front's
  dispatcher thread and direct callers may call ``recommend`` at once.

On top of the embeddings backend sits a **retrieval** knob,
``backend="exact" | "ann"`` on :meth:`from_model` /
:meth:`from_snapshot`:

* ``"exact"`` (default) — the full GEMM against every item, the
  reference path everything else is tested against.
* ``"ann"`` — an :class:`~repro.serve.ann.IVFIndex` probes the best
  item clusters per user and scores only their members, under the
  recall@20 >= :data:`~repro.serve.ann.DEFAULT_RECALL_BUDGET` parity
  budget the benches assert.  Each user's candidates are one row of a
  compact ``(batch, W)`` block; :func:`repro.eval.rank_items_block`
  ranks it through its ``item_ids`` column map, masking seen items by
  key membership and breaking exact ties by item id.  Requires serving
  embeddings (model-scored services raise).

Snapshots can be served zero-copy: ``from_snapshot(path, mmap=True)``
memory-maps the embedding tables (format v3 artifacts), so N serving
processes share one resident copy.  ``partial_update`` stays safe on
mapped tables because its embedding refresh is copy-on-write — it
replaces ``self._user_emb`` with a mutated private copy and never
writes through the read-only view.

A request is served as a loop over contiguous user-id chunks on the
calling thread, sized by the evaluator's memory-budget rule
(:func:`repro.eval.auto_chunk_size`) unless ``chunk_size`` is given.
Each user's list depends only on that user's row, so chunking never
changes the answer.

``partial_update(users, items)`` folds new interactions in without a
retrain: the seen-item exclusion CSR always absorbs the new edges (so
just-consumed items stop being recommended immediately), and on the
embeddings backend each affected user's cached vector is refreshed by a
degree-weighted fold-in toward their new items' vectors::

    u  <-  (deg(u) * u + sum_j q_j) / (deg(u) + |new items|)

— the online approximation of the MF view in which a user's vector
aggregates their items.  It is an approximation by design; the exact
refresh is retraining and re-snapshotting.  On the model backend only
the exclusion CSR changes (the model's training-graph state is not
mutated).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from .ann import ANNConfig, IVFIndex
from .snapshot import Snapshot, load_snapshot
from ..data import InteractionDataset
from ..eval import auto_chunk_size, rank_items_block
from ..obs import counter, histogram, span


class RecommenderService:
    """Serve top-k recommendations from a model or a snapshot.

    Build one with :meth:`from_model` (a live, possibly just-trained
    model) or :meth:`from_snapshot` (a :func:`repro.serve.save_snapshot`
    artifact); the direct constructor is the embedding-backend plumbing
    both factories share.
    """

    def __init__(self, *, num_users: int, num_items: int,
                 exclusion: sp.csr_matrix,
                 user_embeddings: Optional[np.ndarray] = None,
                 item_embeddings: Optional[np.ndarray] = None,
                 model=None, model_name: str = "unknown",
                 chunk_size: Optional[int] = None,
                 backend: str = "exact",
                 ann_index: Optional[IVFIndex] = None,
                 ann_config: Optional[ANNConfig] = None):
        if (user_embeddings is None) != (item_embeddings is None):
            raise ValueError("user and item embeddings must be given "
                             "together")
        if user_embeddings is None and model is None:
            raise ValueError("need either cached embeddings or a model "
                             "to score with")
        if backend not in ("exact", "ann"):
            raise ValueError(f"backend must be 'exact' or 'ann', "
                             f"got {backend!r}")
        if backend == "ann" and user_embeddings is None:
            raise ValueError(
                "backend='ann' needs serving embeddings; model "
                f"{model_name!r} is scored through score_users and has "
                "none — serve it with backend='exact'")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.model_name = model_name
        self._user_emb = user_embeddings
        self._item_emb = item_embeddings
        self._model = model
        exclusion = sp.csr_matrix(exclusion, copy=True)
        if exclusion.shape != (self.num_users, self.num_items):
            raise ValueError(f"exclusion matrix shape {exclusion.shape} "
                             f"does not match ({num_users}, {num_items})")
        exclusion.sort_indices()
        self._exclusion = exclusion
        self._retrieval = backend
        self._ann_index: Optional[IVFIndex] = None
        if backend == "ann":
            index = ann_index
            if index is None:
                index = IVFIndex.build(np.asarray(self._item_emb),
                                       ann_config)
            if index.num_items != self.num_items:
                raise ValueError(f"ANN index covers {index.num_items} "
                                 f"items, service has {self.num_items}")
            index.enable_probe_cache(self.num_users)
            self._ann_index = index
        # users per scoring chunk: the evaluator's memory-budget rule
        # unless the caller fixes it
        itemsize = (user_embeddings.dtype.itemsize
                    if user_embeddings is not None else 8)
        self._chunk_size = (auto_chunk_size(self.num_items, itemsize)
                            if chunk_size is None
                            else max(1, int(chunk_size)))
        self._update_lock = threading.Lock()
        # model-backend scoring is serialized: score_users toggles the
        # process-global autograd mode (no_grad), which is not safe to
        # enter from several threads at once, and the request front's
        # dispatcher thread may serve while a direct caller does
        self._model_lock = threading.Lock()
        # always-on request latency histogram: histogram observation is a
        # couple of comparisons per request (no tracing flag needed), and
        # the serving microbench reads its p50/p95/p99 straight from here
        self._latency = histogram("serve.request_seconds",
                                  help="recommend() wall time in seconds")
        self._requests = counter("serve.requests",
                                 help="recommend() calls answered")
        self._users_served = counter("serve.users_served",
                                     help="user rows ranked across requests")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(cls, model, dataset: InteractionDataset,
                   chunk_size: Optional[int] = None,
                   backend: str = "exact",
                   ann_config: Optional[ANNConfig] = None
                   ) -> "RecommenderService":
        """Serve a live model; ``dataset.train`` seeds the exclusion CSR.

        Models under the embedding-dot contract are frozen into cached
        arrays immediately (the model object is not retained); custom
        scorers keep the model and go through ``score_users``.  With
        ``backend="ann"`` the IVF index is built from the frozen arrays
        here (embedding-dot models only).
        """
        embeddings = model.serving_embeddings()
        users, items = (None, None) if embeddings is None else embeddings
        return cls(num_users=dataset.num_users,
                   num_items=dataset.num_items,
                   exclusion=dataset.train.matrix,
                   user_embeddings=users, item_embeddings=items,
                   model=None if embeddings is not None else model,
                   model_name=getattr(model, "name", type(model).__name__),
                   chunk_size=chunk_size,
                   backend=backend, ann_config=ann_config)

    @classmethod
    def from_snapshot(cls, snapshot, chunk_size: Optional[int] = None,
                      backend: str = "exact",
                      ann_config: Optional[ANNConfig] = None,
                      mmap: bool = False) -> "RecommenderService":
        """Serve a snapshot (path or :class:`Snapshot`).

        Snapshots carrying propagated embeddings are served from the
        arrays alone; others take the registry round-trip
        (:meth:`Snapshot.build_model`) and serve the restored model.

        ``backend="ann"`` restores the snapshot's stored IVF index when
        present (format v3) and otherwise rebuilds it from the item
        embeddings — deterministically identical, so pre-v3 artifacts
        serve approximately too.  ``ann_config`` overrides the stored
        build config (forcing a rebuild).  ``mmap=True`` (paths only)
        memory-maps the embedding tables; see
        :func:`repro.serve.load_snapshot`.
        """
        if not isinstance(snapshot, Snapshot):
            snapshot = load_snapshot(snapshot, mmap=mmap)
        elif mmap and not snapshot.mmap:
            raise ValueError("mmap=True needs a snapshot path (or a "
                             "Snapshot loaded with mmap=True)")
        model = None if snapshot.has_embeddings else snapshot.build_model()
        index = None
        if backend == "ann" and snapshot.has_embeddings:
            if ann_config is None:
                index = snapshot.build_ann_index()
            else:
                index = IVFIndex.build(np.asarray(snapshot.item_embeddings),
                                       ann_config)
        return cls(num_users=snapshot.num_users,
                   num_items=snapshot.num_items,
                   exclusion=snapshot.train_matrix,
                   user_embeddings=snapshot.user_embeddings,
                   item_embeddings=snapshot.item_embeddings,
                   model=model, model_name=snapshot.model_name,
                   chunk_size=chunk_size,
                   backend=backend, ann_index=index)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """``"ann"``, ``"embeddings"`` or ``"model"`` (module docstring)."""
        if self._ann_index is not None:
            return "ann"
        return "embeddings" if self._user_emb is not None else "model"

    def recommend(self, user_ids: Optional[np.ndarray] = None, k: int = 20,
                  exclude_seen: bool = True) -> np.ndarray:
        """``(len(user_ids), k)`` recommended item ids, best first.

        ``user_ids=None`` serves every user.  With ``exclude_seen`` (the
        default) each user's train-positive items — including any folded
        in by :meth:`partial_update` — are masked out before ranking.
        """
        if user_ids is None:
            user_ids = np.arange(self.num_users, dtype=np.int64)
        else:
            user_ids = np.asarray(user_ids, dtype=np.int64)
        if len(user_ids) and (user_ids.min() < 0
                              or user_ids.max() >= self.num_users):
            raise ValueError("user id out of range")
        if not 1 <= k <= self.num_items:
            raise ValueError(f"k must be in [1, {self.num_items}], got {k}")
        with self._latency.time(), span("serve.recommend",
                                        users=len(user_ids), k=k,
                                        backend=self.backend):
            # capture one consistent state generation for the whole
            # request: a partial_update landing mid-request must not mix
            # old and new embeddings/masks across this request's chunks
            # (the lock pairs the exclusion CSR with its matching
            # embedding generation)
            with self._update_lock:
                exclusion = self._exclusion if exclude_seen else None
                user_emb, item_emb = self._user_emb, self._item_emb
                index = self._ann_index
                # the probe-cache generation travels with the embedding
                # tables: writes stamped with this value can never be
                # mistaken for post-update probes (partial_update bumps
                # the index generation under the same lock)
                generation = index.generation if index is not None else 0
            seen_per_user = (np.diff(exclusion.indptr)
                             if exclusion is not None and index is not None
                             else None)

            def serve_chunk(chunk: np.ndarray) -> np.ndarray:
                ids = None
                if index is not None:
                    seen = (seen_per_user[chunk]
                            if seen_per_user is not None else None)
                    ids = index.candidates(user_emb, chunk, k,
                                           seen_counts=seen,
                                           generation=generation)
                    scores = index.candidate_scores(user_emb, item_emb,
                                                    chunk, ids)
                elif user_emb is not None:
                    scores = user_emb[chunk] @ item_emb.T
                else:
                    with self._model_lock:
                        scores = self._model.score_users(chunk)
                return rank_items_block(scores, exclusion, chunk, k=k,
                                        item_ids=ids)

            size = self._chunk_size
            cache = (self._model.inference_cache()
                     if self._model is not None
                     and hasattr(self._model, "inference_cache")
                     else nullcontext())
            with cache:
                blocks = [serve_chunk(user_ids[start:start + size])
                          for start in range(0, len(user_ids), size)]
            self._requests.inc()
            self._users_served.inc(len(user_ids))
            if not blocks:
                return np.empty((0, k), dtype=np.int64)
            return np.concatenate(blocks, axis=0)

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def partial_update(self, users: np.ndarray, items: np.ndarray,
                       refresh_embeddings: bool = True) -> Dict[str, int]:
        """Fold new ``(user, item)`` interactions into the service.

        Always extends the seen-item exclusion CSR (idempotently — edges
        already known are no-ops); on the embeddings backend the affected
        users' cached vectors are additionally refreshed by the
        degree-weighted fold-in described in the module docstring (skip
        with ``refresh_embeddings=False``).

        Returns ``{"new_edges": ..., "refreshed_users": ...}``.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if users.shape != items.shape:
            raise ValueError("users and items must have the same length")
        if len(users) == 0:
            return {"new_edges": 0, "refreshed_users": 0}
        if users.min() < 0 or users.max() >= self.num_users:
            raise ValueError("user id out of range")
        if items.min() < 0 or items.max() >= self.num_items:
            raise ValueError("item id out of range")

        with self._update_lock, span("serve.partial_update",
                                     edges=len(users)):
            old = self._exclusion
            known = np.asarray(old[users, items]).ravel() != 0
            users, items = users[~known], items[~known]
            # dedupe repeats within this batch
            if len(users):
                keys = users * self.num_items + items
                _, first = np.unique(keys, return_index=True)
                users, items = users[np.sort(first)], items[np.sort(first)]
            if len(users) == 0:
                return {"new_edges": 0, "refreshed_users": 0}

            refreshed = 0
            if self._user_emb is not None and refresh_embeddings:
                # copy-on-write: mutate a private copy, never the shared
                # (possibly memory-mapped, read-only) table — concurrent
                # requests keep scoring their captured generation and
                # mmap'd snapshots stay pristine on disk
                degrees = np.diff(old.indptr)
                affected, inverse = np.unique(users, return_inverse=True)
                dim = self._item_emb.shape[1]
                sums = np.zeros((len(affected), dim),
                                dtype=self._item_emb.dtype)
                np.add.at(sums, inverse, self._item_emb[items])
                counts = np.bincount(inverse,
                                     minlength=len(affected)).astype(
                                         self._user_emb.dtype)
                deg = degrees[affected].astype(self._user_emb.dtype)
                old_vecs = self._user_emb[affected]
                # np.asarray first: .copy() alone would keep the memmap
                # subclass on mapped tables even though the data moved
                self._user_emb = np.asarray(self._user_emb).copy()
                self._user_emb[affected] = ((deg[:, None] * old_vecs + sums)
                                            / (deg + counts)[:, None])
                refreshed = len(affected)
                if self._ann_index is not None:
                    # user vectors moved: drop every cached probe row.
                    # In-flight requests hold the pre-bump generation,
                    # so even a late cache write of theirs stays dead
                    self._ann_index.invalidate()

            extra = sp.csr_matrix(
                (np.ones(len(users)), (users, items)),
                shape=(self.num_users, self.num_items))
            updated = (old + extra).tocsr()
            updated.data = np.ones_like(updated.data)
            updated.sort_indices()
            self._exclusion = updated
            counter("serve.partial_updates",
                    help="partial_update() calls that added edges").inc()
            return {"new_edges": len(users), "refreshed_users": refreshed}

    # ------------------------------------------------------------------ #
    def seen_items_of(self, user: int) -> np.ndarray:
        """Current exclusion-list item ids for one user."""
        start, stop = self._exclusion.indptr[user:user + 2]
        return self._exclusion.indices[start:stop].copy()

    def stats(self) -> Dict[str, object]:
        """Operational summary (CLI / monitoring).

        ``requests_served`` / ``latency_seconds`` come from the
        process-wide :mod:`repro.obs` metrics registry, so they aggregate
        over every service instance in the process (the registry is a
        process-level sink by design).
        """
        stats = {
            "model": self.model_name,
            "backend": self.backend,
            "num_users": self.num_users,
            "num_items": self.num_items,
            "seen_interactions": int(self._exclusion.nnz),
            "chunk_size": self._chunk_size,
            "requests_served": int(self._requests.value),
            "latency_seconds": self._latency.percentiles(),
        }
        if self._ann_index is not None:
            stats["ann"] = self._ann_index.stats()
        return stats

    def close(self) -> None:
        """Release nothing: requests run on the calling thread, so there
        is no pool to shut down.  Kept for the context-manager protocol
        and existing ``close()`` callers."""

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
