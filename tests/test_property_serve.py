"""Property-based tests (hypothesis) for the serving backends.

Random embedding snapshots, random exclusion matrices, random ``k`` —
the invariants that must hold for *every* input, not just the fixtures:

* ANN results are a subset of the item universe, contain no duplicates,
  respect ``k``, and never include an excluded seen item;
* below the candidate floor the ANN backend is *bitwise* the exact
  backend (the degenerate-scan guarantee that makes the recall budget
  trivially 1.0 at tiny catalogs — the budget's floor case);
* above the floor the structural invariants still hold;
* a memory-mapped snapshot and its in-memory load are bit-identical on
  the exact path.

``tmp_path`` is deliberately avoided inside ``@given`` bodies
(function-scoped fixtures trip hypothesis's health check); artifacts go
through ``tempfile`` instead.
"""

import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import (ANNConfig, AsyncRequestFront, IVFIndex,
                         RecommenderService, load_snapshot, recall_at_k,
                         save_embedding_snapshot)

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def make_state(seed, num_users, num_items, dim, max_seen):
    """Deterministic random embeddings + a bounded-degree exclusion CSR."""
    rng = np.random.default_rng(seed)
    user = rng.standard_normal((num_users, dim)).astype(np.float32)
    item = rng.standard_normal((num_items, dim)).astype(np.float32)
    rows, cols = [], []
    for u in range(num_users):
        n = int(rng.integers(0, max_seen + 1))
        if n:
            picks = rng.choice(num_items, size=min(n, num_items),
                               replace=False)
            rows.extend([u] * len(picks))
            cols.extend(picks.tolist())
    train = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(num_users, num_items))
    train.sort_indices()
    return user, item, train


@given(seed=st.integers(0, 2**32 - 1),
       num_users=st.integers(1, 30),
       num_items=st.integers(2, 60),
       dim=st.integers(2, 8),
       k=st.integers(1, 10))
@settings(**SETTINGS)
def test_small_catalog_ann_is_bitwise_exact(seed, num_users, num_items,
                                            dim, k):
    """<= 60 items sits under the candidate floor: ANN == exact, bitwise."""
    k = min(k, num_items)
    max_seen = max(0, (num_items - k) // 2)
    user, item, train = make_state(seed, num_users, num_items, dim,
                                   max_seen)
    exact = RecommenderService(
        num_users=num_users, num_items=num_items, exclusion=train,
        user_embeddings=user, item_embeddings=item)
    ann = RecommenderService(
        num_users=num_users, num_items=num_items, exclusion=train,
        user_embeddings=user, item_embeddings=item, backend="ann")
    try:
        expected = exact.recommend(k=k)
        got = ann.recommend(k=k)
        assert np.array_equal(got, expected)
        assert recall_at_k(got, expected) == 1.0
    finally:
        exact.close()
        ann.close()


@given(seed=st.integers(0, 2**32 - 1),
       num_users=st.integers(1, 24),
       num_items=st.integers(300, 800),
       dim=st.integers(2, 8),
       k=st.integers(1, 20))
@settings(**SETTINGS)
def test_large_catalog_ann_invariants(seed, num_users, num_items, dim, k):
    """Above the floor, truly approximate — the structure must still hold."""
    user, item, train = make_state(seed, num_users, num_items, dim,
                                   max_seen=12)
    service = RecommenderService(
        num_users=num_users, num_items=num_items, exclusion=train,
        user_embeddings=user, item_embeddings=item, backend="ann")
    try:
        lists = service.recommend(k=k)
        assert lists.shape == (num_users, k)             # respects k
        assert lists.min() >= 0                          # item universe
        assert lists.max() < num_items
        for u in range(num_users):
            row = lists[u]
            assert len(set(row.tolist())) == k           # no duplicates
            seen = set(service.seen_items_of(u).tolist())
            assert not seen.intersection(row.tolist())   # no seen items
    finally:
        service.close()


@given(seed=st.integers(0, 2**32 - 1),
       num_items=st.integers(300, 800),
       k=st.integers(1, 20))
@settings(**SETTINGS)
def test_candidate_scores_match_exact_where_finite(seed, num_items, k):
    """Every finite ANN score is the true dot product (no made-up scores).

    Gathered candidates are scored by einsum row-dots while the exact
    reference is a GEMM — same math, different summation order — so the
    comparison is tight-tolerance, not bitwise.
    """
    rng = np.random.default_rng(seed)
    user = rng.standard_normal((8, 6)).astype(np.float64)
    item = rng.standard_normal((num_items, 6)).astype(np.float64)
    index = IVFIndex.build(item, ANNConfig(seed=seed % 997))
    ids = index.candidates(user, np.arange(8), k=k)
    scores = index.candidate_scores(user, item, np.arange(8), ids)
    exact = np.ascontiguousarray(user) @ item.T
    finite = np.isfinite(scores)
    assert np.array_equal(finite, ids >= 0)      # -inf only on padding
    assert (finite.sum(axis=1) >= k).all()
    rows, cols = np.nonzero(finite)
    assert np.allclose(scores[finite], exact[rows, ids[rows, cols]],
                       rtol=1e-10, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1),
       num_users=st.integers(2, 16),
       num_items=st.integers(300, 800),
       distinct=st.integers(20, 150),
       heavy=st.integers(0, 400),
       dim=st.integers(2, 8),
       k=st.integers(1, 20))
@settings(**SETTINGS)
def test_ann_answer_is_batch_invariant(seed, num_users, num_items, distinct,
                                       heavy, dim, k):
    """A user's ANN answer is the same alone, in any batch, via the front.

    Item vectors repeat, so equal scores are forced: the lower item id
    must win them, inside the top-k and at its boundary.  User 0 may
    have hundreds of seen items; that must not move anyone else's
    answer.
    """
    rng = np.random.default_rng(seed)
    user, item, train = make_state(seed, num_users, num_items, dim,
                                   max_seen=12)
    source = rng.integers(0, distinct, num_items)
    item = item[source]
    extra = rng.choice(num_items, size=min(heavy, num_items // 2),
                       replace=False)
    train = (train + sp.csr_matrix(
        (np.ones(len(extra)), (np.zeros(len(extra), dtype=np.int64),
                               extra)), shape=train.shape)).tocsr()
    train.data[:] = 1.0
    train.sort_indices()
    service = RecommenderService(
        num_users=num_users, num_items=num_items, exclusion=train,
        user_embeddings=user, item_embeddings=item, backend="ann")
    try:
        alone = np.concatenate([service.recommend([u], k=k)
                                for u in range(num_users)])
        assert np.array_equal(service.recommend(k=k), alone)
        mixed = rng.permutation(np.concatenate([np.arange(num_users)] * 2))
        assert np.array_equal(service.recommend(mixed, k=k), alone[mixed])
        with AsyncRequestFront(service, window_ms=5.0, k=k) as front:
            futures = [front.submit([u]) for u in mixed]
            fronted = np.concatenate([f.result(timeout=30)
                                      for f in futures])
        assert np.array_equal(fronted, alone[mixed])

        index = IVFIndex.build(item)
        seen_counts = np.diff(train.indptr)
        for u in range(num_users):
            answer = alone[u]
            pool = index.candidates(user, [u], k,
                                    seen_counts=seen_counts[[u]])[0]
            passed = set(pool[pool >= 0].tolist()) - set(answer.tolist()) \
                - set(service.seen_items_of(u).tolist())
            for rank, a in enumerate(answer.tolist()):
                twins = np.flatnonzero(source == source[a])
                # an equal-scored twin ranked after it, or left out of
                # the top-k, must have the larger id
                later = set(answer[rank + 1:].tolist()) | passed
                assert all(b > a for b in twins.tolist() if b in later)
    finally:
        service.close()


@given(seed=st.integers(0, 2**32 - 1),
       num_users=st.integers(1, 20),
       num_items=st.integers(2, 120),
       dim=st.integers(2, 8))
@settings(**SETTINGS)
def test_mmap_and_eager_snapshots_bit_identical(seed, num_users,
                                                num_items, dim):
    """The exact path must not care how the tables got into memory."""
    k = min(5, num_items)
    user, item, train = make_state(seed, num_users, num_items, dim,
                                   max_seen=0)
    with tempfile.TemporaryDirectory() as td:
        path = save_embedding_snapshot(os.path.join(td, "s.npz"), user,
                                       item, train_matrix=train)
        eager = load_snapshot(path)
        mapped = load_snapshot(path, mmap=True)
        assert np.array_equal(np.asarray(mapped.user_embeddings),
                              eager.user_embeddings)
        assert np.array_equal(np.asarray(mapped.item_embeddings),
                              eager.item_embeddings)
        a = RecommenderService.from_snapshot(eager)
        b = RecommenderService.from_snapshot(path, mmap=True)
        try:
            assert np.array_equal(a.recommend(k=k), b.recommend(k=k))
        finally:
            a.close()
            b.close()
