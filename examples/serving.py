#!/usr/bin/env python
"""Serving walkthrough: train once, snapshot, serve, update online.

Runs in under a minute on one CPU core:

    python examples/serving.py

Demonstrates the ``repro.serve`` subsystem end to end through the
experiment facade: the spec's ``artifacts.snapshot`` persists the
trained model as a single-artifact snapshot, a ``RecommenderService``
stands back up from the artifact without the training pipeline, answers
batched ``recommend`` requests, and folds new interactions in with
``partial_update`` — no retrain.
"""

import os
import tempfile
import time

import numpy as np

from repro.api import Experiment, ExperimentSpec
from repro.eval import top_k_lists
from repro.serve import RecommenderService, load_snapshot


def main(dataset: str = "gowalla", epochs: int = 30):
    # 1. Train (any registered model name works — try "ncf" to see the
    # model-backend restore path instead of cached embeddings); the
    # snapshot artifact is written at end of fit by the callback registry
    path = os.path.join(tempfile.mkdtemp(), "lightgcn-serve.npz")
    spec = ExperimentSpec(
        model="lightgcn",
        dataset=dataset,
        model_config={"embedding_dim": 32, "num_layers": 3},
        train_config={"epochs": epochs, "eval_every": epochs},
        artifacts={"snapshot": path},
    )
    experiment = Experiment(spec)
    result = experiment.run()
    print(f"trained lightgcn in {result.train_seconds:.1f}s "
          f"(recall@20 {result.metrics.get('recall@20', 0):.4f})\n")

    # 2. The snapshot: one .npz artifact with parameters, propagated
    # embeddings and the seen-item exclusion CSR
    snap = load_snapshot(path)
    print(f"snapshot -> {path}")
    print(f"  model={snap.model_name}  embeddings={snap.has_embeddings}  "
          f"format_version={snap.meta['format_version']}  "
          f"size={os.path.getsize(path) / 1024:.0f} KiB\n")

    # 3. Serve from the artifact alone — the model object is not needed
    service = RecommenderService.from_snapshot(path)
    users = np.unique(np.array([3, 14, 15, 92])
                      % experiment.dataset().num_users)
    topk = service.recommend(users, k=5)
    for user, row in zip(users, topk):
        print(f"  top-5 for user {user}: {row.tolist()}")

    # the served lists match the live model's ranking exactly
    assert np.array_equal(topk, top_k_lists(experiment.model,
                                            experiment.dataset(), k=5,
                                            users=users))
    print("  (identical to the live model's top_k_lists)\n")

    # 4. Online update: user 3 consumes their top recommendation; the
    # item is excluded immediately and the user's cached vector shifts
    # toward it (degree-weighted fold-in)
    consumed = int(topk[0, 0])
    report = service.partial_update([3], [consumed])
    after = service.recommend(np.array([3]), k=5)[0]
    print(f"user 3 consumed item {consumed}: {report}")
    print(f"  new top-5 for user 3: {after.tolist()} "
          f"(item {consumed} gone)\n")
    assert consumed not in after

    # 5. Throughput: one request serves a whole user batch, chunk by chunk
    all_users = np.arange(experiment.dataset().num_users)
    start = time.perf_counter()
    service.recommend(all_users, k=20)
    elapsed = time.perf_counter() - start
    print(f"served top-20 for all {len(all_users)} users in "
          f"{elapsed * 1e3:.1f} ms "
          f"({len(all_users) / elapsed:,.0f} users/sec)")
    service.close()


if __name__ == "__main__":
    main()
