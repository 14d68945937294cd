"""Amortized-propagation walkthrough: exact vs K-stale training.

Graph recommenders spend most of every batch recomputing the multi-layer
``propagate()`` forward and backward.  ``TrainConfig.propagate_every=K``
amortizes that cost: one live propagation is shared by K batches — the
refresh batch trains the full model loss, and the K-1 "stale" batches
train BPR + L2 on the frozen propagated tables.  The staleness is a
different objective (spec-visible, it changes the fingerprint), so this
walkthrough prints the quality next to the speed.

Run it::

    PYTHONPATH=src python examples/amortized_training.py
"""

from repro.data.loaders import resolve_dataset
from repro.models import build_model
from repro.train import ModelConfig, TrainConfig, fit_model


def _fit(model_name, dataset, model_cfg, seed, **train_knobs):
    model = build_model(model_name, dataset, model_cfg, seed=seed)
    return fit_model(model, dataset, TrainConfig(**train_knobs), seed=seed)


def main(dataset="gowalla", model="lightgcn", epochs=40, embedding_dim=32,
         batch_size=512, propagate_every=8, seed=0):
    """Train the exact and the K-stale schedule; compare speed and recall."""
    data = resolve_dataset(dataset, seed=seed) if isinstance(dataset, str) \
        else dataset
    model_cfg = ModelConfig(embedding_dim=embedding_dim)
    knobs = dict(epochs=epochs, batch_size=batch_size,
                 eval_every=max(1, epochs // 2))

    print(f"{model}/{dataset}: {epochs} epochs, "
          f"propagate_every={propagate_every}")
    exact = _fit(model, data, model_cfg, seed, **knobs)
    stale = _fit(model, data, model_cfg, seed, **knobs,
                 propagate_every=propagate_every)

    print(f"\n{'schedule':<22} {'train s':>8} {'epochs/sec':>11} "
          f"{'recall@20':>10}")
    for label, result in (("exact (K=1)", exact),
                          (f"stale (K={propagate_every})", stale)):
        eps = len(result.history) / max(result.train_seconds, 1e-12)
        print(f"{label:<22} {result.train_seconds:>8.3f} {eps:>11.1f} "
              f"{result.best_metrics.get('recall@20', float('nan')):>10.4f}")
    speedup = exact.train_seconds / max(stale.train_seconds, 1e-12)
    print(f"\namortizing {propagate_every - 1}/{propagate_every} of the "
          f"propagations: {speedup:.2f}x faster training "
          f"(the quality trade per model is measured in "
          f"benchmarks/BENCH_hotpath.json)")
    return exact, stale


if __name__ == "__main__":
    main()
