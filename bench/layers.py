"""Per-layer tracing from outside the program, and the span arithmetic.

A traced run rebinds the public functions each layer exposes (module
and class attributes of ``repro``) to wrappers that open a
``repro.obs.span``.  Spans nest through their ``parent_id``, so a
span's *self time* is its duration minus the durations of its direct
children.  Nothing under ``src/`` is edited: :meth:`LayerTracer.remove`
puts every original object back, and untraced runs never install a
wrapper at all.

The repo's own spans (``train.epoch``, ``train.batch``, ``train.eval``,
``serve.recommend``, ``serve.partial_update``) are recorded as soon as
tracing is enabled, so they are used as they are and not wrapped again.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs import span

#: (module, attribute path, span name) of every rebound function.  The
#: encoder's span is named per call (``core.encode_original``/``_view``).
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.data.sampler", "BPRSampler.sample", "data.sample"),
    ("repro.core.graphaug", "GraphAug.loss", "model.loss"),
    ("repro.models.hccf", "HCCF.loss", "model.loss"),
    ("repro.core.mixhop", "MixhopEncoder.forward", "core.encode"),
    ("repro.core.augmentor", "LearnableAugmentor.edge_logits",
     "core.augmentor"),
    ("repro.core.graphaug", "sample_view", "core.sample_view"),
    ("repro.core.graphaug", "gib_prediction_term", "core.gib"),
    ("repro.core.graphaug", "gib_kl_term", "core.gib"),
    ("repro.autograd.functional", "decomposed_infonce_loss",
     "core.contrastive"),
    ("repro.autograd.tensor", "Tensor.backward", "autograd.backward"),
    ("repro.autograd.optim", "Adam.step", "autograd.optim_step"),
    ("repro.serve.ann", "IVFIndex.candidate_scores", "serve.ann.candidates"),
    ("repro.serve.service", "rank_items_block", "serve.rank"),
)

#: spans that only group others; their self time is "unattributed"
CONTAINER_SPANS = ("train.batch",)

#: the ANN block's finite share is counted on every Nth call only, since
#: scanning a (users x items) block costs a visible slice of a request
SCORED_SAMPLE_EVERY = 16


def resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is not defined where the "
                             "benchmark expects it; update TRACE_POINTS")
    return owner, attr


class LayerTracer:
    """Installs and removes the span wrappers; keeps the side counters.

    ``counts`` holds what spans cannot: kept/attempted candidate edges
    of every sampled view, contrastive operand sizes, and the finite
    share of sampled ANN candidate blocks (keyed by ``phase``).
    """

    def __init__(self):
        self._saved: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.phase = ""
        self._encodes: Optional[int] = None   # encoder calls in this loss
        self._candidate_calls = 0

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for module_name, path, name in TRACE_POINTS:
            owner, attr = resolve(module_name, path)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name: str):
        counts = self.counts

        if name == "model.loss":
            def wrapper(*args, **kwargs):
                self._encodes = 0
                try:
                    with span(name):
                        return fn(*args, **kwargs)
                finally:
                    self._encodes = None
        elif name == "core.encode":
            def wrapper(*args, **kwargs):
                # the first encode of a loss call is the original graph,
                # the later ones the sampled views; outside a loss call
                # (evaluation) it is always the original graph
                view = bool(self._encodes)
                if self._encodes is not None:
                    self._encodes += 1
                label = "core.encode_view" if view else "core.encode_original"
                with span(label):
                    return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with span(name):
                    out = fn(*args, **kwargs)
                if name == "core.sample_view":
                    counts["view.kept"] += int(np.count_nonzero(out.keep_mask))
                    counts["view.attempted"] += len(out.keep_mask)
                elif name == "core.contrastive":
                    a, b = args[0].data, args[1].data
                    counts["contrastive.calls"] += 1
                    counts["contrastive.rows"] += a.shape[0]
                    counts["contrastive.nxn_bytes"] += (
                        a.shape[0] * b.shape[0] * a.itemsize)
                elif name == "serve.ann.candidates":
                    self._candidate_calls += 1
                    if self._candidate_calls % SCORED_SAMPLE_EVERY == 0:
                        counts[f"scored.{self.phase}.finite"] += int(
                            np.count_nonzero(np.isfinite(out)))
                        counts[f"scored.{self.phase}.cells"] += out.size
                return out
        return functools.wraps(fn)(wrapper)


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
class SpanTree:
    """The complete (``"X"``) events of one trace, indexed for self times."""

    def __init__(self, events: Iterable[dict]):
        self.spans = [e for e in events if e.get("ph") == "X"]
        self.children: Dict[int, List[dict]] = defaultdict(list)
        for event in self.spans:
            self.children[event["args"]["parent_id"]].append(event)

    def self_us(self, event: dict) -> float:
        kids = self.children.get(event["args"]["span_id"], ())
        return event["dur"] - sum(child["dur"] for child in kids)

    def descendants(self, event: dict) -> List[dict]:
        out, stack = [], list(self.children.get(event["args"]["span_id"], ()))
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(self.children.get(child["args"]["span_id"], ()))
        return out

    def named(self, name: str) -> List[dict]:
        return [e for e in self.spans if e["name"] == name]

    def self_times(self, events: Iterable[dict]) -> Dict[str, float]:
        """Seconds of self time per span name, largest first."""
        totals: Dict[str, float] = defaultdict(float)
        for event in events:
            totals[event["name"]] += self.self_us(event) / 1e6
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def epoch_split(self, epoch: dict) -> Tuple[float, float]:
        """``(stage self seconds, unattributed seconds)`` of one epoch.

        Unattributed time is the epoch's own self time plus that of the
        batch containers: work the trainer does between the stages.
        """
        unattributed = self.self_us(epoch)
        staged = 0.0
        for event in self.descendants(epoch):
            if event["name"] in CONTAINER_SPANS:
                unattributed += self.self_us(event)
            else:
                staged += self.self_us(event)
        return staged / 1e6, unattributed / 1e6


def percentile(values, q: float) -> float:
    """``np.percentile`` that reads 0.0 for an empty sample."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0
