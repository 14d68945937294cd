"""Small shared utilities: seeding, timing and a name registry."""

from .rng import seeded_rng, spawn_rngs
from .timer import Timer
from .registry import Registry, component_registry, component_kinds

__all__ = ["seeded_rng", "spawn_rngs", "Timer", "Registry",
           "component_registry", "component_kinds"]
