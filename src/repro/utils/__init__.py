"""Shared utilities: seeding, env knobs, validation helpers and the
stores' SQLite substrate (:mod:`repro.utils.sqlite`, imported directly)."""

from repro.utils.env import env_float, env_int
from repro.utils.seeding import seeded_rng, spawn_rngs
from repro.utils.validation import (
    ensure_fraction,
    ensure_positive_int,
    ensure_probability_vector,
)

__all__ = [
    "env_float",
    "env_int",
    "seeded_rng",
    "spawn_rngs",
    "ensure_fraction",
    "ensure_positive_int",
    "ensure_probability_vector",
]
