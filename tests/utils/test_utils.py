"""Tests for the shared utilities (seeding, env knobs, validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    env_float,
    env_int,
    ensure_fraction,
    ensure_positive_int,
    ensure_probability_vector,
    seeded_rng,
    spawn_rngs,
)


class TestSeeding:
    def test_seeded_rng_is_deterministic(self):
        a = seeded_rng(7).normal(size=5)
        b = seeded_rng(7).normal(size=5)
        np.testing.assert_allclose(a, b)

    def test_seeded_rng_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            seeded_rng(-1)

    def test_spawn_rngs_are_independent_but_reproducible(self):
        first = [rng.normal() for rng in spawn_rngs(3, 4)]
        second = [rng.normal() for rng in spawn_rngs(3, 4)]
        np.testing.assert_allclose(first, second)
        assert len(set(np.round(first, 12))) == 4

    def test_spawn_rngs_rejects_bad_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


#: A knob name no deployment sets; each test sets or clears it itself.
KNOB = "REPRO_TEST_KNOB"


class TestEnvKnobs:
    """``env_int`` / ``env_float``: the one parser every ``REPRO_*`` knob goes
    through, failing at parse time with the variable and value named."""

    @pytest.mark.parametrize("raw", [None, "", "   "], ids=["unset", "empty", "blank"])
    def test_unset_or_blank_falls_back_to_default(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv(KNOB, raising=False)
        else:
            monkeypatch.setenv(KNOB, raw)
        assert env_int(KNOB, 4, minimum=1) == 4
        assert env_float(KNOB, 2.5, minimum=0.0, exclusive=True) == 2.5

    def test_surrounding_whitespace_is_ignored(self, monkeypatch):
        monkeypatch.setenv(KNOB, " 7\n")
        assert env_int(KNOB, 1) == 7
        assert env_float(KNOB, 1.0) == 7.0

    @pytest.mark.parametrize("raw", ["nan", "NaN", "-nan", "soon"])
    def test_float_must_be_a_number(self, monkeypatch, raw):
        """NaN is rejected like text: it passes no ``minimum`` comparison, so
        a NaN knob would slip through every bound."""
        monkeypatch.setenv(KNOB, f" {raw} ")
        with pytest.raises(ValueError, match=f"{KNOB} must be a number, got '{raw}'"):
            env_float(KNOB, 1.0, minimum=0.0, exclusive=True)

    def test_float_infinity_is_a_number(self, monkeypatch):
        monkeypatch.setenv(KNOB, "inf")
        assert env_float(KNOB, 1.0, minimum=0.0, exclusive=True) == float("inf")
        monkeypatch.setenv(KNOB, "-inf")
        with pytest.raises(ValueError, match=f"{KNOB} must be > 0.0, got -inf"):
            env_float(KNOB, 1.0, minimum=0.0, exclusive=True)

    def test_float_minimum_is_inclusive_unless_exclusive(self, monkeypatch):
        monkeypatch.setenv(KNOB, "0")
        assert env_float(KNOB, 1.0, minimum=0.0) == 0.0
        with pytest.raises(ValueError, match=f"{KNOB} must be > 0.0, got 0.0"):
            env_float(KNOB, 1.0, minimum=0.0, exclusive=True)
        monkeypatch.setenv(KNOB, "-0.5")
        with pytest.raises(ValueError, match=f"{KNOB} must be >= 0.0, got -0.5"):
            env_float(KNOB, 1.0, minimum=0.0)

    @pytest.mark.parametrize("raw", ["1.5", "ten"])
    def test_int_must_be_an_integer(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        with pytest.raises(ValueError, match=f"{KNOB} must be an integer, got '{raw}'"):
            env_int(KNOB, 1)

    def test_int_minimum_is_inclusive_and_optional(self, monkeypatch):
        monkeypatch.setenv(KNOB, "1")
        assert env_int(KNOB, 4, minimum=1) == 1
        monkeypatch.setenv(KNOB, "0")
        with pytest.raises(ValueError, match=f"{KNOB} must be >= 1, got 0"):
            env_int(KNOB, 4, minimum=1)
        monkeypatch.setenv(KNOB, "-3")
        assert env_int(KNOB, 4) == -3


class TestValidation:
    def test_ensure_positive_int(self):
        assert ensure_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            ensure_positive_int(0, "x")
        with pytest.raises(ValueError):
            ensure_positive_int(1.5, "x")
        with pytest.raises(ValueError):
            ensure_positive_int(True, "x")

    def test_ensure_fraction(self):
        assert ensure_fraction(0.5, "f") == 0.5
        assert ensure_fraction(1.0, "f") == 1.0
        with pytest.raises(ValueError):
            ensure_fraction(0.0, "f")
        with pytest.raises(ValueError):
            ensure_fraction(1.5, "f")

    def test_ensure_probability_vector(self):
        probs = ensure_probability_vector(np.array([1.0, 3.0]), "p")
        np.testing.assert_allclose(probs, [0.25, 0.75])
        with pytest.raises(ValueError):
            ensure_probability_vector(np.array([-1.0, 2.0]), "p")
        with pytest.raises(ValueError):
            ensure_probability_vector(np.array([0.0, 0.0]), "p")
        with pytest.raises(ValueError):
            ensure_probability_vector(np.zeros((2, 2)), "p")
