"""Tests for uniform quantization of tensors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import apply_tensor_flips

from repro.quantization import (
    ParameterArena,
    QuantizationConfig,
    SegmentLayout,
    UniformQuantizer,
)


class TestQuantizationConfig:
    def test_symmetric_range(self):
        cfg = QuantizationConfig(bits=4)
        assert cfg.qmin == -7
        assert cfg.qmax == 7
        assert cfg.num_levels == 16

    def test_rejects_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationConfig(bits=1)
        with pytest.raises(ValueError):
            QuantizationConfig(bits=64)


class TestUniformQuantizer:
    def test_codes_within_range(self, rng):
        for bits in (2, 4, 8):
            cfg = QuantizationConfig(bits=bits)
            qt = UniformQuantizer(cfg).quantize(rng.normal(size=(10, 10)))
            assert qt.codes.min() >= cfg.qmin
            assert qt.codes.max() <= cfg.qmax

    def test_roundtrip_error_shrinks_with_bits(self, rng):
        values = rng.normal(size=(50, 50))
        errors = []
        for bits in (2, 4, 8):
            quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
            errors.append(quantizer.quantization_error(values))
        assert errors[0] > errors[1] > errors[2]

    def test_eight_bit_roundtrip_is_accurate(self, rng):
        values = rng.normal(size=(20, 20))
        quantizer = UniformQuantizer(QuantizationConfig(bits=8))
        reconstructed = quantizer.fake_quantize(values)
        assert np.max(np.abs(values - reconstructed)) < np.max(np.abs(values)) / 100

    def test_zero_tensor(self):
        qt = UniformQuantizer(QuantizationConfig(bits=4)).quantize(np.zeros((3, 3)))
        np.testing.assert_array_equal(qt.codes, 0)
        np.testing.assert_array_equal(qt.dequantize(), 0.0)

    @pytest.mark.parametrize("fused", [True, False])
    def test_subnormal_range_does_not_crash(self, fused):
        """Scale underflow to 0.0 falls back to unit scale, like zero tensors.

        Both callers of the scale rule agree: the scalar path and the arena's
        segmented pass.
        """
        config = QuantizationConfig(bits=4)
        values = np.full(5, 5e-324)  # smallest positive subnormal
        if fused:
            arena = ParameterArena(
                SegmentLayout(["v"], [(5,)]), config, values.copy(),
                np.zeros(5, dtype=np.int64), np.ones(1),
            )
            arena.refresh_scales()
            arena.materialize()
            scale, codes = arena.scales[0], arena.codes
        else:
            qt = UniformQuantizer(config).quantize(values)
            scale, codes = qt.scale, qt.codes
        assert scale == 1.0
        np.testing.assert_array_equal(codes, 0)

    def test_paper_figure2_example(self):
        # Figure 2: with 3-bit quantization over levels spaced by 10, the value
        # 17.831 falls in [15, 25) and maps to the level 20.
        levels = np.array([-30, -20, -10, 0, 10, 20, 30], dtype=float)
        quantizer = UniformQuantizer(QuantizationConfig(bits=3))
        qt = quantizer.quantize(levels)
        assert qt.scale == pytest.approx(10.0)
        code = int(np.clip(round(17.831 / qt.scale), qt.config.qmin, qt.config.qmax))
        assert qt.scale * code == pytest.approx(20.0)

    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.sampled_from([2, 3, 4, 8]),
        data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
    )
    def test_property_roundtrip_error_bounded_by_half_scale(self, bits, data):
        """Quantization error of any value inside the range is at most scale/2."""
        values = np.array(data)
        quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
        qt = quantizer.quantize(values)
        reconstructed = qt.dequantize()
        assert np.all(np.abs(values - reconstructed) <= qt.scale / 2 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
    )
    def test_property_codes_in_range(self, bits, data):
        cfg = QuantizationConfig(bits=bits)
        qt = UniformQuantizer(cfg).quantize(np.array(data))
        assert qt.codes.min() >= cfg.qmin
        assert qt.codes.max() <= cfg.qmax


class TestQuantizedTensor:
    def _make(self, bits=4):
        cfg = QuantizationConfig(bits=bits)
        return UniformQuantizer(cfg).quantize(np.linspace(-1, 1, 10)), cfg

    def test_apply_flips_moves_codes(self):
        qt, _ = self._make()
        before = qt.codes.copy()
        flips = np.zeros_like(before)
        flips[0] = 1
        flips[1] = -1
        apply_tensor_flips(qt, flips)
        assert qt.codes[0] == min(before[0] + 1, qt.config.qmax)
        assert qt.codes[1] == max(before[1] - 1, qt.config.qmin)

    def test_apply_flips_clips_at_range(self):
        qt, cfg = self._make(bits=2)
        apply_tensor_flips(qt, np.ones_like(qt.codes))
        apply_tensor_flips(qt, np.ones_like(qt.codes))
        apply_tensor_flips(qt, np.ones_like(qt.codes))
        assert qt.codes.max() <= cfg.qmax

    def test_apply_flips_rejects_large_values(self):
        qt, _ = self._make()
        with pytest.raises(ValueError):
            apply_tensor_flips(qt, np.full_like(qt.codes, 2))

    def test_apply_flips_rejects_wrong_shape(self):
        qt, _ = self._make()
        with pytest.raises(ValueError):
            apply_tensor_flips(qt, np.zeros(3, dtype=np.int64))

    def test_memory_bits(self):
        qt, _ = self._make(bits=4)
        assert qt.memory_bits() == 10 * 4

