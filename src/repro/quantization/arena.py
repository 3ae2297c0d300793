"""Flat parameter arena: contiguous multi-tensor storage with zero-copy views.

A quantized model's parameters live in three flat buffers that share one
:class:`SegmentLayout`: full-precision latent weights, integer codes, and
the dequantized weights the wrapped model computes with (its parameters are
zero-copy views into that buffer).  Every per-tensor view the rest of the
program reads is a slice of one of them.

Server-side QAT walks every parameter tensor once per mini-batch.  Over the
arena a straight-through-estimator step collapses into

1. a single vectorized subtract over the latent buffer,
2. one segmented range reduction (``np.maximum.reduceat`` over segment
   boundaries) feeding :func:`~repro.quantization.quantizer.max_abs_scale`,
   and
3. one fused round / clip / dequantize pass written straight through the
   weights buffer.

Integer codes are materialized lazily — :meth:`ParameterArena.materialize`
runs only when somebody actually reads codes (``snapshot_codes`` /
``epoch_hook`` at epoch boundaries, or edge-side flip machinery).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.quantization.quantizer import QuantizationConfig, max_abs_scale


class SegmentLayout:
    """Immutable map between named tensors and segments of a flat buffer.

    The layout is shared by every buffer of a :class:`ParameterArena` (latent,
    weights, codes) and by the copies of the model that owns it.  The fleet
    calibrator uses the same segment arithmetic to stack raw bit-flip
    features across homogeneous devices.  Every segment holds at least one
    element.
    """

    def __init__(self, names: Sequence[str], shapes: Sequence[Tuple[int, ...]]) -> None:
        if len(names) != len(shapes):
            raise ValueError("names and shapes must have the same length")
        if len(set(names)) != len(names):
            raise ValueError("segment names must be unique")
        self.names: List[str] = list(names)
        self.shapes: List[Tuple[int, ...]] = [tuple(shape) for shape in shapes]
        sizes = [int(np.prod(shape)) if shape else 1 for shape in self.shapes]
        empty = [name for name, size in zip(self.names, sizes) if size <= 0]
        if empty:
            raise ValueError(f"segments must not be empty: {empty}")
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)
        self._index = {name: i for i, name in enumerate(self.names)}
        bounds = self.offsets.tolist()
        self._slices = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "SegmentLayout":
        """Layout matching a name → array mapping, in iteration order."""
        return cls(list(arrays), [np.shape(a) for a in arrays.values()])

    def __deepcopy__(self, memo: Dict[int, Any]) -> "SegmentLayout":
        """Copies share the layout: nothing mutates it after construction."""
        return self

    @property
    def size(self) -> int:
        """Total number of scalar elements across all segments."""
        return int(self.offsets[-1])

    @property
    def num_segments(self) -> int:
        """Number of named segments in the layout."""
        return len(self.names)

    def index(self, name: str) -> int:
        """Position of segment ``name`` in layout order."""
        return self._index[name]

    def view(self, buffer: np.ndarray, name: str) -> np.ndarray:
        """Zero-copy view of ``name``'s segment, reshaped to the tensor shape."""
        i = self._index[name]
        return buffer[self._slices[i]].reshape(self.shapes[i])

    def split(self, buffer: np.ndarray) -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(name, flat_segment)`` views without reshaping."""
        for name, segment in zip(self.names, self._slices):
            yield name, buffer[segment]


class ParameterArena:
    """Flat storage of a quantized model's three parameter representations.

    Buffers (all sharing one :class:`SegmentLayout`):

    ``latent``
        Full-precision master weights (compute dtype).  QAT subtracts scaled
        gradients from this buffer in one vectorized op.
    ``weights``
        The dequantized (fake-quantized) values the wrapped model computes
        with.  Model parameters hold zero-copy views into this buffer, so
        writing it *is* synchronising the model.
    ``codes``
        Integer codes (int64), materialized lazily from ``latent`` by
        :meth:`materialize` — per-batch QAT never touches them.

    ``scales`` (float64) holds the per-segment scales of the most recent
    (fake-)quantization pass.  The arena adopts the ``latent``, ``codes``
    and ``scales`` buffers it is given; the weights buffer starts at zero
    for its owner to fill.
    """

    def __init__(
        self,
        layout: SegmentLayout,
        config: QuantizationConfig,
        latent: np.ndarray,
        codes: np.ndarray,
        scales: np.ndarray,
    ) -> None:
        shapes = (latent.shape, codes.shape, scales.shape)
        if shapes != ((layout.size,), (layout.size,), (layout.num_segments,)):
            raise ValueError(
                f"buffer shapes {shapes} do not fit a layout of {layout.size} "
                f"elements in {layout.num_segments} segments"
            )
        self.layout = layout
        self.config = config
        self.latent = latent
        self.codes = codes
        self.scales = scales
        self.weights = np.zeros_like(latent)
        # Hot-path caches: every intermediate lives in preallocated
        # compute-dtype scratch, and the per-segment affine passes go through
        # cached flat views.
        self._scratch = np.empty_like(latent)
        self._starts = layout.offsets[:-1]
        self._latent_segments = [seg for _, seg in layout.split(self.latent)]
        self._scratch_segments = [seg for _, seg in layout.split(self._scratch)]
        self._weight_segments = [seg for _, seg in layout.split(self.weights)]

    # -- convenience views --------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of scalar elements across all buffers."""
        return self.layout.size

    @property
    def names(self) -> List[str]:
        """Segment names in layout order."""
        return self.layout.names

    def latent_view(self, name: str) -> np.ndarray:
        """Zero-copy view of ``name``'s full-precision master weights."""
        return self.layout.view(self.latent, name)

    def weights_view(self, name: str) -> np.ndarray:
        """Zero-copy view of ``name``'s dequantized compute weights."""
        return self.layout.view(self.weights, name)

    def codes_view(self, name: str) -> np.ndarray:
        """Zero-copy view of ``name``'s integer codes."""
        return self.layout.view(self.codes, name)

    # -- fused passes -------------------------------------------------------
    #
    # The affine (scale) application runs per segment with *python-scalar*
    # operands through cached flat views — a scalar-operand ufunc moves half
    # the memory of an array-operand one, which is what lets the fused path
    # beat a per-tensor loop on large tensors while still collapsing the
    # per-batch Python overhead on many-tensor models (two calls per segment
    # instead of the serial loop's dozen).  Rounding and clipping stay
    # whole-buffer.  At float64 a python-float scale is the same float64
    # :meth:`UniformQuantizer.quantize` uses, so the passes are
    # bit-identical to it; at float32 NumPy casts the scalar to float32
    # first, exactly like its ``values / scale``.

    def refresh_scales(self) -> None:
        """Per-segment scales from the current latent buffer.

        |latent| into scratch, one ``reduceat``, then the float64
        :func:`~repro.quantization.quantizer.max_abs_scale` rule on the tiny
        per-segment array.
        """
        np.abs(self.latent, out=self._scratch)
        max_abs = np.maximum.reduceat(self._scratch, self._starts).astype(
            np.float64  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
        )
        self.scales[...] = max_abs_scale(max_abs, self.config.qmax)

    def _divide_segments(self, scales: Sequence[float]) -> None:
        """``scratch[seg] = latent[seg] / scale[seg]`` with scalar operands."""
        for seg_in, seg_out, scale in zip(self._latent_segments, self._scratch_segments, scales):
            np.divide(seg_in, scale, out=seg_out)

    def _multiply_into_weights(self, scales: Sequence[float]) -> None:
        """``weights[seg] = scratch[seg] * scale[seg]`` with scalar operands."""
        for seg_in, seg_out, scale in zip(self._scratch_segments, self._weight_segments, scales):
            np.multiply(seg_in, scale, out=seg_out)

    def _round_codes_into_scratch(self) -> None:
        """``scratch = clip(round(latent / scale))`` under the stored scales."""
        cfg = self.config
        self._divide_segments(self.scales.tolist())
        np.round(self._scratch, out=self._scratch)
        np.clip(self._scratch, cfg.qmin, cfg.qmax, out=self._scratch)

    def requantize(self) -> None:
        """One fused STE write-back: latent → fake-quantized ``weights``.

        Recomputes the per-segment scales from the current latent buffer and
        writes the dequantized values through ``weights`` (and therefore
        through every model parameter view) without materializing codes.
        """
        self.refresh_scales()
        self._round_codes_into_scratch()
        self._multiply_into_weights(self.scales.tolist())

    def materialize(self) -> None:
        """Materialize integer codes from ``latent`` under the stored scales.

        Called lazily at epoch boundaries (or before any edge-side code
        mutation).  The stored scales are exactly the ones the last
        :meth:`requantize` used, so the codes agree bit-for-bit with the
        weights the model has been computing with.
        """
        self._round_codes_into_scratch()
        self.codes[...] = self._scratch  # exact integers; the int64 cast is lossless

    def write_weights_from_codes(self) -> None:
        """Dequantize the integer codes into the ``weights`` buffer.

        The edge-side counterpart of :meth:`requantize`: after flips or a
        rollback mutate the codes, one vectorized affine pass refreshes every
        parameter view.
        """
        self._scratch[...] = self.codes
        self._multiply_into_weights(self.scales.tolist())

    def collapse_latent(self) -> None:
        """Collapse the latent buffer onto the dequantized weights (one copy)."""
        self.latent[...] = self.weights
