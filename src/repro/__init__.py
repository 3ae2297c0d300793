"""Reproduction of "QCore: Data-Efficient, On-Device Continual Calibration for
Quantized Models" (VLDB 2024).

The package is organised as follows:

``repro.runtime``
    Process-global compute-dtype configuration (float32 by default, float64
    opt-in) threaded through every dense computation.
``repro.nn``
    Numpy neural-network substrate (layers, losses, optimisers).
``repro.quantization``
    Uniform quantization, quantized model wrappers, QAT calibration.
``repro.data``
    Synthetic surrogates of the DSA / USC / Caltech10 datasets and the
    continual-learning stream scenario builder.
``repro.models``
    Scaled-down InceptionTime / OmniScaleCNN / ResNet / VGG classifier
    surrogates.
``repro.core``
    The paper's contribution: quantization-miss tracking, QCore construction,
    the bit-flipping network, QCore updates and the end-to-end framework.
``repro.baselines``
    Continual-learning baselines (A-GEM, DER, DER++, ER, ER-ACE, Camel, DeepC).
``repro.coresets``
    Alternative coreset-construction strategies (Table 8 of the paper).
``repro.eval``
    Continual-learning evaluation protocol, metrics and result tables.
``repro.fleet``
    Fleet calibration: batched bit-flip inference across many deployed
    models, with worker-pool sharding for multi-core hosts.
``repro.reference``
    The seed implementations the fast paths are checked against; tests and
    benchmarks import them, production modules never do.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
