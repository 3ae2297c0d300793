"""Alternative coreset-construction strategies (Section 4.2.4, Table 8).

These strategies build a calibration subset of a fixed size from the full
training set, given an already-trained full-precision model.  They are the
comparison points for QCore's quantization-miss-driven sampling:

* sampling strategies — maximum entropy, least confidence, and a parametric
  (normal-distribution) variant of the miss-based sampler;
* geometric / gradient-based coresets — k-means, GradMatch and CRAIG.
"""

from repro.coresets.base import CoresetStrategy
from repro.coresets.sampling import (
    LeastConfidenceSampler,
    MaxEntropySampler,
    NormalDistributionSampler,
    RandomSubset,
)
from repro.coresets.kmeans import KMeansCoreset
from repro.coresets.gradient_based import CRAIGCoreset, GradMatchCoreset, gradient_embeddings

__all__ = [
    "CoresetStrategy",
    "RandomSubset",
    "MaxEntropySampler",
    "LeastConfidenceSampler",
    "NormalDistributionSampler",
    "KMeansCoreset",
    "GradMatchCoreset",
    "CRAIGCoreset",
    "gradient_embeddings",
]

