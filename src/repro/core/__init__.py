"""The paper's contribution: QCore construction, bit-flipping calibration, updates.

Sub-modules follow the structure of Section 3 of the paper:

``quant_misses``
    Quantization-miss tracking (Eq. 2, Figure 4).
``qcore_builder``
    Algorithm 1 — building the quantization-aware coreset during
    full-precision training.
``coreset``
    The QCore data structure stored on the edge device.
``info_loss``
    The ε-approximation information-loss analysis (Eqs. 3–9, Table 2).
``bitflip``
    Algorithms 2 and 3 — training the bit-flipping network during server-side
    calibration and using it for back-propagation-free calibration on the edge.
``update``
    Algorithm 4 — merging stream batches into the QCore.
``pipeline``
    The end-to-end framework of Figures 1(b), 3 and 7.
"""

from repro.core.quant_misses import QuantizationMissTracker, MissDistribution
from repro.core.coreset import QCoreSet
from repro.core.qcore_builder import QCoreBuilder, QCoreBuildResult
from repro.core.info_loss import information_loss, rounding_loss_bound, distribution_cost
from repro.core.bitflip import (
    BitFlipNetwork,
    BitFlipTrainer,
    BitFlipCalibrator,
    extract_parameter_features,
)
from repro.core.update import QCoreUpdater
from repro.core.pipeline import QCoreFramework, EdgeDeployment, StreamRunResult

__all__ = [
    "QuantizationMissTracker",
    "MissDistribution",
    "QCoreSet",
    "QCoreBuilder",
    "QCoreBuildResult",
    "information_loss",
    "rounding_loss_bound",
    "distribution_cost",
    "BitFlipNetwork",
    "BitFlipTrainer",
    "BitFlipCalibrator",
    "extract_parameter_features",
    "QCoreUpdater",
    "QCoreFramework",
    "EdgeDeployment",
    "StreamRunResult",
]
