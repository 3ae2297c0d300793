"""Continual-learning baselines compared against QCore (Section 4.1.3).

Every baseline follows the same protocol as QCore: a pre-trained full-precision
classifier is quantized at a target bit-width, deployed, and adapted to a
sequence of labelled stream batches.  The baselines rely on back-propagation
and a replay buffer of the same size as the QCore (30 examples by default),
mirroring the paper's "fair comparison" setup.

Implemented methods:

* ``AGEM`` — Average Gradient Episodic Memory (gradient projection).
* ``DER`` / ``DERpp`` — Dark Experience Replay (logit distillation), and its
  ``++`` variant with an additional replay cross-entropy term.
* ``ER`` — plain Experience Replay.
* ``ERACE`` — Experience Replay with Asymmetric Cross-Entropy.
* ``Camel`` — stream-data compression into a training subset plus a buffer.
* ``DeepCompression`` — pruning + quantization baseline fine-tuned with BP.
* ``NaiveFineTune`` — no replay at all (forgetting lower bound).
"""

from repro.baselines.base import BackpropContinualMethod, ContinualMethod, ReplayBuffer
from repro.baselines.er import ER, NaiveFineTune
from repro.baselines.agem import AGEM
from repro.baselines.der import DER, DERpp
from repro.baselines.er_ace import ERACE
from repro.baselines.camel import Camel
from repro.baselines.deepc import DeepCompression

__all__ = [
    "ContinualMethod",
    "BackpropContinualMethod",
    "ReplayBuffer",
    "ER",
    "NaiveFineTune",
    "AGEM",
    "DER",
    "DERpp",
    "ERACE",
    "Camel",
    "DeepCompression",
]

