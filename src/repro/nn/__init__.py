"""Minimal neural-network substrate built on numpy.

The QCore paper runs on PyTorch; this offline reproduction supplies an
equivalent substrate: parameterised layers with explicit forward/backward
passes, losses, and optimisers.  Every component that the QCore algorithms
touch (parameters, gradients, per-layer activations) is exposed through a
small, explicit API.

Public entry points
-------------------
``Parameter``
    A trainable tensor with an accumulated gradient.
``Module`` / ``Sequential``
    Composable layers with ``forward`` / ``backward``.
``Dense``, ``Conv1d``, ``Conv2d``, ``BatchNorm``, ``ReLU``, pooling layers
    The building blocks used by the model zoo in :mod:`repro.models`.
``CrossEntropyLoss``, ``MSELoss``
    Losses used for classifier training and bit-flip network regression.
``SGD``, ``Adam``
    Optimisers used for full-precision training and QAT calibration.
``kernels``
    The conv kernel (im2col/col2im) behind every ``Conv1d`` / ``Conv2d``
    forward and backward pass.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential, ParallelConcat, Residual
from repro.nn.layers import (
    Dense,
    Conv1d,
    Conv2d,
    BatchNorm,
    ReLU,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool2d,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss, Loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import functional
from repro.nn import initializers
from repro.nn import kernels

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ParallelConcat",
    "Residual",
    "Dense",
    "Conv1d",
    "Conv2d",
    "BatchNorm",
    "ReLU",
    "Dropout",
    "Flatten",
    "GlobalAvgPool1d",
    "GlobalAvgPool2d",
    "MaxPool2d",
    "CrossEntropyLoss",
    "MSELoss",
    "Loss",
    "SGD",
    "Adam",
    "Optimizer",
    "functional",
    "initializers",
    "kernels",
]
