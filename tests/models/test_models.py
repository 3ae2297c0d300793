"""Tests for the classifier surrogates (shapes, training, registry, quantization)."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import nn
from repro.core.bitflip import _layer_activation_summaries
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import (
    InceptionTimeSurrogate,
    MLPClassifier,
    OmniScaleCNNSurrogate,
    ResNetSurrogate,
    VGGSurrogate,
    build_model,
)
from repro.nn.training import evaluate, train_classifier
from repro.quantization import quantize_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=12, val_per_class=2, test_per_class=4,
)


class TestForwardShapes:
    def test_inception_time(self, rng):
        model = InceptionTimeSurrogate(in_channels=3, num_classes=5, rng=rng)
        out = model.forward(rng.normal(size=(4, 3, 24)))
        assert out.shape == (4, 5)

    def test_omniscale(self, rng):
        model = OmniScaleCNNSurrogate(in_channels=3, num_classes=5, rng=rng)
        out = model.forward(rng.normal(size=(4, 3, 24)))
        assert out.shape == (4, 5)

    def test_resnet(self, rng):
        model = ResNetSurrogate(in_channels=3, num_classes=7, rng=rng)
        out = model.forward(rng.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 7)

    def test_vgg(self, rng):
        model = VGGSurrogate(in_channels=3, num_classes=7, image_size=12, rng=rng)
        out = model.forward(rng.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 7)

    def test_mlp(self, rng):
        model = MLPClassifier(10, 3, rng=rng)
        assert model.forward(rng.normal(size=(5, 10))).shape == (5, 3)

    def test_backward_runs_end_to_end(self, rng):
        model = InceptionTimeSurrogate(in_channels=2, num_classes=3, rng=rng)
        x = rng.normal(size=(3, 2, 16))
        out = model.forward(x)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert all(np.any(p.grad != 0) for p in model.parameters() if p.size > 2)


class TestTrainability:
    def test_inception_time_learns_synthetic_dsa(self, rng):
        data = make_dsa_surrogate(seed=0, config=TINY_TS)
        train = data["Subj. 1"].train
        model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        train_classifier(model, optimizer, train.features, train.labels, epochs=15, batch_size=16, rng=rng)
        acc = evaluate(model, train.features, train.labels)
        assert acc > 0.6

    def test_quantized_surrogate_keeps_most_accuracy_at_8bit(self, rng):
        data = make_dsa_surrogate(seed=0, config=TINY_TS)
        train = data["Subj. 1"].train
        model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        train_classifier(model, optimizer, train.features, train.labels, epochs=15, batch_size=16, rng=rng)
        fp_acc = evaluate(model, train.features, train.labels)
        q8 = quantize_model(model, bits=8).evaluate(train.features, train.labels)
        q2 = quantize_model(model, bits=2).evaluate(train.features, train.labels)
        assert q8 >= fp_acc - 0.15
        assert q2 <= q8 + 1e-9


class TestRegistry:
    def test_build_all_registered_models(self, rng):
        ts_input = (3, 20)
        img_input = (3, 12, 12)
        assert build_model("InceptionTime", ts_input, 5, rng=rng).forward(
            rng.normal(size=(2, 3, 20))
        ).shape == (2, 5)
        assert build_model("OmniScaleCNN", ts_input, 5, rng=rng).forward(
            rng.normal(size=(2, 3, 20))
        ).shape == (2, 5)
        assert build_model("ResNet18", img_input, 4, rng=rng).forward(
            rng.normal(size=(2, 3, 12, 12))
        ).shape == (2, 4)
        assert build_model("VGG16", img_input, 4, rng=rng).forward(
            rng.normal(size=(2, 3, 12, 12))
        ).shape == (2, 4)
        assert build_model("MLP", (8,), 3, rng=rng).forward(
            rng.normal(size=(2, 8))
        ).shape == (2, 3)

    def test_unknown_model_raises(self, rng):
        with pytest.raises(KeyError):
            build_model("Transformer", (3, 20), 5, rng=rng)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            build_model("InceptionTime", (3, 20, 20), 5, rng=rng)
        with pytest.raises(ValueError):
            build_model("ResNet18", (3, 20), 5, rng=rng)

    def test_weighted_layers_exposed_for_bitflip(self, rng):
        model = build_model("InceptionTime", (3, 20), 5, rng=rng)
        layers = model.weighted_layers()
        assert len(layers) >= 4
        for layer in layers:
            assert layer.weight is not None


def _pickle_round_trip(model):
    return pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))


class TestCopies:
    @pytest.mark.parametrize("copier", [copy.deepcopy, _pickle_round_trip], ids=["deepcopy", "pickle"])
    def test_copies_drop_forward_caches(self, copier, rng):
        """A copy of a model that ran a training forward holds no per-forward
        cache; after a forward of its own it matches the original byte for
        byte, activation summaries included."""
        for name, shape in (("InceptionTime", (3, 20)), ("ResNet18", (3, 8, 8)), ("MLP", (8,))):
            model = build_model(name, shape, 4, rng=rng)
            model.train()
            model.forward(rng.normal(size=(5,) + shape))
            duplicate = copier(model)
            for module in duplicate.modules():
                for attr in nn.Module.FORWARD_CACHES:
                    assert getattr(module, attr, None) is None, (name, type(module).__name__, attr)
            layer = duplicate.weighted_layers()[0]
            with pytest.raises(RuntimeError, match="run a forward pass first"):
                _layer_activation_summaries(layer)
            x = rng.normal(size=(6,) + shape)
            outputs = [m.eval().forward(x) for m in (model, duplicate)]
            assert outputs[0].tobytes() == outputs[1].tobytes()
            for original, copied in zip(model.weighted_layers(), duplicate.weighted_layers()):
                for a, b in zip(_layer_activation_summaries(original), _layer_activation_summaries(copied)):
                    assert a.tobytes() == b.tobytes()
