"""Conformance of the stream builders: the paper protocol and the recurring stream.

``build_stream_scenario`` streams one target (Section 4.1.1);
``build_recurring_scenario`` cycles through several, batch ``i`` coming from
``targets[i % len(targets)]``.  The paper protocol is the cycle of length one,
so one suite covers both, over even and uneven splits:

* a same-seed rebuild is bit-identical (in-process and in a fresh
  interpreter), and the digest moves with the seed;
* no batch is empty, no example is both adapted on and scored on, no source
  example is streamed, and labels stay in the label space;
* each target's train and test splits are streamed whole and once, in visits
  whose sizes follow ``np.array_split``;
* a batch's test slice does not depend on any train split, its adaptation data
  does not depend on any test split, and (with several targets) a batch does
  not depend on the other targets' splits.

Bad arguments to the recurring builder raise before anything is built.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

import golden_scenario as gs
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import DomainDataset, MultiDomainDataset
from repro.data.streams import build_recurring_scenario, build_stream_scenario

SEED = 7
#: 120 train and 40 test examples per domain, so 7- and 3-way splits are uneven.
PROP_TS = SyntheticTimeSeriesConfig(
    num_classes=10, num_domains=4, channels=3, length=16,
    train_per_class=12, val_per_class=2, test_per_class=4,
)


@dataclass(frozen=True)
class StreamCase:
    """A stream configuration; one target means the paper protocol."""

    source: str
    targets: Tuple[str, ...]
    num_batches: int

    @property
    def cycle(self) -> int:
        return len(self.targets)

    def build(self, data, seed=SEED):
        if self.cycle == 1:
            return build_stream_scenario(
                data, self.source, self.targets[0], num_batches=self.num_batches,
                rng=np.random.default_rng(seed),
            )
        return build_recurring_scenario(
            data, self.source, self.targets, num_batches=self.num_batches, seed=seed
        )

    def visits(self, scenario, j):
        """The batches that stream target ``j``, in stream order."""
        return scenario.batches[j::self.cycle]


CASES = {
    "paper": StreamCase("Subj. 1", ("Subj. 2",), 10),
    "paper-uneven": StreamCase("Subj. 3", ("Subj. 4",), 7),
    "recurring": StreamCase("Subj. 1", ("Subj. 2", "Subj. 3"), 10),
    "recurring-uneven": StreamCase("Subj. 1", ("Subj. 2", "Subj. 3"), 3),
    "recurring-three": StreamCase("Subj. 4", ("Subj. 3", "Subj. 1", "Subj. 2"), 8),
    "recurring-one-visit": StreamCase("Subj. 2", ("Subj. 4", "Subj. 1"), 2),
}
RECURRING = [name for name, case in CASES.items() if case.cycle > 1]


@pytest.fixture(scope="module")
def data():
    return make_dsa_surrogate(seed=SEED, config=PROP_TS)


@pytest.fixture(scope="module")
def scenarios(data):
    return {name: case.build(data) for name, case in CASES.items()}


def _feature_rows(dataset) -> set:
    return {row.tobytes() for row in np.ascontiguousarray(dataset.features)}


def _examples(parts) -> list:
    """The (features, label) pairs of ``parts``, as a sorted multiset."""
    return sorted(
        (row.tobytes(), int(label))
        for part in parts
        for row, label in zip(np.ascontiguousarray(part.features), part.labels)
    )


def _with_domain(data, name, train_fraction=1.0, test_fraction=1.0):
    """``data`` with a leading fraction of domain ``name``'s train and test splits."""
    domain = data[name]
    shrunk = DomainDataset(
        domain=domain.domain,
        train=domain.train.subset(np.arange(int(len(domain.train) * train_fraction))),
        val=domain.val,
        test=domain.test.subset(np.arange(int(len(domain.test) * test_fraction))),
    )
    return MultiDomainDataset(name=data.name, domains={**data.domains, name: shrunk})


def _assert_same_parts(a, b, split):
    np.testing.assert_array_equal(getattr(a, split).features, getattr(b, split).features)
    np.testing.assert_array_equal(getattr(a, split).labels, getattr(b, split).labels)


@pytest.mark.parametrize("name", list(CASES))
class TestStreamConformance:
    def test_same_seed_rebuild_is_bit_identical(self, data, scenarios, name):
        original = scenarios[name]
        rebuilt = CASES[name].build(data)
        assert gs.scenario_digest(rebuilt) == gs.scenario_digest(original)
        for a, b in zip(original.batches, rebuilt.batches):
            _assert_same_parts(a, b, "data")
            _assert_same_parts(a, b, "test")

    def test_new_seed_changes_digest(self, data, scenarios, name):
        respun = CASES[name].build(data, seed=SEED + 1)
        assert gs.scenario_digest(respun) != gs.scenario_digest(scenarios[name])

    def test_identity_strings(self, data, scenarios, name):
        case, scenario = CASES[name], scenarios[name]
        assert scenario.dataset_name == data.name
        assert scenario.source.domain == case.source
        expected = case.targets[0] if case.cycle == 1 else "recurring:" + "⇄".join(case.targets)
        assert scenario.target_name == expected
        assert scenario.description == f"{data.name}: {case.source} → {expected}"

    def test_every_batch_is_nonempty(self, scenarios, name):
        scenario = scenarios[name]
        assert scenario.num_batches == CASES[name].num_batches
        assert [batch.index for batch in scenario.batches] == list(range(scenario.num_batches))
        for batch in scenario.batches:
            assert len(batch.data) > 0
            assert len(batch.test) > 0

    def test_no_example_in_both_a_train_and_a_test_part(self, scenarios, name):
        train_rows = set()
        test_rows = set()
        for batch in scenarios[name].batches:
            train_rows |= _feature_rows(batch.data)
            test_rows |= _feature_rows(batch.test)
        assert not train_rows & test_rows

    def test_no_source_example_is_streamed(self, data, scenarios, name):
        source = data[CASES[name].source]
        source_rows = _feature_rows(source.train) | _feature_rows(source.test)
        for batch in scenarios[name].batches:
            assert not _feature_rows(batch.data) & source_rows
            assert not _feature_rows(batch.test) & source_rows

    def test_labels_stay_in_range(self, data, scenarios, name):
        for batch in scenarios[name].batches:
            for split in (batch.data, batch.test):
                assert split.num_classes == data.num_classes
                assert split.labels.min() >= 0
                assert split.labels.max() < data.num_classes

    def test_each_target_streams_its_train_split_once(self, data, scenarios, name):
        """Batches ``j, j + cycle, ...`` together hold ``targets[j]``'s train
        split, each example once: the schedule, with nothing lost or repeated."""
        case, scenario = CASES[name], scenarios[name]
        for j, target in enumerate(case.targets):
            visits = [batch.data for batch in case.visits(scenario, j)]
            assert _examples(visits) == _examples([data[target].train])

    def test_test_slices_partition_each_target_test_split(self, data, scenarios, name):
        case, scenario = CASES[name], scenarios[name]
        tests = [data[target].test for target in case.targets]
        for j, split in enumerate(tests):
            assert _examples([b.test for b in case.visits(scenario, j)]) == _examples([split])
        np.testing.assert_array_equal(
            scenario.target_test.features, np.concatenate([t.features for t in tests])
        )
        np.testing.assert_array_equal(
            scenario.target_test.labels, np.concatenate([t.labels for t in tests])
        )

    def test_visit_sizes_follow_array_split(self, data, scenarios, name):
        """A target's remainder goes to its leading visits, as ``split_into_batches`` pins."""
        case, scenario = CASES[name], scenarios[name]
        for j, target in enumerate(case.targets):
            visits = case.visits(scenario, j)
            for split in ("train", "test"):
                size = len(getattr(data[target], split))
                expected = [len(c) for c in np.array_split(np.arange(size), len(visits))]
                part = "data" if split == "train" else "test"
                assert [len(getattr(b, part)) for b in visits] == expected

    def test_shrinking_a_train_split_leaves_test_slices_unchanged(self, data, scenarios, name):
        """Halving a target's *train* split must not move any test slice.
        (Dropping a single example can leave numpy's generator in the same
        state after the shuffle, so it would not show a shared generator.)"""
        case = CASES[name]
        for target in case.targets:
            rebuilt = case.build(_with_domain(data, target, train_fraction=0.5))
            for a, b in zip(scenarios[name].batches, rebuilt.batches):
                _assert_same_parts(a, b, "test")

    def test_shrinking_a_test_split_leaves_train_parts_unchanged(self, data, scenarios, name):
        case = CASES[name]
        for target in case.targets:
            rebuilt = case.build(_with_domain(data, target, test_fraction=0.5))
            for a, b in zip(scenarios[name].batches, rebuilt.batches):
                _assert_same_parts(a, b, "data")


@pytest.mark.parametrize("name", RECURRING)
def test_a_batch_depends_only_on_its_own_target(data, scenarios, name):
    """Shrinking one target moves no batch that streams another."""
    case = CASES[name]
    for j, target in enumerate(case.targets):
        rebuilt = case.build(_with_domain(data, target, train_fraction=0.5, test_fraction=0.5))
        for a, b in zip(scenarios[name].batches, rebuilt.batches):
            if a.index % case.cycle != j:
                _assert_same_parts(a, b, "data")
                _assert_same_parts(a, b, "test")


def test_digests_are_unique_across_cases(scenarios):
    digests = {name: gs.scenario_digest(s) for name, s in scenarios.items()}
    assert len(set(digests.values())) == len(digests)


def test_target_order_is_part_of_the_stream(data, scenarios):
    case = CASES["recurring"]
    swapped = StreamCase(case.source, case.targets[::-1], case.num_batches)
    assert gs.scenario_digest(swapped.build(data)) != gs.scenario_digest(scenarios["recurring"])


_CHILD_SCRIPT = """
import json
import numpy as np
from repro import runtime
runtime.set_dtype(np.float64)
import golden_scenario as gs
import test_stream_properties as suite
from repro.data import make_dsa_surrogate
data = make_dsa_surrogate(seed=suite.SEED, config=suite.PROP_TS)
print(json.dumps({
    name: gs.scenario_digest(case.build(data)) for name, case in suite.CASES.items()
}))
"""


def test_fresh_interpreter_reproduces_every_digest(scenarios):
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parents[1] / "src"), str(here), env.get("PYTHONPATH", "")]
    )
    output = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        capture_output=True, text=True, env=env, timeout=240, check=True,
    )
    expected = {name: gs.scenario_digest(s) for name, s in scenarios.items()}
    assert json.loads(output.stdout) == expected


@pytest.mark.parametrize(
    "targets, num_batches, match",
    [
        (("Subj. 2", "Mars"), 10, "Mars"),
        (("Subj. 2", "Subj. 2"), 10, "distinct"),
        (("Subj. 1", "Subj. 2"), 10, "source"),
        (("Subj. 2",), 10, "at least 2 targets"),
        (("Subj. 2", "Subj. 3"), 1, "one batch per target"),
        (("Subj. 2", "Subj. 3"), 0, "num_batches must be positive"),
    ],
    ids=["unknown-domain", "repeated-target", "source-among-targets",
         "one-target", "fewer-batches-than-targets", "no-batches"],
)
def test_bad_arguments_raise(data, targets, num_batches, match):
    with pytest.raises(ValueError, match=match):
        build_recurring_scenario(data, "Subj. 1", targets, num_batches=num_batches, seed=SEED)
