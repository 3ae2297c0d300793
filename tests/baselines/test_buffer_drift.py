"""ReplayBuffer behaviour under drifting streams (abrupt + recurring).

The replay-based baselines survive drift only if the buffer (a) keeps the
pre-switch domain represented after a switch (reservoir sampling's whole
job) and (b) never re-attaches stale logits to post-switch examples — each
stored example must carry exactly the logits recorded when *it* was
inserted.  These tests drive the buffer with real streams and marker
logits that encode the inserting batch, so both properties are checked
structurally rather than statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import ReplayBuffer
from repro.data import SyntheticTimeSeriesConfig, build_stream_scenario, make_dsa_surrogate
from repro.data.streams import StreamBatch, build_recurring_scenario

SMALL_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=3, channels=3, length=12,
    train_per_class=10, val_per_class=2, test_per_class=4,
)
NUM_BATCHES = 6


@pytest.fixture(scope="module")
def data():
    return make_dsa_surrogate(seed=0, config=SMALL_TS)


@pytest.fixture(scope="module")
def abrupt(data):
    """Two paper-protocol streams back to back: Subj. 2 for the first half
    of the batches, then Subj. 3 (the switch)."""
    halves = [
        build_stream_scenario(
            data, "Subj. 1", target, num_batches=NUM_BATCHES // 2,
            rng=np.random.default_rng(0),
        ).batches
        for target in ("Subj. 2", "Subj. 3")
    ]
    return [
        StreamBatch(index=i, data=batch.data, test=batch.test)
        for i, batch in enumerate(halves[0] + halves[1])
    ]


@pytest.fixture(scope="module")
def recurring(data):
    return build_recurring_scenario(
        data, "Subj. 1", ("Subj. 2", "Subj. 3"), num_batches=NUM_BATCHES, seed=0
    ).batches


def _batch_membership(batches):
    """Map every stream example's feature bytes to its batch index."""
    membership = {}
    for batch in batches:
        for row in np.ascontiguousarray(batch.data.features):
            membership[row.tobytes()] = batch.index
    return membership


def _fill_buffer(batches, capacity=24, seed=3):
    """Feed the whole stream, tagging logits with the inserting batch index."""
    buffer = ReplayBuffer(capacity, rng=np.random.default_rng(seed))
    for batch in batches:
        markers = np.full((len(batch.data), 1), float(batch.index))
        buffer.add_batch(batch.data.features, batch.data.labels, logits=markers)
    return buffer


class TestAbruptDrift:
    def test_reservoir_keeps_both_regimes_represented(self, abrupt):
        buffer = _fill_buffer(abrupt)
        membership = _batch_membership(abrupt)
        switch = NUM_BATCHES // 2
        total = sum(len(b.data) for b in abrupt)
        assert buffer.seen == total
        assert len(buffer) == buffer.capacity
        batch_of = [
            membership[row.tobytes()]
            for row in np.ascontiguousarray(buffer.stored_features())
        ]
        pre = sum(1 for b in batch_of if b < switch)
        post = sum(1 for b in batch_of if b >= switch)
        # The switch must not evict the old domain, and reservoir sampling
        # must have admitted the new one.
        assert pre > 0
        assert post > 0
        assert pre + post == buffer.capacity

    def test_logits_travel_with_their_example_across_the_switch(self, abrupt):
        """Every stored example carries the logits of the batch that
        inserted it — a post-switch example can never surface with
        pre-switch logits (and vice versa)."""
        buffer = _fill_buffer(abrupt)
        membership = _batch_membership(abrupt)
        features = np.ascontiguousarray(buffer.stored_features())
        for row, logits in zip(features, buffer.stored_logits()):
            assert logits is not None
            assert int(logits[0]) == membership[row.tobytes()]

    def test_refreshed_logits_are_not_reused_for_new_insertions(self, abrupt):
        """set_all_logits (the initial-calibration refresh) marks what is in
        the buffer *now*; examples inserted after the switch must carry
        their own insertion logits, not the refreshed marker."""
        switch = NUM_BATCHES // 2
        buffer = ReplayBuffer(24, rng=np.random.default_rng(3))
        for batch in abrupt[:switch]:
            markers = np.full((len(batch.data), 1), 0.0)
            buffer.add_batch(batch.data.features, batch.data.labels, logits=markers)
        buffer.set_all_logits(np.full((len(buffer), 1), -1.0))
        for batch in abrupt[switch:]:
            markers = np.full((len(batch.data), 1), 1.0)
            buffer.add_batch(batch.data.features, batch.data.labels, logits=markers)
        membership = _batch_membership(abrupt)
        features = np.ascontiguousarray(buffer.stored_features())
        refreshed = inserted_post = 0
        for row, logits in zip(features, buffer.stored_logits()):
            if membership[row.tobytes()] < switch:
                assert logits[0] == -1.0  # pre-switch survivor, refreshed
                refreshed += 1
            else:
                assert logits[0] == 1.0  # post-switch insertion, own logits
                inserted_post += 1
        assert refreshed > 0
        assert inserted_post > 0

    def test_sampling_pairs_stay_consistent(self, abrupt):
        """Sampled (features, logits) pairs preserve the insertion pairing."""
        buffer = _fill_buffer(abrupt)
        membership = _batch_membership(abrupt)
        features, _, logits = buffer.sample(64)
        assert logits is not None
        for row, row_logits in zip(np.ascontiguousarray(features), logits):
            assert int(row_logits[0]) == membership[row.tobytes()]


class TestRecurringDrift:
    def test_revisits_accumulate_without_confusing_domains(self, data, recurring):
        buffer = _fill_buffer(recurring)
        membership = _batch_membership(recurring)
        domain_rows = {
            name: {
                row.tobytes()
                for row in np.ascontiguousarray(data[name].train.features)
            }
            for name in ("Subj. 2", "Subj. 3")
        }
        stored = np.ascontiguousarray(buffer.stored_features())
        per_domain = {name: 0 for name in domain_rows}
        for row in stored:
            owners = [n for n, rows in domain_rows.items() if row.tobytes() in rows]
            assert len(owners) == 1  # every stored example has one home domain
            per_domain[owners[0]] += 1
        # Both recurring domains stay represented after the full cycle.
        assert all(count > 0 for count in per_domain.values())
        # And the marker logits still name the exact inserting batch.
        for row, logits in zip(stored, buffer.stored_logits()):
            assert int(logits[0]) == membership[row.tobytes()]

    def test_revisit_brings_new_examples(self, recurring):
        """Batch i and its revisit batch i+cycle never share an example —
        the stream splits each domain across its visits."""
        first_visit = {
            row.tobytes()
            for row in np.ascontiguousarray(recurring[0].data.features)
        }
        revisit = {
            row.tobytes()
            for row in np.ascontiguousarray(recurring[2].data.features)
        }
        assert not first_visit & revisit
