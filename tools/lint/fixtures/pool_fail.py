# lint-fixture: path=src/repro/eval/_fixture.py
# lint-fixture-expect: pool-picklability
"""Seeded violation: unpicklable callables passed to map_in_workers."""

from repro.eval.parallel import map_in_workers


def run(payload, items):
    """Two findings: a nested function and an inline lambda."""

    def local_fn(payload, item):
        return item

    first = map_in_workers(local_fn, payload, items)
    second = map_in_workers(lambda payload, item: item, payload, items)
    return first, second
