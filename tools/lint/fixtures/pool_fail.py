# lint-fixture: path=src/repro/eval/_fixture.py
# lint-fixture-expect: pool-picklability
"""Seeded violation: unpicklable callables at pool submission sites."""


def run(pool, items):
    """Two findings: a nested function and an inline lambda."""

    def local_fn(payload, item):
        return item

    first = pool.map(local_fn, items)
    second = pool.map(lambda payload, item: item, items)
    return first, second
