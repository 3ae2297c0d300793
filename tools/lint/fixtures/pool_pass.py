# lint-fixture: path=src/repro/eval/_fixture.py
"""Clean sibling: a module-level worker function pickles by reference."""

from repro.eval.parallel import map_in_workers


def work(payload, item):
    """Module-level, so workers can unpickle it by qualified name."""
    return item


def run(payload, items):
    """The call passes the module-level callable; ``describe`` stays in the parent."""
    return map_in_workers(work, payload, items, describe=lambda item: f"item {item}")
