"""store-discipline: SQLite connections are opened by one audited module.

The durability story of the fleet service (PR 6) and the experiment store
(PR 8) rests on every connection sharing one configuration: WAL journaling,
``synchronous=NORMAL``, ``busy_timeout``, foreign keys, and the bounded
write retry that turns injected/transient ``OperationalError`` into recovery
instead of data loss.  :mod:`repro.utils.sqlite` defines that configuration
once, and a further ``sqlite3.connect`` call site is another place it can
silently be wrong.  Everything else goes through
:class:`repro.fleet.store.DeviceStateStore` (device state) or
:class:`repro.results.store.ResultsStore` (experiment results), which both
open their files through that module.

Importing :mod:`sqlite3` elsewhere stays legal — the fault harness raises
``sqlite3.OperationalError`` to exercise the retry path — only *opening
connections* is confined.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.lint import config
from tools.lint.engine import FileContext, Finding, Rule, register
from tools.lint.rules._util import dotted_name


@register
class StoreDiscipline(Rule):
    """``sqlite3.connect`` outside ``repro.utils.sqlite``."""

    name = "store-discipline"
    description = (
        "sqlite3.connect is confined to repro.utils.sqlite; go through "
        "DeviceStateStore or ResultsStore so WAL/pragma/retry policy stays "
        "in one place"
    )

    def applies(self, ctx: FileContext) -> bool:
        """Every file except the SQLite substrate module itself."""
        return ctx.rel_path not in config.STORE_ALLOWED_FILES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag direct connection-opening calls."""
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) == "sqlite3.connect"
            ):
                findings.append(ctx.finding(
                    node, self.name,
                    "sqlite3.connect outside repro.utils.sqlite; use "
                    "DeviceStateStore or ResultsStore (WAL, pragmas and "
                    "bounded write retry live in repro.utils.sqlite)",
                ))
        return findings
