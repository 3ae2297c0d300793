"""import-layering: the architecture's layer DAG, checked against real imports.

``docs/architecture.md`` promises that dependencies point downward —
``repro.nn`` can never grow a ``repro.fleet`` import, the conv kernel
can never reach back into the layer API.  This rule turns that
promise into a machine-checked invariant: every import statement in
``src/repro`` (module-level *and* deferred/function-level) is resolved to
its layer package and checked against :data:`tools.lint.config.LAYERS`.

Same-layer imports between *different* packages are also findings
(``repro.models`` and ``repro.quantization`` are peers, not dependencies).
No edge is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from tools.lint import config
from tools.lint.engine import FileContext, Finding, Rule, register


def _relative_target(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
    """Resolve a relative import to an absolute dotted module name."""
    if ctx.module is None:
        return None
    anchor = ctx.module.split(".")
    if not ctx.rel_path.endswith("__init__.py"):
        anchor = anchor[:-1]
    if node.level - 1 > 0:
        anchor = anchor[: len(anchor) - (node.level - 1)]
    if not anchor:
        return None
    return ".".join(anchor + (node.module.split(".") if node.module else []))


def _targets(ctx: FileContext, node: ast.AST) -> List[str]:
    """Every absolute module name an import statement touches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level:
            target = _relative_target(ctx, node)
            return [target] if target else []
        if node.module == "repro":
            # ``from repro import runtime`` imports submodules by name.
            return [f"repro.{alias.name}" for alias in node.names]
        return [node.module] if node.module else []
    return []


@register
class ImportLayering(Rule):
    """Imports must point strictly downward in the layer DAG."""

    name = "import-layering"
    description = (
        "repro packages may only import from strictly lower layers of the "
        "DAG in tools/lint/config.py (mirrored in docs/architecture.md)"
    )

    def applies(self, ctx: FileContext) -> bool:
        """Only modules inside a ranked ``repro`` layer package are checked."""
        return (
            ctx.package is not None
            and config.layer_rank(ctx.package) is not None
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Resolve every import and compare against the allowed-deps set."""
        findings: List[Finding] = []
        allowed = config.allowed_imports()[ctx.package]
        src_rank = config.layer_rank(ctx.package)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module in _targets(ctx, node):
                target_pkg = config.package_of(module)
                if target_pkg is None or target_pkg == ctx.package:
                    continue
                if target_pkg == "repro":
                    continue  # the umbrella package defines no layer
                if target_pkg in allowed:
                    continue
                target_rank = config.layer_rank(target_pkg)
                relation = (
                    "an unranked package"
                    if target_rank is None
                    else "a same-layer peer"
                    if target_rank == src_rank
                    else f"layer {target_rank} from layer {src_rank}"
                )
                findings.append(ctx.finding(
                    node, self.name,
                    f"{ctx.package} imports {module} — {relation}; the layer "
                    "DAG (docs/architecture.md) only allows strictly "
                    "downward imports",
                ))
        return findings
