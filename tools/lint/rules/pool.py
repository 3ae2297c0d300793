"""pool-picklability: only module-level callables reach worker processes.

``map_in_workers`` ships work to spawn-started processes, so everything it
receives — ``fn`` and the payload once per worker, each item at hand-out —
travels by pickle.  Pickle serialises functions *by reference* (module +
qualname): lambdas and functions defined inside other functions do not
pickle, which surfaces as a failed sweep far from the call that caused it.

This rule flags, at the call itself (any function named in
:data:`tools.lint.config.POOL_FUNCTIONS`):

* ``lambda`` expressions passed as an argument;
* names bound to a ``lambda`` anywhere in the module (a module-level
  ``f = lambda: …`` still has qualname ``<lambda>`` and does not pickle);
* names of functions *defined inside another function* (their qualname
  contains ``<locals>``).

Keywords named in :data:`tools.lint.config.POOL_PARENT_SIDE_KEYWORDS`
(currently ``describe``) are exempt: they are labelling hooks consumed in
the parent process for error messages and never cross the pickle boundary.

The analysis is intra-module and name-based — a deliberately simple
approximation that catches the mistake where it is made.  Factories that
need configuration should be module-level callables taking arguments (see
``benchmarks/bench_config.py``'s spawn-safe ``method_factories``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from tools.lint import config
from tools.lint.engine import FileContext, Finding, Rule, register
from tools.lint.rules._util import last_component


def _collect_unpicklable_names(tree: ast.AST) -> Set[str]:
    """Names bound to lambdas anywhere, plus function names nested in defs."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(sub.name)
    return names


@register
class PoolPicklability(Rule):
    """Lambdas/nested functions passed to worker-process functions."""

    name = "pool-picklability"
    description = (
        "arguments of map_in_workers must be module-level callables; "
        "lambdas and nested functions do not pickle by reference"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag unpicklable callables among the arguments of pool calls."""
        findings: List[Finding] = []
        bad_names = _collect_unpicklable_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = last_component(node.func)
            if callee not in config.POOL_FUNCTIONS:
                continue
            checked = list(node.args) + [
                kw.value
                for kw in node.keywords
                if kw.arg not in config.POOL_PARENT_SIDE_KEYWORDS
            ]
            for value in checked:
                if isinstance(value, ast.Lambda):
                    findings.append(ctx.finding(
                        value, self.name,
                        f"lambda passed to {callee}(); lambdas do not pickle "
                        "— use a module-level function",
                    ))
                elif isinstance(value, ast.Name) and value.id in bad_names:
                    findings.append(ctx.finding(
                        value, self.name,
                        f"{value.id!r} passed to {callee}() is a nested "
                        "function or lambda binding; workers unpickle "
                        "callables by reference, so it must be module-level",
                    ))
        return findings
