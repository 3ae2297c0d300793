"""pool-picklability: only module-level callables reach the worker pool.

``WorkerPool`` ships work to spawn-started processes, so everything it
receives — the payload at construction, the ``fn`` of every ``map`` call —
travels by pickle.  Pickle serialises functions *by reference* (module +
qualname): lambdas and functions defined inside other functions unpickle as
``AttributeError`` at the worker, which surfaces as an opaque pool failure
long after the submission site.

This rule flags, at the submission site itself:

* ``lambda`` expressions passed to a pool constructor or submission method;
* names bound to a ``lambda`` anywhere in the module (a module-level
  ``f = lambda: …`` still has qualname ``<lambda>`` and does not pickle);
* names of functions *defined inside another function* passed to a
  submission site (their qualname contains ``<locals>``).

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
    """Lambdas/nested functions at WorkerPool submission sites."""

    name = "pool-picklability"
    description = (
        "WorkerPool/ParallelEvaluator submissions must be module-level "
        "callables; lambdas and nested functions do not pickle by reference"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag unpicklable callables in pool constructor/submission args."""
        findings: List[Finding] = []
        bad_names = _collect_unpicklable_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = last_component(node.func)
            is_ctor = isinstance(node.func, ast.Name) and callee in config.POOL_CONSTRUCTORS
            is_submit = (
                isinstance(node.func, ast.Attribute)
                and callee in config.POOL_SUBMIT_METHODS
            )
            if not (is_ctor or is_submit):
                continue
            site = "constructor" if is_ctor else f".{callee}()"
            checked = list(node.args) + [
                kw.value
                for kw in node.keywords
                if kw.arg not in config.POOL_PARENT_SIDE_KEYWORDS
            ]
            for value in checked:
                if isinstance(value, ast.Lambda):
                    findings.append(ctx.finding(
                        value, self.name,
                        f"lambda passed to pool {site}; lambdas do not pickle "
                        "— use a module-level function",
                    ))
                elif isinstance(value, ast.Name) and value.id in bad_names:
                    findings.append(ctx.finding(
                        value, self.name,
                        f"{value.id!r} passed to pool {site} is a nested "
                        "function or lambda binding; workers unpickle "
                        "callables by reference, so it must be module-level",
                    ))
        return findings
