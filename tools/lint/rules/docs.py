"""docstring-coverage + doc-links: the documentation gates, as lint rules.

Both run in the one analysis entry point (``python -m tools.lint src
benchmarks tools``):

* **docstring-coverage** — every *public* function, class and method in the
  configured paths (the conv kernels and ``repro.reference``, the
  operational fleet surface, the experiment store, and the linter itself)
  must carry a docstring.  The check
  is purely AST-based, so it runs without importing the code — which also
  means inherited docstrings do **not** count: each defined method
  documents itself, matching the old import-based gate's behaviour on
  ``vars(cls)``.
* **doc-links** — every relative markdown link in ``README.md`` and
  ``docs/*.md`` must resolve to an existing file or directory.  External
  links (``http(s)://``, ``mailto:``) and pure in-page anchors are skipped;
  ``path#anchor`` is checked for the path part.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List

from tools.lint import config
from tools.lint.engine import FileContext, Finding, ProjectRule, Rule, register

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _skipped_decorator(node: ast.AST) -> bool:
    """Property setters/deleters and typing overloads need no own docstring."""
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
            return True
        if isinstance(decorator, ast.Name) and decorator.id == "overload":
            return True
    return False


@register
class DocstringCoverage(Rule):
    """Undocumented public API in the configured packages."""

    name = "docstring-coverage"
    description = (
        "public functions/classes/methods in repro.nn.kernels, "
        "repro.reference, repro.fleet, repro.results and tools.lint must "
        "carry docstrings"
    )

    def applies(self, ctx: FileContext) -> bool:
        """Only the configured package path prefixes are in scope."""
        return ctx.rel_path.startswith(config.DOCSTRING_PATH_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Walk module-level defs and public-class methods."""
        findings: List[Finding] = []
        body = getattr(ctx.tree, "body", [])
        for node in body:
            if isinstance(node, _DEFS) and _is_public(node.name):
                self._require(ctx, node, node.name, findings)
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                self._require(ctx, node, node.name, findings)
                for method in node.body:
                    if (
                        isinstance(method, _DEFS)
                        and _is_public(method.name)
                        and not _skipped_decorator(method)
                    ):
                        self._require(
                            ctx, method, f"{node.name}.{method.name}", findings
                        )
        return findings

    def _require(self, ctx, node, qualname, findings) -> None:
        """Append a finding if ``node`` lacks a docstring."""
        if not ast.get_docstring(node):
            findings.append(ctx.finding(
                node, self.name, f"missing docstring: {qualname}"
            ))


@register
class DocLinks(ProjectRule):
    """Broken relative links in the markdown doc set."""

    name = "doc-links"
    description = "relative links in README.md and docs/*.md must resolve"

    def check_project(self, root: Path) -> Iterable[Finding]:
        """Scan the repo doc set once per lint invocation."""
        return self.check_files(config.markdown_files(), root)

    def check_files(self, files: Iterable[Path], root: Path) -> List[Finding]:
        """Check an explicit list of markdown files (selfcheck/tests hook)."""
        findings: List[Finding] = []
        for md_file in files:
            rel = md_file.relative_to(root).as_posix()
            if not md_file.exists():
                findings.append(Finding(rel, 1, 0, self.name, "file missing"))
                continue
            for lineno, line in enumerate(md_file.read_text().splitlines(), 1):
                for match in _LINK_RE.finditer(line):
                    target = match.group(1)
                    if _SCHEME_RE.match(target) or target.startswith("#"):
                        continue
                    path_part = target.split("#", 1)[0]
                    if not path_part:
                        continue
                    if not (md_file.parent / path_part).resolve().exists():
                        findings.append(Finding(
                            rel, lineno, match.start(), self.name,
                            f"broken link -> {target}",
                        ))
        return findings
