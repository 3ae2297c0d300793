"""The shipped layer DAG is the single source of truth.

``docs/architecture.md`` embeds the DAG in a fenced ``layers`` block;
this test asserts it matches :data:`tools.lint.config.LAYERS` exactly, so
the prose architecture page can never drift from what CI enforces.
"""

from __future__ import annotations

import re

import pytest

from tools.lint import config
from tools.lint.engine import lint_file

ARCH_MD = config.REPO_ROOT / "docs" / "architecture.md"

_BLOCK_RE = re.compile(r"```layers\n(?P<body>.*?)```", re.DOTALL)


def _documented_layers():
    match = _BLOCK_RE.search(ARCH_MD.read_text())
    assert match, "docs/architecture.md is missing its fenced ```layers block"
    layers = []
    for line in match.group("body").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        layers.append(tuple(part.strip() for part in line.split("|")))
    return tuple(layers)


def test_architecture_md_layer_block_matches_config() -> None:
    """The docs' layer DAG equals the linter's, layer by layer."""
    assert _documented_layers() == config.LAYERS


def test_every_layer_package_resolves() -> None:
    """Each DAG entry maps onto itself through package_of (sanity)."""
    for group in config.LAYERS:
        for package in group:
            assert config.package_of(package + ".x") == package


def test_allowed_imports_are_strictly_downward() -> None:
    """allowed_imports() grants exactly the strictly-lower layers."""
    allowed = config.allowed_imports()
    for rank, group in enumerate(config.LAYERS):
        lower = {p for g in config.LAYERS[:rank] for p in g}
        for package in group:
            assert allowed[package] == lower


def test_production_module_may_not_import_reference() -> None:
    """repro.reference is the top layer: a production module importing it is a finding."""
    assert config.layer_rank("repro.reference") == len(config.LAYERS) - 1
    rel_path = "src/repro/core/_probe.py"
    findings = lint_file(
        config.REPO_ROOT / rel_path,
        rel_path=rel_path,
        source='"""Probe."""\n\nfrom repro import reference\n',
    )
    assert [finding.rule for finding in findings] == ["import-layering"]
    assert "repro.reference" in findings[0].message


@pytest.mark.parametrize(
    "rel_path, statement, imported",
    [
        ("src/repro/fleet/_probe.py", "from repro.eval import parallel", "repro.eval"),
        ("src/repro/eval/_probe.py", "from repro import fleet", "repro.fleet"),
    ],
    ids=["fleet-imports-eval", "eval-imports-fleet"],
)
def test_fleet_and_eval_may_not_import_each_other(rel_path, statement, imported) -> None:
    """repro.fleet shares repro.eval's layer, so an import either way is a finding."""
    assert config.layer_rank("repro.fleet") == config.layer_rank("repro.eval")
    findings = lint_file(
        config.REPO_ROOT / rel_path,
        rel_path=rel_path,
        source=f'"""Probe."""\n\n{statement}\n',
    )
    assert [finding.rule for finding in findings] == ["import-layering"]
    assert imported in findings[0].message
