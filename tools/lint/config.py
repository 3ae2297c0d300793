"""Configuration of the repo-native invariant linter.

Everything a rule needs to know about *this* repository lives here — the
layer DAG, the per-file allowlists, the names of the pool-submission entry
points — so the rule implementations in :mod:`tools.lint.rules` stay pure
AST mechanics and a policy change is a one-file diff.

The layer DAG below is the machine-readable source of truth for the
``import-layering`` rule.  ``docs/architecture.md`` embeds the same DAG in a
fenced ``layers`` block and ``tests/lint/test_layering.py`` asserts the two
stay identical, so the prose architecture page can never drift from what CI
enforces.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

#: Repository root (the directory holding ``src/``, ``tools/``, ``docs/``).
REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# --------------------------------------------------------------------------
# Layer DAG (import-layering rule)
# --------------------------------------------------------------------------

#: Packages grouped into layers, lowest first.  A package may import from
#: strictly lower layers only; same-layer and upward imports are findings.
#: Sub-packages not named here inherit their parent's layer, except
#: ``repro.nn.kernels`` which is deliberately *below* ``repro.nn`` (the
#: conv kernel must never reach back into the layer API), and
#: ``repro.fleet.gateway`` which is deliberately *above* ``repro.fleet``
#: (the ingestion front end orchestrates the service/store tier; nothing in
#: the tier may reach up into the gateway).
#: ``repro.fleet`` shares ``repro.eval``'s layer, so neither may import the
#: other: the fleet tier runs its rounds in-process and stays off the
#: evaluation stack (baselines, worker pool).
#: ``repro.reference`` is the top layer: the seed reference implementations
#: may import anything, and no production module may import them.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("repro.utils",),
    ("repro.runtime",),
    ("repro.data",),
    ("repro.nn.kernels",),
    ("repro.nn",),
    ("repro.models", "repro.quantization"),
    ("repro.baselines", "repro.core"),
    ("repro.coresets",),
    ("repro.eval", "repro.fleet"),
    ("repro.results",),
    ("repro.fleet.gateway",),
    ("repro.reference",),
)


def layer_rank(package: str) -> Optional[int]:
    """Rank of ``package`` in :data:`LAYERS` (0 = lowest); None if unknown."""
    for rank, group in enumerate(LAYERS):
        if package in group:
            return rank
    return None


def package_of(module: str) -> Optional[str]:
    """Map a dotted ``repro.*`` module name onto its layer package.

    ``repro.nn.kernels.strided`` → ``repro.nn.kernels``;
    ``repro.eval.parallel`` → ``repro.eval``; ``repro.runtime`` →
    ``repro.runtime``.  Returns ``None`` for non-``repro`` modules.
    """
    if module != "repro" and not module.startswith("repro."):
        return None
    parts = module.split(".")
    if len(parts) >= 3 and parts[1] == "nn" and parts[2] == "kernels":
        return "repro.nn.kernels"
    if len(parts) >= 3 and parts[1] == "fleet" and parts[2] == "gateway":
        return "repro.fleet.gateway"
    if len(parts) >= 2:
        return ".".join(parts[:2])
    return "repro"


def module_name_for(rel_path: str) -> Optional[str]:
    """Dotted module name of a repo-relative path under ``src/``; else None."""
    if not rel_path.startswith("src/") or not rel_path.endswith(".py"):
        return None
    dotted = rel_path[len("src/") : -len(".py")].replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


# --------------------------------------------------------------------------
# dtype-discipline rule
# --------------------------------------------------------------------------

#: Files where hard-coded float dtype literals are policy, with the reason.
#: ``repro.runtime`` is the one place allowed to *define* the compute dtypes;
#: the other entries are dtype-independence sites: arithmetic that must give
#: the same answer at any compute dtype because its outputs (split
#: boundaries, reported statistics) are pinned by the golden fixtures.
DTYPE_ALLOWLIST_FILES: Mapping[str, str] = {
    "src/repro/runtime.py": "defines the supported compute dtypes",
    "src/repro/utils/validation.py": (
        "probability/statistics validation runs in float64 regardless of the "
        "compute dtype so validation outcomes never depend on it"
    ),
    "src/repro/eval/metrics.py": (
        "paper-table accuracy statistics accumulate in float64 regardless of "
        "the compute dtype (golden-pinned values)"
    ),
}

#: Callees whose *arguments* may legitimately be ``np.float64``/``np.float32``:
#: these are the runtime's dtype-selection front doors (plus ``np.dtype``
#: normalisation), not hard-coded array dtypes.
DTYPE_SINK_CALLEES: FrozenSet[str] = frozenset(
    {"use_dtype", "set_dtype", "resolve_dtype", "dtype"}
)

#: The float dtype literals the rule polices.  Integer dtypes are exempt by
#: design: codes are always int64 and that is part of the storage contract.
DTYPE_LITERAL_NAMES: FrozenSet[str] = frozenset({"float64", "float32", "float16"})


# --------------------------------------------------------------------------
# rng-discipline rule
# --------------------------------------------------------------------------

#: ``np.random.<fn>`` functions that mutate or read numpy's *global* RNG
#: state.  Any call to one of these is a finding anywhere in the repo —
#: global-state randomness breaks run-to-run and worker-to-worker
#: determinism no matter where it happens.
NP_RANDOM_LEGACY: FrozenSet[str] = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "normal",
        "uniform", "standard_normal", "binomial", "poisson", "beta",
        "gamma", "exponential", "get_state", "set_state", "RandomState",
    }
)

#: Path prefixes considered *library* code, where the stricter rng sub-rules
#: apply (hidden literal seeds, OS-entropy generators, wall-clock reads).
#: Benchmarks and tools are deliberate fixed-seed experiment drivers, so a
#: literal seed there is an explicit choice, not a hidden default.
LIBRARY_PATH_PREFIXES: Tuple[str, ...] = ("src/",)


# --------------------------------------------------------------------------
# pool-picklability rule
# --------------------------------------------------------------------------

#: Functions that ship their arguments to worker processes by pickling
#: (``fn`` and payload once per worker, each item at hand-out), so every
#: callable reaching them must be module-level.
POOL_FUNCTIONS: FrozenSet[str] = frozenset({"map_in_workers"})

#: Keyword arguments of those functions that stay in the *parent* process
#: (labelling hooks used for error messages) and therefore never pickle.
POOL_PARENT_SIDE_KEYWORDS: FrozenSet[str] = frozenset({"describe"})


# --------------------------------------------------------------------------
# store-discipline rule
# --------------------------------------------------------------------------

#: The only file allowed to open SQLite connections: :mod:`repro.utils.sqlite`,
#: the one audited implementation of the WAL/pragma/retry policy that both
#: :class:`repro.fleet.store.DeviceStateStore` and
#: :class:`repro.results.store.ResultsStore` open their files through.
STORE_ALLOWED_FILES: FrozenSet[str] = frozenset({"src/repro/utils/sqlite.py"})


# --------------------------------------------------------------------------
# bounded-queue rule
# --------------------------------------------------------------------------

#: ``queue``-module constructors that take ``maxsize`` as the first argument.
#: In library code (:data:`LIBRARY_PATH_PREFIXES`) every construction must
#: pass an explicit positive bound — an unbounded in-process buffer hides
#: overload until memory does the load shedding.
QUEUE_MAXSIZE_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Queue", "LifoQueue", "PriorityQueue", "JoinableQueue"}
)

#: Constructors with *no* capacity parameter at all; always a finding in
#: library code (use a bounded ``Queue`` instead).
QUEUE_UNBOUNDABLE_CONSTRUCTORS: FrozenSet[str] = frozenset({"SimpleQueue"})


# --------------------------------------------------------------------------
# docstring-coverage rule
# --------------------------------------------------------------------------

#: Path prefixes whose *public* functions, classes and methods must carry
#: docstrings: the conv kernels (the production kernel package and
#: ``repro.reference``, which holds the naive reference kernel beside the
#: other seed paths), the operational fleet surface, the experiment-store
#: API, and the linter itself (dogfood).
DOCSTRING_PATH_PREFIXES: Tuple[str, ...] = (
    "src/repro/nn/kernels/",
    "src/repro/reference.py",
    "src/repro/fleet/",
    "src/repro/results/",
    "tools/lint/",
)


# --------------------------------------------------------------------------
# doc-links rule
# --------------------------------------------------------------------------

def markdown_files() -> Tuple[Path, ...]:
    """``README.md`` plus every markdown file under ``docs/``, in repo order."""
    files = [REPO_ROOT / "README.md"]
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return tuple(files)


# --------------------------------------------------------------------------
# File walking
# --------------------------------------------------------------------------

#: Directory basenames never descended into.
EXCLUDE_DIR_NAMES: FrozenSet[str] = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache"})

#: Repo-relative path prefixes skipped entirely — the linter's own fixture
#: corpus contains deliberate violations.
EXCLUDE_PATH_PREFIXES: Tuple[str, ...] = ("tools/lint/fixtures/",)


def is_excluded(rel_path: str) -> bool:
    """Whether a repo-relative posix path is outside the linted universe."""
    if any(rel_path.startswith(prefix) for prefix in EXCLUDE_PATH_PREFIXES):
        return True
    return any(part in EXCLUDE_DIR_NAMES for part in rel_path.split("/"))


#: Layer assignment as an explicit edge map, derived from :data:`LAYERS` —
#: package → every package it is allowed to import from.  Exposed for the
#: docs test and for ``--list-rules`` output.
def allowed_imports() -> Dict[str, FrozenSet[str]]:
    """Package → allowed-dependency set implied by :data:`LAYERS`."""
    result: Dict[str, FrozenSet[str]] = {}
    lower: list = []
    for group in LAYERS:
        frozen = frozenset(lower)
        for package in group:
            result[package] = frozen
        lower.extend(group)
    return result
