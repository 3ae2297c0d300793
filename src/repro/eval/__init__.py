"""Evaluation harness: metrics, continual-learning protocol and result tables.

The harness reproduces the paper's experimental protocol (Section 4.1): for a
(source → target) domain pair the method is prepared on the source domain,
then the target domain arrives as 10 sequential stream batches; after every
batch the method adapts and is evaluated on the corresponding slice of the
target test set.  The headline metric is the accuracy averaged over batches.
"""

from repro.eval.metrics import (
    average_accuracy,
    backward_transfer,
    forgetting,
)
from repro.eval.continual import ContinualEvaluator, MethodRunResult
from repro.eval.methods import QCoreMethod
from repro.eval.parallel import (
    ParallelEvaluator,
    RunSpec,
    WorkerError,
    WorkerFailure,
    build_specs,
    derive_seeds,
    map_in_workers,
    merge_results,
    resolve_workers,
    results_to_table,
    run_spec,
)
from repro.eval.tables import ResultsTable, format_table

__all__ = [
    "average_accuracy",
    "backward_transfer",
    "forgetting",
    "ContinualEvaluator",
    "MethodRunResult",
    "ParallelEvaluator",
    "RunSpec",
    "WorkerError",
    "WorkerFailure",
    "build_specs",
    "derive_seeds",
    "map_in_workers",
    "merge_results",
    "resolve_workers",
    "results_to_table",
    "run_spec",
    "QCoreMethod",
    "ResultsTable",
    "format_table",
]
