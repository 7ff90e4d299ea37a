"""Execution engine: runs ETL workflows on in-memory data.

Stable public surface
---------------------
The names re-exported here (see ``__all__``) are the engine's supported
API; everything else under ``repro.engine.*`` is internal and may move
between releases.  The core execution surface is:

* :class:`Batch` — the columnar unit of data flow: a dict of equal-length
  column lists plus a lazy row-dict adapter (``.columns``, ``.rows()``,
  ``.num_rows``, ``from_rows`` / ``to_rows``);
* :class:`Executor` — one batch-pipelined columnar interpreter runs
  every workflow; a plain ``run(workflow, data)`` uses the unbounded
  default :class:`ExecutionBudget`.  :class:`TracingExecutor` records a
  per-activity profile of the same runs, and
  :class:`CheckpointingExecutor` checkpoints node outputs to resume
  failed runs.  All three ``run()`` methods take ``(workflow, data)``
  positionally and everything else by keyword (``check_schemas=``,
  ``budget=``, ``recorder=``); ``collect_rejects=`` and ``shards=``
  belong to ``Executor.run`` and ``TracingExecutor.run`` only, while
  ``CheckpointingExecutor.run`` takes ``checkpoints=``,
  ``fail_before=`` and ``fail_after=`` instead;
* :class:`ExecutionBudget` / :class:`ExecutionResult` /
  :class:`ExecutionStats` — the run-configuration and run-outcome types;
* :func:`iter_batches` / :func:`rebatch` — chunking helpers that accept a
  :class:`Batch` or a row sequence and always yield :class:`Batch`;
* :func:`partition_plan` / :func:`execute_partitioned` — data-parallel
  sharded execution (``Executor.run(..., shards=N)``): range-partitioned
  sources, one pipeline per shard, deterministic merge that is
  byte-identical to the serial run on targets/stats/rejects.
"""

from repro.engine.batches import (
    DEFAULT_BATCH_SIZE,
    ExecutionBudget,
    ResidentLedger,
    SpillableRowBuffer,
    StreamingMetrics,
    iter_batches,
    rebatch,
)
from repro.engine.calibrate import (
    CalibrationWarning,
    apply_selectivities,
    calibrate_workflow,
    measure_selectivities,
)
from repro.engine.checkpoint import (
    CheckpointingExecutor,
    CheckpointStore,
    PartialCheckpoint,
    SimulatedFailure,
)
from repro.engine.columnar import Batch, supports_columnar
from repro.engine.executor import (
    ExecutionResult,
    ExecutionStats,
    Executor,
    iter_components,
)
from repro.engine.partition import (
    LeafPath,
    PartitionPlan,
    execute_partitioned,
    partition_plan,
    shard_bounds,
)
from repro.engine.operators import (
    EngineContext,
    OperatorRegistry,
    default_registry,
    default_scalar_functions,
)
from repro.engine.rows import Row, as_multiset, freeze_row
from repro.engine.tracing import ActivityTrace, TraceReport, TracingExecutor
from repro.engine.validate import RunEquivalenceReport, empirically_equivalent

__all__ = [
    "Batch",
    "supports_columnar",
    "Executor",
    "ExecutionResult",
    "ExecutionStats",
    "iter_components",
    "DEFAULT_BATCH_SIZE",
    "ExecutionBudget",
    "ResidentLedger",
    "SpillableRowBuffer",
    "StreamingMetrics",
    "iter_batches",
    "rebatch",
    "LeafPath",
    "PartitionPlan",
    "partition_plan",
    "execute_partitioned",
    "shard_bounds",
    "ActivityTrace",
    "TraceReport",
    "TracingExecutor",
    "CheckpointingExecutor",
    "CheckpointStore",
    "PartialCheckpoint",
    "SimulatedFailure",
    "CalibrationWarning",
    "measure_selectivities",
    "apply_selectivities",
    "calibrate_workflow",
    "EngineContext",
    "OperatorRegistry",
    "default_registry",
    "default_scalar_functions",
    "Row",
    "freeze_row",
    "as_multiset",
    "RunEquivalenceReport",
    "empirically_equivalent",
]
