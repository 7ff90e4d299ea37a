"""The workflow interpreter: runs an ETL workflow on concrete data.

This is the substrate the paper assumes but does not describe: something
that actually executes an ETL workflow.  The executor feeds each
activity the flows of its providers in topological order, applies the
operator registered for its template, and collects the rows arriving at
each target recordset.  It also counts the rows every activity
processes — the empirical counterpart of the paper's processed-rows cost
model, used by the ablation benchmarks to validate the model.

There is one execution path: the batch-pipelined columnar engine of
:mod:`repro.engine.streaming`.  An :class:`~repro.engine.batches.
ExecutionBudget` shapes it — batch size, resident-row ceiling, spill
directory — and the default budget (no ceiling, no spilling) is what a
plain ``run(workflow, data)`` uses.  ``shards=N`` runs the same operators
as N data-parallel pipelines (:mod:`repro.engine.partition`).

Composite (MER'd) activities are unfolded through one shared helper,
:func:`iter_components`, so every run reports member-level row counts.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.activity import Activity, CompositeActivity
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import ExecutionBudget, StreamingMetrics
from repro.engine.operators import (
    EngineContext,
    OperatorRegistry,
    default_registry,
    default_scalar_functions,
)
from repro.engine.rows import Row
from repro.obs import Recorder, use_recorder

__all__ = [
    "ExecutionStats",
    "ExecutionResult",
    "Executor",
    "iter_components",
]

def iter_components(activity: Activity) -> Iterator[Activity]:
    """The executable parts of an activity, in chain order.

    A plain activity yields itself; a :class:`CompositeActivity` yields
    its (recursively flattened) members.  The engine, the shard plans and
    the fuzz oracles walk composites through this single helper, so
    packaged groups report member-level stats consistently everywhere.
    """
    if isinstance(activity, CompositeActivity):
        for component in activity.components:
            yield from iter_components(component)
    else:
        yield activity


@dataclass
class ExecutionStats:
    """Row counters per activity (keyed by activity id)."""

    rows_processed: dict[str, int] = field(default_factory=dict)
    rows_output: dict[str, int] = field(default_factory=dict)

    @property
    def total_rows_processed(self) -> int:
        """Total processed rows — the empirical 'cost' of the run."""
        return sum(self.rows_processed.values())

    def record(self, activity_id: str, processed: int, produced: int) -> None:
        self.rows_processed[activity_id] = (
            self.rows_processed.get(activity_id, 0) + processed
        )
        self.rows_output[activity_id] = (
            self.rows_output.get(activity_id, 0) + produced
        )


@dataclass
class ExecutionResult:
    """Output of one workflow run.

    ``rejects`` is populated when the run was started with
    ``collect_rejects=True``: for every *filter* activity, the rows it
    dropped — the reject streams real ETL deployments route to error
    tables for inspection and replay.

    ``streaming`` describes the batch pipeline that produced the result:
    the batch size the run used, its peak resident rows, and how many
    rows were spilled.  Every engine run sets it.
    """

    targets: dict[str, list[Row]]
    stats: ExecutionStats
    rejects: dict[str, list[Row]] = field(default_factory=dict)
    streaming: StreamingMetrics | None = None


class Executor:
    """Runs workflows against in-memory source data.

    Args:
        context: scalar functions / lookups / reference key sets; defaults
            to a context holding the builtin scalar function library.
        registry: template-name -> operator mapping; defaults to the
            builtin operators.
        budget: default :class:`ExecutionBudget` applied to every
            :meth:`run` that does not pass its own.
    """

    def __init__(
        self,
        context: EngineContext | None = None,
        registry: OperatorRegistry | None = None,
        budget: ExecutionBudget | None = None,
    ):
        if context is None:
            context = EngineContext(scalar_functions=default_scalar_functions())
        self.context = context
        self.registry = registry if registry is not None else default_registry()
        self.default_budget = budget

    def run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        *,
        check_schemas: bool = True,
        collect_rejects: bool = False,
        budget: ExecutionBudget | None = None,
        recorder: Recorder | None = None,
        shards: int | None = None,
    ) -> ExecutionResult:
        """Execute ``workflow`` on ``source_data`` (keyed by source name).

        With ``check_schemas`` (the default), every source flow is checked
        against its recordset's declared schema before the run — catching
        mismatches at the boundary instead of deep inside an operator.
        With ``collect_rejects``, every filter activity's dropped rows are
        gathered into ``ExecutionResult.rejects`` (keyed by activity id).
        ``budget`` shapes the batch pipeline; without one the executor's
        default budget applies, and without that ``ExecutionBudget()``
        (default batch size, unbounded resident rows).
        With a ``recorder``, that :class:`~repro.obs.Recorder` is active
        for the duration of the run (telemetry spans/counters land there).
        With ``shards`` > 1, the run is split into that many data-parallel
        pipelines over range-partitioned sources (targets/stats/rejects
        stay byte-identical to serial — see :mod:`repro.engine.partition`),
        degrading to one pipeline with a warning when the workflow shape
        does not allow it.
        """
        if recorder is not None:
            with use_recorder(recorder):
                return self._run(
                    workflow, source_data, check_schemas, collect_rejects,
                    budget, shards,
                )
        return self._run(
            workflow, source_data, check_schemas, collect_rejects, budget,
            shards,
        )

    def _effective_budget(
        self, budget: ExecutionBudget | None = None
    ) -> ExecutionBudget:
        """``budget``, else the executor's default, else the unbounded
        :class:`ExecutionBudget` every run falls back to."""
        return budget or self.default_budget or ExecutionBudget()

    def _run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        check_schemas: bool,
        collect_rejects: bool,
        budget: ExecutionBudget | None,
        shards: int | None = None,
    ) -> ExecutionResult:
        budget = self._effective_budget(budget)
        if shards is not None and shards > 1:
            from repro.engine.partition import execute_partitioned

            return execute_partitioned(
                self,
                workflow,
                source_data,
                budget,
                shards,
                check_schemas=check_schemas,
                collect_rejects=collect_rejects,
            )
        from repro.engine.streaming import execute_streaming

        return execute_streaming(
            self,
            workflow,
            source_data,
            budget,
            check_schemas=check_schemas,
            collect_rejects=collect_rejects,
        )

    @staticmethod
    def is_filter_like(activity: Activity) -> bool:
        """True for plain filters and all-filter composites — the
        activities whose dropped rows :meth:`run` can report as rejects."""
        from repro.templates.base import ActivityKind

        return all(
            component.kind is ActivityKind.FILTER
            for component in iter_components(activity)
        )

    def _streaming_finished(
        self,
        metrics: "dict[str, object]",
        ledger: object,
        total_seconds: float,
    ) -> None:
        """Hook called once per run with per-component metrics.

        The base executor ignores it; :class:`~repro.engine.tracing.
        TracingExecutor` turns the metrics into a :class:`TraceReport`.
        """
