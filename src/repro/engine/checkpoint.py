"""Resumable execution: checkpoints and recovery from mid-run failures.

ETL workflows run in tight night-time windows; when a load dies at 3 a.m.
the operator wants to resume, not restart (the paper cites Labio et al.,
"Efficient Resumption of Interrupted Warehouse Loads" [12], as related
work).  :class:`CheckpointingExecutor` persists each node's output flow
into a :class:`CheckpointStore` as it completes; a re-run against the
same store skips every checkpointed node and recomputes only the rest.

Checkpointing is **batch-granular** under the run's effective
:class:`~repro.engine.batches.ExecutionBudget`: each node's output is
appended to a :class:`PartialCheckpoint` one batch at a time, so a
failure mid-node leaves a durable prefix.  Each node runs through the
batch pipeline's own operator for it, fed batches of its stored input
flows.  On resume, a row-wise node (every component of kind
FILTER/FUNCTION) keeps its prefix and recomputes only the suffix of
input rows it had not consumed; blocking and binary nodes discard the
partial and recompute whole (their accumulator state is not captured by
output batches alone).

Failures are injected by node id (``fail_before``) or by batch position
(``fail_after=(node_id, n)`` — die after the node's *n*-th output batch
is appended), which makes the recovery property mechanically testable:
for *any* failure point, failing + resuming must produce exactly the full
run's targets while recomputing only the work that had not completed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.activity import Activity
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import (
    ExecutionBudget,
    StreamingMetrics,
    iter_batches,
)
from repro.engine.columnar import Batch
from repro.engine.executor import ExecutionResult, Executor, iter_components
from repro.engine.rows import Row, check_rows_match_schema
from repro.engine.streaming import _StreamRun, is_row_wise
from repro.exceptions import ExecutionError
from repro.obs import Recorder, use_recorder

__all__ = [
    "SimulatedFailure",
    "PartialCheckpoint",
    "CheckpointStore",
    "CheckpointingExecutor",
]


class SimulatedFailure(ExecutionError):
    """Raised when execution reaches an injected failure point."""

    def __init__(self, node_id: str, after_batches: int | None = None):
        if after_batches is None:
            super().__init__(f"simulated failure before node {node_id}")
        else:
            super().__init__(
                f"simulated failure after batch {after_batches} "
                f"of node {node_id}"
            )
        self.node_id = node_id
        self.after_batches = after_batches


@dataclass
class PartialCheckpoint:
    """The durable prefix of one node's output, written batch by batch.

    ``consumed_rows`` is how many *input* rows produced those batches —
    the resume offset for row-wise nodes.  ``None`` marks the partial as
    non-resumable (blocking/binary node): its batches are only a crash
    artifact and the node recomputes whole.
    """

    batches: list[list[Row]] = field(default_factory=list)
    consumed_rows: int | None = 0

    @property
    def rows(self) -> list[Row]:
        return [row for batch in self.batches for row in batch]


@dataclass
class CheckpointStore:
    """Per-node output flows of (partially) completed runs."""

    flows: dict[str, list[Row]] = field(default_factory=dict)
    partials: dict[str, PartialCheckpoint] = field(default_factory=dict)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.flows

    def save(self, node_id: str, rows: list[Row]) -> None:
        self.flows[node_id] = list(rows)
        # A completed node's partial is subsumed by the full flow.
        self.partials.pop(node_id, None)

    def restore(self, node_id: str) -> list[Row]:
        return list(self.flows[node_id])

    def begin_partial(self, node_id: str, resumable: bool) -> PartialCheckpoint:
        partial = PartialCheckpoint(consumed_rows=0 if resumable else None)
        self.partials[node_id] = partial
        return partial

    def append_partial(
        self,
        partial: PartialCheckpoint,
        batch: Batch | list[Row],
        consumed_rows: int | None,
    ) -> None:
        # ``list(batch)`` builds row dicts from a columnar Batch and
        # copies a plain row list — partials always store rows, which
        # keeps restore paths and crash artifacts layout-independent.
        partial.batches.append(list(batch))
        if partial.consumed_rows is not None:
            partial.consumed_rows = consumed_rows

    def clear(self) -> None:
        self.flows.clear()
        self.partials.clear()

    @property
    def completed_nodes(self) -> frozenset[str]:
        return frozenset(self.flows)


class CheckpointingExecutor(Executor):
    """An :class:`Executor` that checkpoints node outputs and resumes.

    ``run`` accepts a :class:`CheckpointStore` (reused across attempts),
    an optional ``fail_before`` node id that aborts the run just before
    that node executes, and an optional ``fail_after=(node_id, n)`` that
    aborts after the node's *n*-th output batch was durably appended.
    Everything already saved (including partial row-wise prefixes) is
    reused by the next call.  Unlike :meth:`Executor.run` it takes no
    ``collect_rejects`` or ``shards``: a resumable run is one serial
    pipeline whose only outputs are the targets and the row counters.
    """

    def run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        *,
        check_schemas: bool = True,
        checkpoints: CheckpointStore | None = None,
        fail_before: str | None = None,
        fail_after: tuple[str, int] | None = None,
        budget: ExecutionBudget | None = None,
        recorder: Recorder | None = None,
    ) -> ExecutionResult:
        if recorder is not None:
            with use_recorder(recorder):
                return self._checkpointed_run(
                    workflow, source_data, check_schemas, checkpoints,
                    fail_before, fail_after, budget,
                )
        return self._checkpointed_run(
            workflow, source_data, check_schemas, checkpoints, fail_before,
            fail_after, budget,
        )

    def _checkpointed_run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        check_schemas: bool,
        checkpoints: CheckpointStore | None,
        fail_before: str | None,
        fail_after: tuple[str, int] | None,
        budget: ExecutionBudget | None,
    ) -> ExecutionResult:
        workflow.validate()
        workflow.propagate_schemas()
        store = checkpoints if checkpoints is not None else CheckpointStore()
        budget = self._effective_budget(budget)
        # The pipeline supplies the per-node operators, the row counters
        # and the resident-row ledger; this loop owns the node order.
        pipeline = _StreamRun(
            self, workflow, source_data, budget, check_schemas,
            collect_rejects=False,
        )

        flows: dict[object, list[Row]] = {}
        targets: dict[str, list[Row]] = {}

        for node in workflow.topological_order():
            if fail_before is not None and node.id == fail_before:
                raise SimulatedFailure(node.id)
            if node.id in store:
                flows[node] = store.restore(node.id)
                if isinstance(node, RecordSet) and node.is_target:
                    targets[node.name] = flows[node]
                continue
            if isinstance(node, RecordSet):
                if node.is_source:
                    try:
                        rows = source_data[node.name]
                    except KeyError:
                        raise ExecutionError(
                            f"no data supplied for source {node.name!r}"
                        ) from None
                    if check_schemas:
                        check_rows_match_schema(
                            rows, node.schema, f"source {node.name}"
                        )
                    flows[node] = list(rows)
                else:
                    flows[node] = flows[workflow.providers(node)[0]]
                    if node.is_target:
                        targets[node.name] = flows[node]
            else:
                inputs = tuple(flows[p] for p in workflow.providers(node))
                flows[node] = self._run_node(
                    node, inputs, pipeline, store, fail_after
                )
            store.save(node.id, flows[node])
        return ExecutionResult(
            targets=targets,
            stats=pipeline.stats,
            streaming=StreamingMetrics(
                batch_size=budget.batch_size,
                max_resident_rows=budget.max_resident_rows,
                peak_resident_rows=pipeline.ledger.peak,
                spilled_rows=pipeline.ledger.spilled_rows,
                batches_by_activity={
                    component_id: entry.batches
                    for component_id, entry in pipeline.metrics.items()
                },
            ),
        )

    def _run_node(
        self,
        activity: Activity,
        inputs: tuple[list[Row], ...],
        pipeline: _StreamRun,
        store: CheckpointStore,
        fail_after: tuple[str, int] | None,
    ) -> list[Row]:
        """Run one node, appending its output to a partial checkpoint
        one batch at a time (and resuming a row-wise prefix if present)."""
        row_wise = activity.is_unary and all(
            is_row_wise(component) for component in iter_components(activity)
        )
        fail_at = (
            fail_after[1]
            if fail_after is not None and fail_after[0] == activity.id
            else None
        )

        partial = store.partials.get(activity.id)
        if (
            partial is not None
            and row_wise
            and partial.consumed_rows is not None
        ):
            # Durable prefix from the failed attempt: keep it, recompute
            # only the input suffix it had not consumed.
            start = partial.consumed_rows
        else:
            partial = store.begin_partial(activity.id, resumable=row_wise)
            start = 0

        # Every node runs through the pipeline's own operator for it, fed
        # batches of the stored input flows (a row-wise node only the
        # suffix it had not consumed).  ``consumed`` counts the input
        # rows pulled so far, so at each output batch it is the resume
        # offset that batch makes durable.
        consumed = start

        def feed(flow: list[Row]):
            nonlocal consumed
            for batch in iter_batches(flow, pipeline.budget.batch_size):
                consumed += len(batch)
                yield batch

        flows = (inputs[0][start:],) if start else inputs
        appended = 0
        for batch in pipeline._activity_iter(
            activity, tuple(feed(flow) for flow in flows)
        ):
            store.append_partial(partial, batch, consumed)
            appended += 1
            if fail_at is not None and appended >= fail_at:
                raise SimulatedFailure(activity.id, after_batches=appended)
        # NB: a node with empty output never hits a fail_after point —
        # there is no batch boundary to fail on.
        return partial.rows
