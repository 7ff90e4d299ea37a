"""Reference interpreter: the whole-flow walk the engine is checked against.

Every intermediate flow is a full Python list and every activity
component is one call of its registered row operator, in topological
order.  It shares nothing with the engine's batch pipeline — it imports
none of ``streaming``, ``columnar``, ``partition`` or ``batches`` — so
"engine == reference" compares two independent implementations.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow
from repro.engine.executor import ExecutionResult, ExecutionStats, iter_components
from repro.engine.rows import Row, check_rows_match_schema, freeze_row
from repro.exceptions import ExecutionError
from repro.templates.base import ActivityKind


def _dropped(arrived: list[Row], kept: list[Row]) -> list[Row]:
    """The bag difference ``arrived − kept``, in arrival order."""
    remaining = Counter(freeze_row(row) for row in kept)
    dropped: list[Row] = []
    for row in arrived:
        frozen = freeze_row(row)
        if remaining[frozen] > 0:
            remaining[frozen] -= 1
        else:
            dropped.append(row)
    return dropped


def run_reference(
    executor,
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    *,
    check_schemas: bool = True,
    collect_rejects: bool = False,
) -> ExecutionResult:
    """Run ``workflow`` with ``executor``'s registry and context.

    Returns targets, member-level row counters and — with
    ``collect_rejects`` — the rows each all-filter activity dropped.
    ``ExecutionResult.streaming`` stays ``None``: nothing is batched.
    """
    workflow.validate()
    workflow.propagate_schemas()
    flows: dict[object, list[Row]] = {}
    stats = ExecutionStats()
    targets: dict[str, list[Row]] = {}
    rejects: dict[str, list[Row]] = {}
    for node in workflow.topological_order():
        if isinstance(node, RecordSet):
            if not node.is_source:
                flows[node] = flows[workflow.providers(node)[0]]
                if node.is_target:
                    targets[node.name] = flows[node]
                continue
            try:
                rows = source_data[node.name]
            except KeyError:
                raise ExecutionError(
                    f"no data supplied for source {node.name!r}"
                ) from None
            if check_schemas:
                check_rows_match_schema(rows, node.schema, f"source {node.name}")
            flows[node] = list(rows)
            continue
        inputs = tuple(flows[p] for p in workflow.providers(node))
        flow = inputs
        components = tuple(iter_components(node))
        for component in components:
            operator = executor.registry.get(component.template.name)
            produced = operator(component, flow, executor.context)
            stats.record(component.id, sum(map(len, flow)), len(produced))
            flow = (produced,)
        flows[node] = flow[0]
        if collect_rejects and all(
            c.kind is ActivityKind.FILTER for c in components
        ):
            rejects[node.id] = _dropped(inputs[0], flows[node])
    return ExecutionResult(targets=targets, stats=stats, rejects=rejects)
