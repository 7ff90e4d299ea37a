"""Engine-vs-reference conformance: one workflow run both ways.

:func:`streaming_matches_materializing` runs a workflow through the
engine under a budget and through the whole-flow reference interpreter
(:mod:`tests.engine.reference`) and lists every facet that differs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.workflow import ETLWorkflow
from repro.engine import ExecutionBudget, Executor, as_multiset
from repro.engine.rows import Row
from tests.engine.reference import run_reference


@dataclass(frozen=True)
class StreamingConformanceReport:
    """Does the batch pipeline match the reference interpreter?

    The engine's contract is *identity*, not just multiset equality:
    same target lists (row order included) and the same per-activity
    ``ExecutionStats`` counters.  ``problems`` lists every violated facet
    in human-readable form.
    """

    conformant: bool
    problems: tuple[str, ...]
    peak_resident_rows: int

    def __bool__(self) -> bool:
        return self.conformant


def streaming_matches_materializing(
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    budget: ExecutionBudget,
    executor: Executor | None = None,
) -> StreamingConformanceReport:
    """Run ``workflow`` on the engine and the reference; compare all."""
    executor = executor if executor is not None else Executor()
    base = run_reference(executor, workflow, source_data, collect_rejects=True)
    streamed = executor.run(
        workflow, source_data, collect_rejects=True, budget=budget
    )

    problems: list[str] = []
    if set(base.targets) != set(streamed.targets):
        problems.append(
            f"target names differ: {sorted(base.targets)} vs "
            f"{sorted(streamed.targets)}"
        )
    for name in sorted(set(base.targets) & set(streamed.targets)):
        if base.targets[name] != streamed.targets[name]:
            problems.append(f"target {name!r}: rows differ")
    if base.stats.rows_processed != streamed.stats.rows_processed:
        problems.append("ExecutionStats.rows_processed differ")
    if base.stats.rows_output != streamed.stats.rows_output:
        problems.append("ExecutionStats.rows_output differ")
    if set(base.rejects) != set(streamed.rejects):
        problems.append("reject activity sets differ")
    else:
        for activity_id in sorted(base.rejects):
            if as_multiset(base.rejects[activity_id]) != as_multiset(
                streamed.rejects[activity_id]
            ):
                problems.append(f"rejects for {activity_id!r} differ")
    return StreamingConformanceReport(
        conformant=not problems,
        problems=tuple(problems),
        peak_resident_rows=streamed.streaming.peak_resident_rows,
    )
