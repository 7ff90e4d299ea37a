"""Execution tracing: per-activity wall-clock and row metrics.

Wraps an :class:`~repro.engine.executor.Executor` run with fine-grained
measurements — rows in/out, per-activity duration, empirical selectivity
— and renders an operator-level profile.  Useful for validating the cost
model against real behaviour (which activity actually dominates?) and for
the kind of night-window capacity planning the paper's introduction
motivates.

Every trace comes from the batch pipeline's own per-component metrics:
rows in/out and seconds, how many batches each component processed, and
its peak resident rows, taken from the run's
:class:`~repro.engine.batches.ResidentLedger` (sharded runs report the
merged per-shard counters and the largest shard's peak).
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.workflow import ETLWorkflow
from repro.engine.batches import ExecutionBudget, ResidentLedger
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.rows import Row
from repro.obs import get_recorder

__all__ = ["ActivityTrace", "TraceReport", "TracingExecutor"]


@dataclass(frozen=True)
class ActivityTrace:
    """Measurements for one activity in one run."""

    activity_id: str
    name: str
    template: str
    rows_in: int
    rows_out: int
    seconds: float
    batches: int
    peak_resident_rows: int

    @property
    def selectivity(self) -> float | None:
        if self.rows_in == 0:
            return None
        return self.rows_out / self.rows_in


@dataclass
class TraceReport:
    """All activity traces of one run, render-able as a profile."""

    traces: list[ActivityTrace]
    total_seconds: float

    def by_cost(self) -> list[ActivityTrace]:
        return sorted(self.traces, key=lambda t: t.seconds, reverse=True)

    def render(self, top: int | None = None) -> str:
        lines = [
            f"{'activity':<10}{'template':<16}{'rows in':>9}{'rows out':>9}"
            f"{'sel':>7}{'batches':>9}{'res.peak':>9}{'ms':>9}{'%time':>7}"
        ]
        rows = self.by_cost()
        if top is not None:
            rows = rows[:top]
        for trace in rows:
            selectivity = (
                f"{trace.selectivity:.2f}" if trace.selectivity is not None else "—"
            )
            share = (
                100.0 * trace.seconds / self.total_seconds
                if self.total_seconds > 0
                else 0.0
            )
            lines.append(
                f"{trace.activity_id:<10}{trace.template:<16}"
                f"{trace.rows_in:>9}{trace.rows_out:>9}{selectivity:>7}"
                f"{trace.batches:>9}{trace.peak_resident_rows:>9}"
                f"{1000 * trace.seconds:>9.2f}{share:>7.1f}"
            )
        return "\n".join(lines)


class TracingExecutor(Executor):
    """An executor that records a per-activity profile.

    After :meth:`run`, the profile of the last run is available as
    :attr:`last_trace`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last_trace: TraceReport | None = None
        self._current: list[ActivityTrace] | None = None

    def _run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        check_schemas: bool,
        collect_rejects: bool,
        budget: ExecutionBudget | None,
        shards: int | None = None,
    ) -> ExecutionResult:
        # Overrides the body hook, not run() itself: the base run()
        # installs a recorder= before this executes.
        self._current = []
        started = time.perf_counter()
        sharded = shards is not None and shards > 1
        try:
            with get_recorder().span(
                "engine.run", mode="sharded" if sharded else "streaming"
            ):
                result = super()._run(
                    workflow,
                    source_data,
                    check_schemas,
                    collect_rejects,
                    budget,
                    shards,
                )
        finally:
            elapsed = time.perf_counter() - started
            self.last_trace = TraceReport(
                traces=self._current or [], total_seconds=elapsed
            )
            self._current = None
        return result

    def _streaming_finished(
        self, metrics, ledger: ResidentLedger, total_seconds: float
    ) -> None:
        """Turn a run's per-component metrics into traces."""
        if self._current is None:
            return
        recorder = get_recorder()
        for component_id, entry in metrics.items():
            recorder.record_span(
                "engine.operator",
                entry.seconds,
                activity=component_id,
                operator=entry.activity.template.name,
                rows_in=entry.rows_in,
                rows_out=entry.rows_out,
                batches=entry.batches,
            )
            recorder.gauge(
                "engine.resident_rows", activity=component_id
            ).set(ledger.peak_for(component_id))
            self._current.append(
                ActivityTrace(
                    activity_id=component_id,
                    name=entry.activity.name,
                    template=entry.activity.template.name,
                    rows_in=entry.rows_in,
                    rows_out=entry.rows_out,
                    seconds=entry.seconds,
                    batches=entry.batches,
                    peak_resident_rows=ledger.peak_for(component_id),
                )
            )
        recorder.gauge("engine.resident_rows.peak").set(ledger.peak)
        if ledger.spilled_rows:
            recorder.counter("engine.spilled_rows").add(ledger.spilled_rows)
