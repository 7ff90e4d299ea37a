"""Per-layer metrics from a traced pass: spans and traced loads.

Layer times are self times (a span's duration minus its child spans) in
ms per request or per load; counts are totals over the traced pass, so
they repeat exactly for one seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.engine import iter_components
from repro.engine.streaming import is_row_wise

from stats import geomean
from tracer import Tracer, self_times

__all__ = [
    "Load",
    "layer_metrics",
    "engine_metrics",
    "with_search_totals",
    "IDLE_ENGINE",
]


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Serve, search, transitions, workflow, cost and signature metrics.

    ``workflow_fingerprint`` counts as the front door's
    (``serve.fingerprint_ms``) outside a search and as ``signature``
    inside one.  ``search.duplicate_ratio`` is the share of signatures a
    search computed that it had computed before.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    search_of: dict[int, int | None] = {}

    def enclosing_search(span) -> int | None:
        chain = []
        current = span
        found = None
        while current is not None:
            if current.id in search_of:
                found = search_of[current.id]
                break
            chain.append(current.id)
            if current.name == "search":
                found = current.id
                break
            current = by_id.get(current.parent) if current.parent else None
        for span_id in chain:
            search_of[span_id] = found
        return found

    totals: Counter = Counter()
    counts: Counter = Counter()
    seen: dict[int | None, set] = {}
    for span in spans:
        name = span.name
        inside = enclosing_search(span) if name != "search" else span.id
        if name == "fingerprint":
            name = "signature" if inside is not None else "serve.fingerprint"
        totals[name] += own[span.id]
        counts[name] += 1
        if name == "transitions.apply":
            counts["applicable"] += 1 if span.note else 0
        elif name == "cost.recost":
            counts["recosted"] += span.note
        elif name == "signature" and span.note is not None:
            signatures = seen.setdefault(inside, set())
            if span.note in signatures:
                counts["duplicate"] += 1
            signatures.add(span.note)
            counts["signature_results"] += 1

    def per_request(name: str) -> float:
        return 1000.0 * totals[name] / requests if requests else 0.0

    tried = counts["transitions.apply"]
    return {
        "serve.decode_ms": per_request("serve.decode"),
        "serve.parse_ms": per_request("serve.parse"),
        "serve.fingerprint_ms": per_request("serve.fingerprint"),
        "serve.memo_lookup_ms": per_request("serve.memo_lookup"),
        "serve.encode_ms": per_request("serve.encode"),
        "search.self_ms": per_request("search"),
        "search.transitions_tried": float(tried),
        "search.applicable_ratio": counts["applicable"] / tried if tried else 0.0,
        "search.duplicate_ratio": (
            counts["duplicate"] / counts["signature_results"]
            if counts["signature_results"]
            else 0.0
        ),
        "transitions.apply_ms": per_request("transitions.apply"),
        "workflow.copy_ms": per_request("workflow.copy"),
        "workflow.validate_ms": per_request("workflow.validate"),
        "workflow.propagate_ms": per_request("workflow.propagate"),
        "cost.recost_ms": per_request("cost.recost"),
        "cost.recosted_nodes": float(counts["recosted"]),
        "signature.ms": per_request("signature"),
        "_search_seconds": sum(
            span.duration for span in spans if span.name == "search"
        ),
    }


@dataclass
class Load:
    """One traced load: the plan, its trace and its outcome."""

    plan: Any
    report: Any  # TraceReport
    result: Any  # ExecutionResult
    source_rows: int


def _split_ms(loads: list[Load]) -> tuple[float, float]:
    """Mean ms per load spent in row-wise and in blocking activities
    (``TracingExecutor`` per-activity seconds; binary activities count
    as blocking)."""
    rowwise = blocking = 0.0
    for load in loads:
        components = {
            component.id: component
            for activity in load.plan.activities()
            for component in iter_components(activity)
        }
        for trace in load.report.traces:
            component = components.get(trace.activity_id)
            if component is not None and is_row_wise(component):
                rowwise += trace.seconds
            else:
                blocking += trace.seconds
    count = max(1, len(loads))
    return 1000.0 * rowwise / count, 1000.0 * blocking / count


def engine_metrics(
    loads: list[Load], streamed: list[Load], initial_rows: int
) -> dict[str, float]:
    """Default-path loads, the same plans streamed, and the rows the
    initial workflows process on the same data."""
    rows = sum(load.result.stats.total_rows_processed for load in loads)
    rowwise, blocking = _split_ms(loads)
    stream_rowwise, stream_blocking = _split_ms(streamed)
    return {
        "engine.rows_processed": float(rows),
        "engine.rows_processed_ratio": rows / initial_rows if initial_rows else 0.0,
        "engine.rowwise_ms": rowwise,
        "engine.blocking_ms": blocking,
        "engine.stream_rowwise_ms": stream_rowwise,
        "engine.stream_blocking_ms": stream_blocking,
        "engine.peak_resident_rows": float(
            max((s.result.streaming.peak_resident_rows for s in streamed), default=0)
        ),
        "engine.spilled_rows": float(
            sum(s.result.streaming.spilled_rows for s in streamed)
        ),
        "traffic.source_rows": float(sum(load.source_rows for load in loads)),
    }


IDLE_ENGINE = {
    "engine.rows_processed": 0.0,
    "engine.rows_processed_ratio": 0.0,
    "engine.rowwise_ms": 0.0,
    "engine.blocking_ms": 0.0,
    "engine.stream_rowwise_ms": 0.0,
    "engine.stream_blocking_ms": 0.0,
    "engine.peak_resident_rows": 0.0,
    "engine.spilled_rows": 0.0,
    "traffic.source_rows": 0.0,
}


def with_search_totals(layers: dict[str, float], replies: list[dict]) -> dict[str, float]:
    """Add what the searched replies report: visited states (a count),
    ms per state, and the plans' best/initial cost ratio."""
    search_seconds = layers.pop("_search_seconds")
    states = sum(reply["result"]["visited_states"] for reply in replies)
    layers["search.states_visited"] = float(states)
    layers["search.ms_per_state"] = (
        1000.0 * search_seconds / states if states else 0.0
    )
    ratios = [
        reply["result"]["best_cost"] / reply["result"]["initial_cost"]
        for reply in replies
    ]
    layers["search.plan_cost_ratio"] = geomean(ratios) if ratios else 0.0
    return layers
