"""What each metric means and which end-to-end number it should move.

``BENCHMARK.json`` holds the names, units, directions and bounds the
result line uses.  This table adds what that file has no room for: for
each per-layer metric, the end-to-end metric and workload it should move
(and where it should not), and for each end-to-end metric, what it
measures on each workload.  ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER"]

#: end-to-end metric -> workload -> what it measures there (the issue's
#: metric name first).  Every workload reports every metric, so each one
#: is defined, and never zero, on all four.  ``best_op_ms`` is best-of-N:
#: the median over the workload's operation mix of each operation's
#: fastest repetition in the run (memo_hit: the lowest median hit latency
#: of any 1 s window).
END_TO_END: dict[str, dict[str, str]] = {
    "best_op_ms": {
        "cold_plan": "plan_ms: request sent to plan reply received",
        "memo_hit": "hit_ms: request sent to memo reply received (per 1 s window)",
        "plan_and_load": "e2e_s x 1000: request sent to targets loaded",
    },
    "rss_mb": {
        "cold_plan": "daemon_rss_mb: daemon VmHWM, max over passes",
        "memo_hit": "daemon_rss_mb: daemon VmHWM at the end of the run",
        "plan_and_load": "daemon_rss_mb + load_rss_mb (loading process VmHWM)",
    },
    "setup_s": {
        "cold_plan": "start the daemon, generate requests (median of 3)",
        "memo_hit": "start the daemon, run the warm-up pass (median of 3)",
        "plan_and_load": "start the daemon, make data and references (median of 3)",
    },
}

#: per-layer metric -> (unit, better, what it should move).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "serve.decode_ms": ("ms", "lower", "best_op_ms on memo_hit; none on cold_plan"),
    "serve.parse_ms": ("ms", "lower", "best_op_ms on memo_hit; none on cold_plan"),
    "serve.fingerprint_ms": ("ms", "lower", "best_op_ms on memo_hit; none on cold_plan"),
    "serve.memo_lookup_ms": ("ms", "lower", "best_op_ms on memo_hit; none on cold_plan"),
    "serve.encode_ms": ("ms", "lower", "best_op_ms on memo_hit; none on cold_plan"),
    "serve.memo_hit_ratio": ("ratio", "higher", "best_op_ms on memo_hit (1.0 there, 0 on cold_plan)"),
    "serve.overhead_ms": ("ms", "lower", "best_op_ms on cold_plan"),
    "serve.rss_kb_per_request": ("kB", "lower", "rss_mb on cold_plan; flat on memo_hit"),
    "search.plan_cost_ratio": ("ratio", "lower", "best_op_ms on plan_and_load (a cheaper plan loads faster)"),
    "search.states_visited": ("count", "lower", "best_op_ms on cold_plan and plan_and_load; none on memo_hit"),
    "search.ms_per_state": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "search.transitions_tried": ("count", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "search.applicable_ratio": ("ratio", "higher", "best_op_ms on cold_plan and plan_and_load"),
    "search.duplicate_ratio": ("ratio", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "search.transposition_hit_ratio": ("ratio", "higher", "best_op_ms on cold_plan and plan_and_load"),
    "search.self_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "transitions.apply_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "workflow.copy_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "workflow.validate_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "workflow.propagate_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "cost.recost_ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "cost.recosted_nodes": ("count", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "signature.ms": ("ms", "lower", "best_op_ms on cold_plan and plan_and_load"),
    "engine.rows_processed": ("count", "lower", "best_op_ms on plan_and_load; none on cold_plan or memo_hit"),
    "engine.rows_processed_ratio": ("ratio", "lower", "best_op_ms on plan_and_load (the paper's saving, realized)"),
    "engine.rowwise_ms": ("ms", "lower", "best_op_ms on plan_and_load"),
    "engine.blocking_ms": ("ms", "lower", "best_op_ms on plan_and_load"),
    "engine.stream_rowwise_ms": ("ms", "lower", "none end to end: streamed loads are untimed in plan_and_load"),
    "engine.stream_blocking_ms": ("ms", "lower", "none end to end: streamed loads are untimed in plan_and_load"),
    "engine.peak_resident_rows": ("rows", "lower", "none end to end: resident rows of the streamed loads"),
    "engine.spilled_rows": ("rows", "lower", "none end to end: no plan spills, so spill is unmeasured"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced time per request or load"),
    "traffic.blocking_plan_share": ("ratio", "lower", "none: share of plans with an aggregation"),
    "traffic.source_rows": ("rows", "higher", "none: source rows loaded by the traced pass"),
}
