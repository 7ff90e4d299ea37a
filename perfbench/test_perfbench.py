"""Tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
from tracer import Hooks, Span, Tracer, self_times  # noqa: E402

from repro import SearchBudget, optimize  # noqa: E402
from repro.engine import ExecutionBudget, Executor  # noqa: E402
from repro.io.json_io import workflow_to_dict  # noqa: E402
from repro.serve.protocol import encode, result_to_dict  # noqa: E402
from repro.workloads import generate_workload  # noqa: E402


# -- tail percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),
        (39, None),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
    ],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    found = stats.tail([float(i) for i in range(count)])
    assert (found[0] if found else None) == expected
    if found:
        pct, value = found
        assert sum(1 for i in range(count) if i > value) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 1) == 1.0


def test_best_of_takes_each_operations_fastest_repetition():
    by_op = {"a": [3.0, 1.0], "b": [5.0, 2.0, 9.0], "c": [4.0]}
    assert stats.best_of(by_op) == 2.0


def test_best_window_median_skips_a_sparse_last_window():
    stamped = [(0.1 * i, 2.0) for i in range(10)]  # window 0: median 2
    stamped += [(1.0 + 0.1 * i, 3.0) for i in range(10)]  # window 1: median 3
    stamped += [(2.05, 0.5)]  # one straggler in window 2
    assert stats.best_window_median(stamped, 1.0) == 2.0


# -- spans and self time ---------------------------------------------------------


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, 0),
        Span(2, "child", 1.0, 3.0, 1, 0),
        Span(3, "child", 2.0, 5.0, 1, 0),  # overlaps the first child
        Span(4, "child", 8.0, 12.0, 1, 0),  # runs past the parent's end
        Span(5, "grandchild", 1.5, 2.5, 2, 0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_nests_calls_and_keeps_request_ids():
    tracer = Tracer()
    tracer.request = 7

    def inner():
        time.sleep(0.002)

    def outer():
        tracer.call("inner", inner, (), {})
        time.sleep(0.002)

    tracer.call("outer", outer, (), {})
    inner_span, outer_span = tracer.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert {s.request for s in tracer.spans} == {7}
    own = self_times(tracer.spans)
    assert own[outer_span.id] == pytest.approx(
        outer_span.duration - inner_span.duration
    )


def test_hooks_trace_a_search_and_restore_the_originals():
    from repro.core import signature

    original = signature.state_signature
    tracer = Tracer()
    workflow = generate_workload("tiny", 0).workflow
    with Hooks(tracer):
        assert signature.state_signature is not original
        optimize(workflow, "hs", budget=SearchBudget(max_states=20))
    assert signature.state_signature is original
    names = {span.name for span in tracer.spans}
    assert {"signature", "transitions.apply", "cost.recost"} <= names
    count = len(tracer.spans)
    optimize(workflow, "hs", budget=SearchBudget(max_states=20))
    assert len(tracer.spans) == count


# -- correctness checks reject tampered outputs ---------------------------------------


@pytest.fixture(scope="module")
def searched():
    workload = generate_workload("small", 0)
    result = optimize(workload.workflow, "hs", budget=SearchBudget(max_states=400))
    assert result.lineage, "the fixture needs a plan that differs from S0"
    return workload, result


def test_lineage_check_accepts_a_true_reply(searched):
    workload, result = searched
    document = workflow_to_dict(workload.workflow)
    assert checks.check_lineage(document, result_to_dict(result)) is None


@pytest.mark.parametrize("tamper", ["signature", "cost", "step"])
def test_lineage_check_rejects_a_tampered_reply(searched, tamper):
    workload, result = searched
    reply = result_to_dict(result)
    if tamper == "signature":
        reply["best_signature"] = reply["initial_signature"]
    elif tamper == "cost":
        reply["best_cost"] = reply["best_cost"] * 0.9
    else:
        reply["lineage"] = reply["lineage"][:-1]
    assert checks.check_lineage(workflow_to_dict(workload.workflow), reply)


def _reply_line(result: dict, served_from: str) -> bytes:
    return encode(
        {
            "id": 3,
            "ok": True,
            "served_from": served_from,
            "cache_hits": 1,
            "fingerprint": "f",
            "budget": {"max_states": 400},
            "latency_seconds": 0.001,
            "trace_id": "t",
            "result": result,
        }
    )


def test_memo_check_compares_result_bytes(searched):
    _, result = searched
    payload = result_to_dict(result)
    warm = checks.result_bytes(_reply_line(payload, "search"))
    assert warm == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert checks.check_memo_reply(_reply_line(payload, "memo"), warm) is None
    tampered = dict(payload, best_cost=payload["best_cost"] + 1e-9)
    assert checks.check_memo_reply(_reply_line(tampered, "memo"), warm)
    assert checks.check_memo_reply(_reply_line(payload, "search"), warm)


@pytest.fixture(scope="module")
def loaded(searched):
    workload, result = searched
    data = workload.make_data(0, 400)
    reference = checks.target_multisets(
        Executor(workload.context)
        .run(workload.workflow, data, budget=ExecutionBudget())
        .targets
    )
    chosen = Executor(workload.context).run(result.best.workflow, data).targets
    streamed = (
        Executor(workload.context)
        .run(result.best.workflow, data, budget=ExecutionBudget(batch_size=64))
        .targets
    )
    return reference, chosen, streamed


def _tampered(targets: dict, how: str) -> dict:
    name, rows = next((n, r) for n, r in targets.items() if len(r) > 1)
    rows = [dict(row) for row in rows]
    if how == "value":
        key = next(k for k, v in rows[0].items() if isinstance(v, float))
        rows[0][key] += 1.0
    elif how == "drop":
        rows = rows[1:]
    else:  # order
        rows = rows[::-1]
    return {**targets, name: rows}


def test_target_check_accepts_the_chosen_plan(loaded):
    reference, chosen, _ = loaded
    assert checks.check_targets(chosen, reference) is None


@pytest.mark.parametrize("how", ["value", "drop"])
def test_target_check_rejects_a_tampered_target(loaded, how):
    reference, chosen, _ = loaded
    assert checks.check_targets(_tampered(chosen, how), reference)


def test_stream_check_accepts_identical_targets(loaded):
    _, chosen, streamed = loaded
    assert checks.check_stream_targets(streamed, chosen) is None


@pytest.mark.parametrize("how", ["value", "drop", "order"])
def test_stream_check_rejects_a_tampered_target(loaded, how):
    _, chosen, streamed = loaded
    assert checks.check_stream_targets(_tampered(streamed, how), chosen)


# -- the declared metrics --------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    workloads = [entry["name"] for entry in spec["workloads"]]
    assert workloads == list(WORKLOADS)
    assert [e["name"] for e in spec["end_to_end"]] == list(metrics.END_TO_END)
    for meanings in metrics.END_TO_END.values():
        assert sorted(meanings) == sorted(workloads)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    ]
    assert all(e["bound"] <= 0.25 for e in spec["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
