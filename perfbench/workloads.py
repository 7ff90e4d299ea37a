"""The four workloads of the request -> plan -> load benchmark.

Every workload is closed-loop: a client sends its next request only after
the previous one was answered, because an ETL scheduler waits for its
plan before loading.  Workflows come from ``generate_workload(category,
seed)`` and warehouse data from ``make_data(seed, n)``.

* ``cold_plan`` — one client sends a pool of distinct ``small``
  workflows to a ``repro serve --workers 1`` daemon: every request is a
  cold search (memo and transposition miss).
* ``memo_hit`` — two clients re-request a warm set of ``small`` and
  ``large`` workflows; an untimed warm-up pass fills the memo, so every
  timed request is a memo hit.
* ``plan_and_load`` — each workflow of a fixed plan mix is requested cold
  and the returned plan is loaded by the default
  ``Executor(context).run(plan, data)``.  The same plans also run under
  ``ExecutionBudget`` streaming, outside the timed loads: checked
  against the default targets, and traced for the streaming layers.

The workflow pools and their order are fixed: a run holds only tens of
searches or a handful of loads, and one workflow's search time varies by
about half the mean between generated workflows (and by up to 2x with
its position in a daemon's life), so a pool drawn from ``--seed`` moved a
run's median by 15-25 % from seed to seed.  ``--seed`` draws the
warehouse data of the load workloads.  The cold workloads send the whole
pool in passes, each pass to a fresh daemon, so every request stays cold
and every run measures the same traffic.

Each workload has ``setup``/``teardown``, ``measure(seconds)`` (the
untraced run) and ``trace()`` (the per-layer replay).
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.engine import ExecutionBudget, Executor, TracingExecutor, iter_components
from repro.io.json_io import workflow_from_dict, workflow_to_dict
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.protocol import encode
from repro.templates.base import ActivityKind
from repro.workloads import generate_workload

import checks
import stats
from daemon import Daemon, LineClient, proc_status_kb
from layers import IDLE_ENGINE, Load, engine_metrics, layer_metrics, with_search_totals
from tracer import Hooks, Tracer

__all__ = ["WORKLOADS", "Measurement"]

#: Search budget of every planned request.  Cold HS on an unbounded
#: ``small`` workflow takes 0.4-2 s; 400 states keep a served request
#: near 0.3 s while HS still improves most workflows (geometric mean of
#: best/initial cost about 0.6).
PLAN_BUDGET = {"max_states": 400}
#: ``small`` workload seeds 0..COLD_POOL-1 form the cold_plan pool.
COLD_POOL = 12
#: The memo-hit warm set; only the warm-up pays for its budget.
WARM_BUDGET = {"max_states": 150}
WARM_SMALL = 8
WARM_LARGE = 1
HIT_TRACE_REQUESTS = 300
#: memo_hit's repetition unit for best-of-N: one window of hits.
HIT_WINDOW = 1.0
#: Rows per source table of the load workloads: a ``small`` workflow
#: reads two or three sources, so one load reads 100-150k source rows
#: and a run loads well over 1M.
ROWS_PER_SOURCE = 50_000
#: The streamed loads' resident-row ceiling, past which spillable
#: buffers go to disk.
STREAM_MAX_RESIDENT = 2000


@dataclass
class Request:
    index: int
    document: dict[str, Any]
    line: bytes
    workload: Any  # GeneratedWorkload


@dataclass
class Measurement:
    """What one untraced run observed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: the issue's end-to-end metric names: name -> (value, unit, note)
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: the metrics of the result line: name -> value
    e2e: dict[str, float] = field(default_factory=dict)
    #: properties of the traffic the run saw: name -> value
    traffic: dict[str, float] = field(default_factory=dict)


def _request(index: int, workload: Any, budget: dict) -> Request:
    document = workflow_to_dict(workload.workflow)
    line = encode(
        {
            "op": "optimize",
            "id": index,
            "workflow": document,
            "algorithm": "hs",
            "budget": budget,
        }
    )
    return Request(index, document, line, workload)


@contextlib.contextmanager
def _stopped_on_error(daemon: Daemon):
    """Stop ``daemon`` if the block fails, so no process outlives the run."""
    try:
        yield
    except BaseException:
        daemon.stop()
        raise


def _cache_counts(daemon: Daemon) -> Counter:
    """The daemon's memo and transposition-cache hits and misses."""
    client = daemon.client()
    try:
        stats_reply = client.call("stats")
    finally:
        client.close()
    return Counter(
        {
            f"{section}_{outcome}": stats_reply[section][outcome]
            for section in ("memo", "transposition")
            for outcome in ("hits", "misses")
        }
    )


def _hit_shares(counts: Counter) -> dict[str, float]:
    """Memo-hit and transposition-hit shares of the traffic a run saw."""
    return {
        f"{section}_hit_share": counts[f"{section}_hits"]
        / max(1, counts[f"{section}_hits"] + counts[f"{section}_misses"])
        for section in ("memo", "transposition")
    }


def _has_aggregation(workflow) -> bool:
    return any(
        component.kind is ActivityKind.AGGREGATION
        for activity in workflow.activities()
        for component in iter_components(activity)
    )


def _cost_ratio(result: dict) -> float:
    return result["best_cost"] / result["initial_cost"]


def _share(flags) -> float:
    values = list(flags)
    return sum(values) / len(values) if values else 0.0


def _best_note(by_op: dict) -> str:
    passes = min(len(samples) for samples in by_op.values())
    return f"median over {len(by_op)} operations of each one's best of >={passes}"


def _own_hwm_mb() -> float:
    return proc_status_kb(os.getpid(), "VmHWM") / 1024.0


def _latency_metrics(named: dict, prefix: str, samples: list[float]) -> None:
    """The median, and the highest tail with enough samples beyond it."""
    named[f"{prefix}_p50"] = (1000.0 * stats.median(samples), "ms", f"n={len(samples)}")
    found = stats.tail(samples)
    if found is None:
        named[f"{prefix}_tail"] = (
            float("nan"),
            "ms",
            f"not reported: n={len(samples)} leaves fewer than "
            f"{stats.MIN_BEYOND} samples beyond p75",
        )
        return
    pct, value = found
    beyond = stats.samples_beyond(len(samples), pct)
    named[f"{prefix}_p{pct:g}"] = (1000.0 * value, "ms", f"n={len(samples)}, {beyond} beyond")


def load_catalogue() -> list[Any]:
    """The fixed plan mix of ``plan_and_load``.

    The first ``small`` workload seeds, from 0, that fill each cell of
    (two or three sources) x (with or without an aggregation): plans with
    an aggregation stream several times slower than plans without, and a
    three-source plan reads half as many rows again as a two-source one.
    """
    cells: dict[tuple[int, bool], Any] = {}
    seed = 0
    while len(cells) < 4:
        workload = generate_workload("small", seed)
        key = (len(workload.source_names), _has_aggregation(workload.workflow))
        cells.setdefault(key, workload)
        seed += 1
    return [cells[key] for key in sorted(cells)]


def _subset(data: dict[str, list[dict]], workload: Any) -> dict[str, list[dict]]:
    return {name: data[name] for name in workload.source_names}


def _rows(data: dict[str, list[dict]]) -> int:
    return sum(len(rows) for rows in data.values())


# -- untraced and traced passes ------------------------------------------------------


def _serve_pass(daemon: Daemon, lines: list[bytes]) -> tuple[list[dict], dict[str, float]]:
    """Send ``lines`` one by one to the external daemon, untraced.

    Returns the replies and the serve metrics that need a real daemon
    process: client latency minus the reply's search time, RSS growth per
    request after the first, and this pass's memo and transposition hit
    ratios from the ``stats`` op.
    """
    client = daemon.client()
    try:
        before = client.call("stats")
        replies, overheads = [], []
        rss_start = None
        for line in lines:
            raw, latency = client.roundtrip(line)
            reply = json.loads(raw)
            replies.append(reply)
            searched = reply.get("served_from") == "search"
            overheads.append(latency - (reply["result"]["elapsed_seconds"] if searched else 0.0))
            if rss_start is None:
                rss_start = daemon.status_kb("VmRSS")
        rss_end = daemon.status_kb("VmRSS")
        after = client.call("stats")
    finally:
        client.close()

    def ratio(section: str) -> float:
        hits = after[section]["hits"] - before[section]["hits"]
        misses = after[section]["misses"] - before[section]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return replies, {
        "serve.overhead_ms": 1000.0 * stats.median(overheads),
        "serve.rss_kb_per_request": (rss_end - rss_start) / max(1, len(lines) - 1),
        "serve.memo_hit_ratio": ratio("memo"),
        "search.transposition_hit_ratio": ratio("transposition"),
    }


def _paired_pass(
    lines: list[bytes],
    tracer: Tracer,
    on_reply: Callable[[int, bytes, Tracer | None], float] | None = None,
    warm: list[bytes] = (),
) -> tuple[list[float], list[float]]:
    """Replay ``lines`` through two in-process daemons, untraced then traced.

    Each request goes first to a daemon running the original code, then,
    with the layer wrappers installed, to a twin daemon; alternating per
    request keeps drift (heap growth, garbage collection) out of the
    traced-minus-untraced difference.  ``on_reply(index, raw, tracer)``
    continues a request after its reply (the load) and returns the
    seconds it took.  ``warm`` lines go to both daemons first, untraced.
    Returns the per-request seconds of each side.
    """
    config = ServeConfig(host="127.0.0.1", port=0, workers=1)
    hooks = Hooks(tracer)
    untraced: list[float] = []
    traced: list[float] = []
    with BackgroundServer(config) as plain, BackgroundServer(config) as hooked:
        clients = (LineClient(plain.address), LineClient(hooked.address))
        try:
            for line in warm:
                for client in clients:
                    client.roundtrip(line)
            for index, line in enumerate(lines):
                raw, seconds = clients[0].roundtrip(line)
                if on_reply is not None:
                    seconds += on_reply(index, raw, None)
                untraced.append(seconds)
                tracer.request = index
                with hooks:
                    raw, seconds = clients[1].roundtrip(line)
                    if on_reply is not None:
                        seconds += on_reply(index, raw, tracer)
                traced.append(seconds)
        finally:
            for client in clients:
                client.close()
    return untraced, traced


def _overhead_ms(untraced: list[float], traced: list[float]) -> float:
    """Median traced-minus-untraced seconds of paired requests, in ms."""
    return 1000.0 * stats.median([t - u for u, t in zip(untraced, traced)])


# -- workloads ------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.src = root / "src"

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def trace(self) -> tuple[dict[str, float], Tracer, int]:
        """Per-layer metrics, the spans, and the number of operations."""
        raise NotImplementedError


class _ColdPasses(Workload):
    """A fixed pool of workflows, each requested cold from a daemon.

    Every pass sends the whole pool, in the same order, to a fresh
    daemon, so every request is a cold search and every run measures the
    same traffic; passes repeat until ``seconds`` are up.  The order is
    fixed because a daemon slows as it serves distinct requests (its
    recorder keeps every request's events): the tenth request of a pass
    takes up to twice as long as the same request sent first.
    """

    def _pool(self) -> list[Any]:
        raise NotImplementedError

    def _prepare(self) -> None:
        """Set-up beyond the daemon and the requests."""

    def setup(self) -> None:
        # The daemon boots while the requests (and data) are made.
        self.daemon = Daemon(self.src, workers=1)
        with _stopped_on_error(self.daemon):
            self.requests = [
                _request(index, workload, PLAN_BUDGET)
                for index, workload in enumerate(self._pool())
            ]
            self._prepare()
            self.daemon.wait_ready()

    def teardown(self) -> None:
        self.daemon.stop()

    def _passes(
        self, seconds: float, step: Callable[[LineClient, Request], None]
    ) -> tuple[float, Counter]:
        """Run passes until ``seconds`` are up.

        Returns the daemons' peak RSS in MB and their summed cache
        counters (see :func:`_cache_counts`).
        """
        peak_kb = 0
        counts: Counter = Counter()
        deadline = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < deadline:
            if not first:
                peak_kb = max(peak_kb, self.daemon.status_kb("VmHWM"))
                counts += _cache_counts(self.daemon)
                self.daemon.stop()
                fresh = Daemon(self.src, workers=1)
                with _stopped_on_error(fresh):
                    self.daemon = fresh.wait_ready()
            first = False
            client = self.daemon.client()
            try:
                for request in self.requests:
                    step(client, request)
            finally:
                client.close()
        counts += _cache_counts(self.daemon)
        return max(peak_kb, self.daemon.status_kb("VmHWM")) / 1024.0, counts

    def _check_reply(self, out: Measurement, request: Request, reply: dict) -> dict | None:
        """The reply's result when it answered with a search; else counts it."""
        if not reply.get("ok"):
            out.failed += 1
            return None
        if reply.get("served_from") != "search":
            out.problems.append(f"workflow {request.index} was not a cold search")
        return reply["result"]


class ColdPlan(_ColdPasses):
    name = "cold_plan"

    def _pool(self) -> list[Any]:
        return [generate_workload("small", seed) for seed in range(COLD_POOL)]

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        latencies: list[float] = []
        by_op: dict[int, list[float]] = {}
        answered: list[tuple[Request, dict]] = []

        def step(client: LineClient, request: Request) -> None:
            out.attempted += 1
            raw, latency = client.roundtrip(request.line)
            result = self._check_reply(out, request, json.loads(raw))
            if result is not None:
                latencies.append(latency)
                by_op.setdefault(request.index, []).append(latency)
                answered.append((request, result))

        daemon_mb, counts = self._passes(seconds, step)
        for request, result in answered:
            problem = checks.check_lineage(request.document, result)
            if problem:
                out.problems.append(f"workflow {request.index}: {problem}")
        ratio = stats.geomean([_cost_ratio(result) for _, result in answered])
        _latency_metrics(out.named, "plan_ms", latencies)
        best = 1000.0 * stats.best_of(by_op)
        out.named["plan_ms_best"] = (best, "ms", _best_note(by_op))
        out.named["plans_per_s"] = (len(latencies) / sum(latencies), "req/s", "1 client")
        out.named["plan_cost_ratio"] = (ratio, "ratio", "best/initial, geomean")
        out.named["daemon_rss_mb"] = (daemon_mb, "MB", "VmHWM, max over passes")
        out.e2e = {"best_op_ms": best, "rss_mb": daemon_mb}
        out.traffic = {
            **_hit_shares(counts),
            "blocking_plan_share": _share(
                _has_aggregation(r.workload.workflow) for r, _ in answered
            ),
        }
        return out

    def trace(self) -> tuple[dict[str, float], Tracer, int]:
        lines = [request.line for request in self.requests]
        replies, serve = _serve_pass(self.daemon, lines)
        tracer = Tracer()
        untraced, traced = _paired_pass(lines, tracer)
        layers = with_search_totals(layer_metrics(tracer, len(lines)), replies)
        layers.update(serve)
        layers.update(IDLE_ENGINE)
        layers["trace.overhead_ms"] = _overhead_ms(untraced, traced)
        layers["traffic.blocking_plan_share"] = _share(
            _has_aggregation(r.workload.workflow) for r in self.requests
        )
        return layers, tracer, len(lines)


class MemoHit(Workload):
    name = "memo_hit"

    def setup(self) -> None:
        self.daemon = Daemon(self.src, workers=1)
        with _stopped_on_error(self.daemon):
            pool = [generate_workload("small", seed) for seed in range(WARM_SMALL)]
            pool += [generate_workload("large", seed) for seed in range(WARM_LARGE)]
            self.warm = [_request(i, w, WARM_BUDGET) for i, w in enumerate(pool)]
            self.daemon.wait_ready()
            client = self.daemon.client()
            try:
                self.warm_replies = [client.roundtrip(r.line)[0] for r in self.warm]
            finally:
                client.close()
        self.warm_bytes = [checks.result_bytes(raw) for raw in self.warm_replies]
        self.warm_counts = _cache_counts(self.daemon)

    def teardown(self) -> None:
        self.daemon.stop()

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        ratios = []
        for request, raw in zip(self.warm, self.warm_replies):
            reply = json.loads(raw)
            if not reply.get("ok") or reply.get("served_from") != "search":
                out.problems.append(f"warm-up request {request.index} failed")
                continue
            result = reply["result"]
            problem = checks.check_lineage(request.document, result)
            if problem:
                out.problems.append(f"warm-up request {request.index}: {problem}")
            ratios.append(_cost_ratio(result))

        boxes = [
            {
                "latencies": [],
                "stamped": [],
                "attempted": 0,
                "failed": 0,
                "problems": [],
            }
            for _ in range(2)
        ]
        clients = [self.daemon.client() for _ in boxes]
        start = time.perf_counter()
        deadline = start + seconds

        def drive(slot: int) -> None:
            box, client = boxes[slot], clients[slot]
            step = slot * len(self.warm) // 2
            while time.perf_counter() < deadline:
                position = step % len(self.warm)
                step += 1
                box["attempted"] += 1
                raw, latency = client.roundtrip(self.warm[position].line)
                if b'"ok":true' not in raw:
                    box["failed"] += 1
                    continue
                box["latencies"].append(latency)
                box["stamped"].append((time.perf_counter(), latency))
                problem = checks.check_memo_reply(raw, self.warm_bytes[position])
                if problem:
                    box["problems"].append(f"warm request {position}: {problem}")
            box["end"] = time.perf_counter()

        threads = [threading.Thread(target=drive, args=(slot,)) for slot in (0, 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()
        window = max(box["end"] for box in boxes) - start
        latencies = [x for box in boxes for x in box["latencies"]]
        out.attempted = sum(box["attempted"] for box in boxes)
        out.failed = sum(box["failed"] for box in boxes)
        for box in boxes:
            out.problems.extend(box["problems"][:10])
        daemon_mb = self.daemon.status_kb("VmHWM") / 1024.0
        ratio = stats.geomean(ratios)
        _latency_metrics(out.named, "hit_ms", latencies)
        best = 1000.0 * stats.best_window_median(
            [x for box in boxes for x in box["stamped"]], HIT_WINDOW
        )
        out.named["hit_ms_best"] = (best, "ms", f"lowest median of {HIT_WINDOW:g} s windows")
        out.named["hits_per_s"] = (len(latencies) / window, "req/s", "2 clients")
        out.named["plan_cost_ratio"] = (ratio, "ratio", "the warm set")
        out.named["daemon_rss_mb"] = (daemon_mb, "MB", "VmHWM")
        out.e2e = {"best_op_ms": best, "rss_mb": daemon_mb}
        out.traffic = {
            **_hit_shares(_cache_counts(self.daemon) - self.warm_counts),
            "blocking_plan_share": _share(
                _has_aggregation(r.workload.workflow) for r in self.warm
            ),
        }
        return out

    def trace(self) -> tuple[dict[str, float], Tracer, int]:
        hits = [self.warm[i % len(self.warm)].line for i in range(HIT_TRACE_REQUESTS)]
        _, serve = _serve_pass(self.daemon, hits)
        tracer = Tracer()
        untraced, traced = _paired_pass(
            hits, tracer, warm=[request.line for request in self.warm]
        )
        layers = with_search_totals(layer_metrics(tracer, len(hits)), [])
        layers["search.plan_cost_ratio"] = stats.geomean(
            [_cost_ratio(json.loads(raw)["result"]) for raw in self.warm_replies]
        )
        layers.update(serve)
        layers.update(IDLE_ENGINE)
        layers["trace.overhead_ms"] = _overhead_ms(untraced, traced)
        layers["traffic.blocking_plan_share"] = _share(
            _has_aggregation(r.workload.workflow) for r in self.warm
        )
        return layers, tracer, len(hits)


class PlanAndLoad(_ColdPasses):
    name = "plan_and_load"

    def _pool(self) -> list[Any]:
        return load_catalogue()

    def _prepare(self) -> None:
        """Warehouse data, and each initial workflow's target multisets
        (streamed, so the reference does not share the default path)."""
        self.stream_budget = ExecutionBudget(
            max_resident_rows=STREAM_MAX_RESIDENT,
            spill_dir=str(self.root / ".perfbench_run" / "spill"),
        )
        # Every source table of the mix: make_data draws each table from
        # the seed and its position, so narrower workflows read a subset.
        widest = max(self.requests, key=lambda r: len(r.workload.source_names))
        self.data = widest.workload.make_data(self.seed, ROWS_PER_SOURCE)
        self.reference = [
            checks.target_multisets(
                Executor(r.workload.context)
                .run(r.workload.workflow, _subset(self.data, r.workload), budget=ExecutionBudget())
                .targets
            )
            for r in self.requests
        ]

    def teardown(self) -> None:
        super().teardown()
        self.data = self.reference = None
        gc.collect()

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        steps: list[dict[str, Any]] = []
        answered: list[tuple[Request, dict]] = []
        first: dict[int, dict] = {}
        plans: dict[int, Any] = {}

        def step(client: LineClient, request: Request) -> None:
            data = _subset(self.data, request.workload)
            out.attempted += 1
            gc.collect()  # each load starts from the same heap state
            started = time.perf_counter()
            raw, plan_seconds = client.roundtrip(request.line)
            result = self._check_reply(out, request, json.loads(raw))
            if result is None:
                return
            plan = workflow_from_dict(result["best_workflow"])
            loading = time.perf_counter()
            loaded = Executor(request.workload.context).run(plan, data)
            done = time.perf_counter()
            answered.append((request, result))
            # The full multiset check once per workflow; later passes must
            # load exactly the same rows.
            if request.index not in first:
                first[request.index] = loaded.targets
                plans[request.index] = plan
                problem = checks.check_targets(
                    loaded.targets, self.reference[request.index]
                )
            elif loaded.targets != first[request.index]:
                problem = "targets differ between passes"
            else:
                problem = None
            if problem:
                out.problems.append(f"workflow {request.index}: {problem}")
            steps.append(
                {
                    "op": request.index,
                    "e2e": done - started,
                    "plan": plan_seconds,
                    "load": done - loading,
                    "rows": _rows(data),
                    "ratio": _cost_ratio(result),
                    "blocking": _has_aggregation(plan),
                }
            )

        daemon_mb, counts = self._passes(seconds, step)
        load_mb = _own_hwm_mb()
        spilled = 0
        # Streaming must load exactly the default executor's rows.
        for request in self.requests:
            if request.index not in plans:
                continue
            streamed = Executor(request.workload.context).run(
                plans[request.index],
                _subset(self.data, request.workload),
                budget=self.stream_budget,
            )
            spilled += streamed.streaming.spilled_rows
            problem = checks.check_stream_targets(streamed.targets, first[request.index])
            if problem:
                out.problems.append(f"workflow {request.index}: {problem}")
        for request, result in answered:
            problem = checks.check_lineage(request.document, result)
            if problem:
                out.problems.append(f"workflow {request.index}: {problem}")
        e2e = [s["e2e"] for s in steps]
        rows = sum(s["rows"] for s in steps)
        ratio = stats.geomean([s["ratio"] for s in steps])
        out.named["plan_ms_p50"] = (
            1000.0 * stats.median([s["plan"] for s in steps]),
            "ms",
            f"n={len(steps)}",
        )
        by_op: dict[int, list[float]] = {}
        for s in steps:
            by_op.setdefault(s["op"], []).append(s["e2e"])
        best = 1000.0 * stats.best_of(by_op)
        out.named["plan_cost_ratio"] = (ratio, "ratio", "best/initial, geomean")
        out.named["e2e_s"] = (stats.median(e2e), "s", f"median of {len(e2e)}")
        out.named["e2e_s_best"] = (best / 1000.0, "s", _best_note(by_op))
        out.named["load_rows_per_s"] = (
            rows / sum(s["load"] for s in steps),
            "rows/s",
            f"{rows} source rows",
        )
        out.named["daemon_rss_mb"] = (daemon_mb, "MB", "VmHWM, max over passes")
        out.named["load_rss_mb"] = (load_mb, "MB", "VmHWM of the loading process")
        out.e2e = {"best_op_ms": best, "rss_mb": daemon_mb + load_mb}
        out.traffic = {
            **_hit_shares(counts),
            "blocking_plan_share": _share(s["blocking"] for s in steps),
            "source_rows": float(rows),
            "spilled_rows": float(spilled),
        }
        return out

    def trace(self) -> tuple[dict[str, float], Tracer, int]:
        requests = self.requests
        lines = [request.line for request in requests]
        replies, serve = _serve_pass(self.daemon, lines)
        loads: list[Load] = []

        def load(index: int, raw: bytes, tracer: Tracer | None) -> float:
            workload = requests[index].workload
            data = _subset(self.data, workload)
            plan = workflow_from_dict(json.loads(raw)["result"]["best_workflow"])
            started = time.perf_counter()
            if tracer is None:
                Executor(workload.context).run(plan, data)
                return time.perf_counter() - started
            executor = TracingExecutor(workload.context)
            with tracer.span("engine.run"):
                result = executor.run(plan, data)
            elapsed = time.perf_counter() - started
            loads.append(Load(plan, executor.last_trace, result, _rows(data)))
            return elapsed

        tracer = Tracer()
        untraced, traced = _paired_pass(lines, tracer, load)
        streamed = []
        for request, default in zip(requests, loads):
            executor = TracingExecutor(request.workload.context)
            data = _subset(self.data, request.workload)
            result = executor.run(default.plan, data, budget=self.stream_budget)
            streamed.append(Load(default.plan, executor.last_trace, result, _rows(data)))
        initial_rows = sum(
            Executor(r.workload.context)
            .run(r.workload.workflow, _subset(self.data, r.workload))
            .stats.total_rows_processed
            for r in requests
        )
        layers = with_search_totals(layer_metrics(tracer, len(lines)), replies)
        layers.update(serve)
        layers.update(engine_metrics(loads, streamed, initial_rows))
        layers["trace.overhead_ms"] = _overhead_ms(untraced, traced)
        layers["traffic.blocking_plan_share"] = _share(
            _has_aggregation(load.plan) for load in loads
        )
        return layers, tracer, len(lines)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdPlan, MemoHit, PlanAndLoad)
}
