#!/usr/bin/env python3
"""One benchmark for the request -> plan -> load path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` replays the same inputs with
timing spans around each layer's entry points and reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Lines before it are a readable report: the run's stamp (CPUs, affinity,
Python, commit), the end-to-end metrics under their issue names, the
traffic the run actually saw, and any failed correctness check.  The full
result and the spans of a traced run are written under
``.perfbench_run/``.  The exit code is 0 when every output was correct,
1 when a check failed, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 3


def _stamp() -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so every daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # needs repro on sys.path

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    RUN_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    stamp = _stamp()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{key}={value}" for key, value in stamp.items())
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {"stamp": stamp, "workload": args.workload, "seed": args.seed}

    if args.trace == 0:
        setups = []
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        try:
            measured = workload.measure(args.seconds)
        finally:
            workload.teardown()
        values = dict(measured.e2e, setup_s=sorted(setups)[len(setups) // 2])
        declared = spec["end_to_end"]
        attempted, failed, problems = (
            measured.attempted,
            measured.failed,
            measured.problems,
        )
        named = dict(measured.named)
        named["error_rate"] = (failed / attempted, "ratio", f"{failed}/{attempted}")
        named["setup_s"] = (values["setup_s"], "s", f"median of {setups}")
        print("end-to-end (issue names):")
        for name, (value, unit, note) in named.items():
            print(f"  {name:<20} {_fmt(value):>12} {unit:<7} {note}")
        print("traffic:")
        for name, value in measured.traffic.items():
            print(f"  {name:<24} {_fmt(value):>12}")
        if "spilled_rows" in measured.traffic and not measured.traffic["spilled_rows"]:
            print("  (no plan spilled: spill stays unmeasured)")
        record.update(named={k: list(v) for k, v in named.items()}, traffic=measured.traffic)
    else:
        workload.setup()
        try:
            values, tracer, attempted = workload.trace()
        finally:
            workload.teardown()
        failed, problems = 0, []
        declared = spec["per_layer"]
        tracer.write_jsonl(RUN_DIR / f"spans-{tag}.jsonl")
        print(f"spans: {len(tracer.spans)} written to .perfbench_run/spans-{tag}.jsonl")

    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    print("result metrics:")
    for name, entry in metrics.items():
        print(f"  {name:<32} {_fmt(entry['value']):>12} {entry['unit']}")
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    correct = not problems
    record.update(correct=correct, problems=problems, metrics=metrics)
    (RUN_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
