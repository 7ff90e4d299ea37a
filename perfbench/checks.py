"""Correctness checks on the outputs the benchmark observes.

Each check returns ``None`` when the output is right and a one-line
description of the problem when it is wrong; the run collects every
problem and fails when there is one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.engine import as_multiset
from repro.io.json_io import workflow_from_dict
from repro.obs.provenance import replay_lineage

__all__ = [
    "check_lineage",
    "result_bytes",
    "check_memo_reply",
    "target_multisets",
    "check_targets",
    "check_stream_targets",
]

_RESULT_OPEN = b'"result":'
_RESULT_CLOSE = b',"served_from":'


def check_lineage(workflow_doc: dict[str, Any], result: dict[str, Any]) -> str | None:
    """The reply's lineage replays from the submitted workflow to the
    reported best state and best cost."""
    try:
        replay = replay_lineage(workflow_from_dict(workflow_doc), result["lineage"])
    except Exception as exc:  # a corrupt lineage may fail anywhere
        return f"lineage does not replay: {type(exc).__name__}: {exc}"
    if replay.signature != result["best_signature"]:
        return "lineage replay ends at a different state than best_signature"
    best = float(result["best_cost"])
    if abs(replay.cost - best) > 1e-6 * max(abs(best), abs(replay.cost), 1.0):
        return f"lineage replay cost {replay.cost!r} != best_cost {best!r}"
    return None


def result_bytes(line: bytes) -> bytes | None:
    """The encoded ``result`` object inside one reply line.

    Replies are compact JSON with sorted keys, so the top-level
    ``"result":`` is the first occurrence and ``served_from`` follows it.
    ``None`` when the line has no such span.
    """
    start = line.find(_RESULT_OPEN)
    end = line.rfind(_RESULT_CLOSE)
    if start < 0 or end < start:
        return None
    return line[start + len(_RESULT_OPEN) : end]


def check_memo_reply(line: bytes, warm: bytes) -> str | None:
    """A memo hit's ``result`` is byte-identical to the warm-up reply's."""
    if b'"served_from":"memo"' not in line:
        return "reply was not served from the memo"
    if result_bytes(line) != warm:
        return "memo reply result differs from the warm-up reply"
    return None


def target_multisets(targets: dict[str, list[dict]]) -> dict[str, Counter]:
    return {name: as_multiset(rows) for name, rows in targets.items()}


def check_targets(
    targets: dict[str, list[dict]], reference: dict[str, Counter]
) -> str | None:
    """The chosen plan loads the same target multisets as the initial
    workflow (the paper's equivalence: same input, same output)."""
    if set(targets) != set(reference):
        return f"target names {sorted(targets)} != {sorted(reference)}"
    for name, rows in targets.items():
        if as_multiset(rows) != reference[name]:
            return f"target {name!r} differs from the initial workflow's"
    return None


def check_stream_targets(
    streamed: dict[str, list[dict]], default: dict[str, list[dict]]
) -> str | None:
    """Streaming loads exactly the default executor's target rows, in order."""
    if set(streamed) != set(default):
        return f"streamed targets {sorted(streamed)} != {sorted(default)}"
    for name, rows in streamed.items():
        if rows != default[name]:
            return f"streamed target {name!r} differs from the default run"
    return None
