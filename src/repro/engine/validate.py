"""Empirical workflow equivalence: same input data, same target multisets.

This grounds the paper's equivalence definition ("based on the same input
produce the same output") in actual execution, complementing the symbolic
post-condition check of :mod:`repro.core.equivalence`.  The property-based
test suite drives every transition through this check.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.workflow import ETLWorkflow
from repro.engine.executor import Executor
from repro.engine.rows import Row, as_multiset

__all__ = ["RunEquivalenceReport", "empirically_equivalent"]


@dataclass(frozen=True)
class RunEquivalenceReport:
    """Outcome of running two workflows on the same data."""

    equivalent: bool
    #: target name -> (rows only produced by the first, only by the second)
    differences: dict[str, tuple[Counter, Counter]]

    def __bool__(self) -> bool:
        return self.equivalent


def empirically_equivalent(
    first: ETLWorkflow,
    second: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    executor: Executor | None = None,
) -> RunEquivalenceReport:
    """Run both workflows on ``source_data`` and compare target multisets."""
    executor = executor if executor is not None else Executor()
    result_first = executor.run(first, source_data)
    result_second = executor.run(second, source_data)

    differences: dict[str, tuple[Counter, Counter]] = {}
    target_names = set(result_first.targets) | set(result_second.targets)
    for name in sorted(target_names):
        bag_first = as_multiset(result_first.targets.get(name, []))
        bag_second = as_multiset(result_second.targets.get(name, []))
        if bag_first != bag_second:
            differences[name] = (bag_first - bag_second, bag_second - bag_first)
    return RunEquivalenceReport(
        equivalent=not differences, differences=differences
    )

