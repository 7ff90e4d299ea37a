"""Optimization results and search statistics.

The paper's experiments report three measures per run (Table 2): the
volume of visited states, the improvement over the initial state's cost,
and execution time — plus the quality of the solution relative to the best
known state (Table 1).  :class:`OptimizationResult` carries everything
needed to reproduce those tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.search.state import LineageStep, SearchState

__all__ = ["OptimizationResult"]

#: Canonical mnemonic order for transition-mix reporting (the paper's).
_MNEMONIC_ORDER = ("SWA", "FAC", "DIS", "MER", "SPL")


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run over one initial workflow."""

    algorithm: str
    initial: SearchState
    best: SearchState
    visited_states: int
    elapsed_seconds: float
    #: False when a budgeted search stopped before exhausting the space
    #: — the paper's "the algorithm did not terminate" footnote.
    completed: bool = True
    #: Transposition-cache hits during this run (0 on a cold run-local cache).
    cache_hits: int = 0
    #: Worker processes the run actually used (1 = serial path).
    jobs: int = 1
    #: The winning chain of transitions from ``initial`` to ``best`` —
    #: replayable through the transition system (see
    #: :func:`repro.obs.provenance.replay_lineage`).
    lineage: tuple[LineageStep, ...] = field(default=())

    @property
    def initial_cost(self) -> float:
        return self.initial.cost

    @property
    def best_cost(self) -> float:
        return self.best.cost

    @property
    def improvement_percent(self) -> float:
        """Cost improvement over the initial state, in percent (Table 2)."""
        if self.initial.cost == 0:
            return 0.0
        return 100.0 * (self.initial.cost - self.best.cost) / self.initial.cost

    def quality_percent(self, reference_cost: float) -> float:
        """Quality of solution vs a reference optimum (Table 1).

        100 means this run matched the reference cost; lower values mean
        the found state is costlier.  Computed as ``reference / found`` so
        a run that reaches half-way to the reference scores 50.
        """
        if self.best.cost == 0:
            return 100.0
        return min(100.0, 100.0 * reference_cost / self.best.cost)

    def transition_mix(self) -> dict[str, int]:
        """Counts of applied transitions in the winning lineage, by mnemonic.

        Keys follow the paper's order (SWA, FAC, DIS, MER, SPL); only
        mnemonics that actually occur are present.
        """
        counts = Counter(step.mnemonic for step in self.lineage)
        ordered = {m: counts.pop(m) for m in _MNEMONIC_ORDER if m in counts}
        ordered.update(sorted(counts.items()))  # future/unknown mnemonics
        return ordered

    def lineage_dicts(self) -> list[dict[str, object]]:
        """The lineage as JSON-able dicts (for artifacts and reports)."""
        return [step.to_dict() for step in self.lineage]

    def summary(self) -> str:
        """Human-readable report, uniform across algorithms.

        The first line carries the cost/volume/time measures of the
        paper's tables; the second attributes the win to its transition
        mix — the sequence provenance the paper discusses but never
        reports.
        """
        status = "" if self.completed else " (budget exhausted)"
        mix = self.transition_mix()
        mix_text = (
            ", ".join(f"{m}:{count}" for m, count in mix.items())
            if mix
            else "none (initial state is optimal)"
        )
        return (
            f"{self.algorithm}: cost {self.initial.cost:.0f} -> "
            f"{self.best.cost:.0f} ({self.improvement_percent:.1f}% better), "
            f"{self.visited_states} states visited in "
            f"{self.elapsed_seconds:.2f}s "
            f"[jobs={self.jobs}, cache hits={self.cache_hits}]{status}\n"
            f"lineage: {len(self.lineage)} step(s), transition mix: {mix_text}"
        )
