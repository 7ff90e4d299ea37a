"""ES — the Exhaustive Search algorithm (section 4.2).

ES formalizes the state space as a graph whose nodes are states and whose
edges are transitions, and explores it breadth-first: while unvisited
states remain, pick one, generate its children, and finally return the
cheapest visited state.  The space is finite (signature-identified states,
finitely many transitions), so ES terminates — eventually.  The paper let
it run for up to 40 hours and still reports "did not terminate" for medium
and large workflows; our implementation honours the ``max_states`` /
``max_seconds`` of a :class:`~repro.core.search.budget.SearchBudget` and
reports ``completed=False`` with the best state found when a budget
trips, mirroring that methodology.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.search.bound import (
    bound_prunes,
    dominance_class,
    mobile_root_ids,
    state_lower_bound,
)
from repro.core.search.budget import SearchBudget
from repro.core.search.result import OptimizationResult
from repro.core.search.state import SearchState
from repro.core.search.transposition import TranspositionCache
from repro.core.signature import state_signature
from repro.core.transitions.enumerate import candidate_transitions
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs import get_recorder, record_transition, rejection_reason

__all__ = ["exhaustive_search"]


def exhaustive_search(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    strategy: str = "best_first",
    budget: SearchBudget | None = None,
    pool=None,
) -> OptimizationResult:
    """Explore the full state space (subject to budgets) and return the best.

    The paper's ES keeps a set of unvisited states and "picks an unvisited
    state" without fixing an order; run to completion any order explores
    the same (finite) space.  Under a budget the order matters, so two
    strategies are offered: ``"best_first"`` (default — expand the
    cheapest known state next, which makes budget-truncated runs report a
    meaningful best-so-far, the paper's medium/large methodology) and
    ``"breadth_first"`` (plain FIFO).

    Args:
        workflow: the initial state ``S0``.
        model: cost model; defaults to the paper's processed-rows model.
        strategy: ``"best_first"`` or ``"breadth_first"``.
        budget: uniform :class:`SearchBudget`; with ``jobs != 1`` the
            best-first frontier expands in parallel waves (see
            :func:`~repro.core.search.parallel.parallel_exhaustive`;
            breadth-first stays serial).  ``budget.cache`` memoizes state
            costs so warm re-runs skip re-costing.
        pool: optional shared worker pool (see
            :func:`~repro.core.search.parallel.optimize_many`).

    Returns:
        An :class:`OptimizationResult` whose ``completed`` flag records
        whether the space was exhausted within budget.
    """
    if strategy not in ("best_first", "breadth_first"):
        raise ReproError(f"unknown ES strategy {strategy!r}")
    model = model if model is not None else ProcessedRowsCostModel()
    budget = budget if budget is not None else SearchBudget()

    if budget.resolved_jobs() > 1 and strategy == "best_first":
        from repro.core.search.parallel import parallel_exhaustive

        return parallel_exhaustive(workflow, model, budget, pool=pool)

    cache, owned_cache = TranspositionCache.resolve(budget.cache)
    hits_before = cache.hits
    started = time.perf_counter()
    try:
        initial = SearchState.initial(workflow, model)
        ns = cache.namespace(initial.workflow, model)
        ns.put_cost(initial.signature, initial.cost)

        seen: set[str] = {initial.signature}
        # Pruning modes (both default off, leaving the classic traversal
        # untouched): dominance keeps per-class incumbents, B&B skips
        # expanding states whose admissible lower bound the incumbent
        # best already meets.  Pruned states still count as visited.
        class_best: dict[str, float] | None = None
        if budget.prune_dominated:
            class_best = {dominance_class(initial.workflow): initial.cost}
        mobile = mobile_root_ids(initial.workflow) if budget.bound else None
        pruned_dominated = 0
        bnb_cutoffs = 0
        best_first = strategy == "best_first"
        heap: list[tuple[float, str, SearchState]] = []
        fifo: deque[SearchState] = deque()
        if best_first:
            heap.append((initial.cost, initial.signature, initial))
        else:
            fifo.append(initial)
        best = initial
        completed = True

        while heap or fifo:
            if budget.max_states is not None and len(seen) >= budget.max_states:
                completed = False
                break
            if (
                budget.max_seconds is not None
                and time.perf_counter() - started > budget.max_seconds
            ):
                completed = False
                break
            if best_first:
                _, _, state = heapq.heappop(heap)
            else:
                state = fifo.popleft()
            if mobile is not None and bound_prunes(
                state_lower_bound(state, model, mobile), best.cost
            ):
                bnb_cutoffs += 1
                continue
            for transition in candidate_transitions(state.workflow):
                successor_workflow = transition.try_apply_fast(state.workflow)
                if successor_workflow is None:
                    record_transition(
                        algorithm="ES",
                        transition=transition,
                        cost_before=state.cost,
                        accepted=False,
                        reason=rejection_reason(transition, state.workflow),
                    )
                    continue
                # Signature-first dedup: re-derived states are skipped
                # before any costing work happens.
                signature = state_signature(successor_workflow)
                if signature in seen:
                    record_transition(
                        algorithm="ES",
                        transition=transition,
                        cost_before=state.cost,
                        accepted=False,
                        reason="duplicate state (signature already visited)",
                        counter_outcome="duplicate",
                    )
                    continue
                seen.add(signature)
                successor = ns.successor(
                    state, transition, successor_workflow, model, signature
                )
                record_transition(
                    algorithm="ES",
                    transition=transition,
                    cost_before=state.cost,
                    cost_after=successor.cost,
                    accepted=True,
                )
                if successor.cost < best.cost:
                    best = successor
                if class_best is not None:
                    cls = dominance_class(successor.workflow)
                    prior = class_best.get(cls)
                    if prior is not None and prior <= successor.cost:
                        # Counted as visited, compared against best, but
                        # never expanded — a cheaper same-class state is
                        # already on (or through) the frontier.
                        pruned_dominated += 1
                        continue
                    class_best[cls] = successor.cost
                if best_first:
                    heapq.heappush(
                        heap, (successor.cost, successor.signature, successor)
                    )
                else:
                    fifo.append(successor)
                if (
                    budget.max_states is not None
                    and len(seen) >= budget.max_states
                ):
                    completed = False
                    break

        recorder = get_recorder()
        if recorder.active:
            if pruned_dominated:
                recorder.counter("search.pruned_dominated").add(
                    pruned_dominated
                )
            if bnb_cutoffs:
                recorder.counter("search.bnb_cutoffs").add(bnb_cutoffs)
        return OptimizationResult(
            algorithm="ES",
            initial=initial,
            best=best,
            visited_states=len(seen),
            elapsed_seconds=time.perf_counter() - started,
            completed=completed,
            cache_hits=cache.hits - hits_before,
            jobs=1,
            lineage=best.lineage,
        )
    finally:
        if owned_cache:
            cache.flush()
