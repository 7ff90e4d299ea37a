"""The unified SearchBudget surface: the one spelling of every stopping
criterion, accepted by every algorithm."""

from __future__ import annotations

import os
import warnings

import pytest

from repro import (
    HSConfig,
    ReproError,
    SearchBudget,
    annealing_search,
    exhaustive_search,
    optimize,
)
from repro.workloads import fig1_workflow


class TestSearchBudget:
    def test_defaults(self):
        budget = SearchBudget()
        assert budget.max_states is None
        assert budget.max_seconds is None
        assert budget.jobs == 1
        assert budget.cache is None

    def test_validation(self):
        with pytest.raises(ReproError):
            SearchBudget(max_states=0)
        with pytest.raises(ReproError):
            SearchBudget(max_seconds=-1.0)

    def test_resolved_jobs(self):
        assert SearchBudget(jobs=3).resolved_jobs() == 3
        assert SearchBudget(jobs=0).resolved_jobs() == (os.cpu_count() or 1)
        assert SearchBudget(jobs=-1).resolved_jobs() == (os.cpu_count() or 1)


class TestBudgetAcceptedEverywhere:
    @pytest.mark.parametrize("algorithm", ["es", "hs", "greedy", "sa"])
    def test_all_four_algorithms_take_budget(self, algorithm):
        result = optimize(
            fig1_workflow().workflow,
            algorithm=algorithm,
            budget=SearchBudget(max_states=40),
        )
        assert result.visited_states <= 40
        assert result.jobs == 1
        assert result.cache_hits >= 0
        assert result.best.cost <= result.initial.cost

    def test_budget_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize(
                fig1_workflow().workflow,
                algorithm="es",
                budget=SearchBudget(max_states=10),
            )
            # HSConfig is an ordinary HS/greedy option, like seed=/steps=
            # for SA: it passes through optimize() without a warning.
            result = optimize(
                fig1_workflow().workflow,
                algorithm="hs",
                config=HSConfig(group_cap=16),
            )
        assert result.algorithm == "HS"
        assert result.best.cost <= result.initial.cost

    def test_budget_plus_legacy_kwarg_is_an_error(self):
        # Stopping criteria have one spelling: a per-algorithm keyword is
        # rejected by Python itself, with or without a budget alongside.
        workflow = fig1_workflow().workflow
        with pytest.raises(TypeError):
            optimize(
                workflow,
                algorithm="es",
                budget=SearchBudget(max_states=10),
                max_states=10,
            )
        with pytest.raises(TypeError):
            optimize(workflow, "es", max_states=3)
        with pytest.raises(TypeError):
            optimize(workflow, "hs", max_seconds=0.0)
        with pytest.raises(TypeError):
            exhaustive_search(workflow, max_seconds=0.0)
        with pytest.raises(TypeError):
            annealing_search(workflow, max_seconds=0.0)
        with pytest.raises(TypeError):
            HSConfig(max_seconds=0.0)


class TestUniformResultFields:
    @pytest.mark.parametrize("algorithm", ["es", "hs", "greedy", "sa"])
    def test_every_algorithm_populates_the_same_fields(self, algorithm):
        result = optimize(fig1_workflow().workflow, algorithm=algorithm)
        assert result.visited_states > 0
        assert result.elapsed_seconds >= 0.0
        assert not hasattr(result, "visited")
        assert not hasattr(result, "elapsed")
        assert result.completed is True
        assert result.jobs == 1
        assert result.cache_hits == 0
        summary = result.summary()
        assert "jobs=1" in summary
        assert "cache hits=0" in summary
        assert "%" in summary
