"""The executor ``run()`` signatures and the public surface.

All three executors take ``(workflow, data)`` positionally and every
other argument by keyword (``budget=``, ``recorder=``, ...); a plain run
streams under the default budget.
"""

import pytest

from repro.engine import (
    CheckpointingExecutor,
    CheckpointStore,
    ExecutionBudget,
    Executor,
    TracingExecutor,
)
from repro.obs.telemetry import Recorder
from repro.workloads import generate_workload


@pytest.fixture
def tiny():
    workload = generate_workload("tiny", seed=7)
    return workload, workload.make_data(7, n=20)


def _executor(workload, cls=Executor):
    return cls(context=workload.context)


class TestKeywordShape:
    def test_all_executors_share_the_keyword_shape(self, tiny):
        workload, data = tiny
        budget = ExecutionBudget(batch_size=4)
        for cls in (Executor, TracingExecutor, CheckpointingExecutor):
            result = _executor(workload, cls).run(
                workload.workflow, data, check_schemas=True, budget=budget
            )
            assert result.targets

    def test_recorder_keyword_routes_telemetry(self, tiny):
        workload, data = tiny
        recorder = Recorder()
        _executor(workload, TracingExecutor).run(
            workload.workflow,
            data,
            budget=ExecutionBudget(batch_size=8),
            recorder=recorder,
        )
        names = {event.get("name") for event in recorder.events()}
        assert "engine.run" in names

    def test_recorder_keyword_on_checkpointing_run(self, tiny):
        workload, data = tiny
        recorder = Recorder()
        result = _executor(workload, CheckpointingExecutor).run(
            workload.workflow,
            data,
            checkpoints=CheckpointStore(),
            recorder=recorder,
        )
        assert result.targets

    def test_default_run_streams_unbounded(self, tiny):
        workload, data = tiny
        for cls in (Executor, TracingExecutor, CheckpointingExecutor):
            result = _executor(workload, cls).run(workload.workflow, data)
            assert result.streaming is not None
            assert result.streaming.batch_size == 4096
            assert result.streaming.max_resident_rows is None


class TestLegacyPositionalForms:
    """The historical positional ``run()`` forms are gone: arguments
    beyond ``(workflow, data)`` are keyword-only."""

    def test_too_many_positionals_raise(self, tiny):
        workload, data = tiny
        executor = _executor(workload)
        with pytest.raises(TypeError, match="positional"):
            executor.run(workload.workflow, data, True, False, None, "extra")


class TestPublicSurface:
    def test_all_names_resolve(self):
        import repro.engine as engine

        for name in engine.__all__:
            assert getattr(engine, name) is not None

    def test_core_api_names_present(self):
        import repro.engine as engine

        for name in (
            "Batch",
            "ExecutionBudget",
            "Executor",
            "ExecutionResult",
            "ExecutionStats",
            "TracingExecutor",
            "CheckpointingExecutor",
            "iter_batches",
            "rebatch",
        ):
            assert name in engine.__all__
