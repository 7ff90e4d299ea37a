"""Lineage replay with hostile node ids.

The bugfix contract: :class:`LineageStep` carries its bound node ids
structurally as ``(mnemonic, targets)``, so :func:`replay_lineage`
rebinds transitions exactly even when ids contain the description
syntax's own delimiters (``,``/``(``/``)``).  Replay never parses the
description: a raw string, or a step without ``targets``, is rejected
with an error naming the step.
"""

from __future__ import annotations

import re

import pytest

from repro.core.activity import Activity
from repro.core.cost.model import ProcessedRowsCostModel
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.search.state import SearchState
from repro.core.transitions import Swap
from repro.core.transitions.enumerate import candidate_transitions
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs import replay_lineage
from repro.templates import builtin as t

#: Ids deliberately built from the describe() syntax's delimiters.
HOSTILE_FIRST = "σ(V2, >=40)"
HOSTILE_SECOND = "nn,(V1)"


def _filter_chain(first_id: str, second_id: str) -> ETLWorkflow:
    """source -> selection -> not_null -> target; the adjacent filter
    pair admits a SWA whose description embeds both ids verbatim."""
    schema = Schema(["KEY", "V1", "V2"])
    wf = ETLWorkflow()
    src = wf.add_node(
        RecordSet("src", "SRC", schema, RecordSetKind.SOURCE, 100)
    )
    first = wf.add_node(
        Activity(
            first_id,
            t.SELECTION,
            {"attr": "V2", "op": ">=", "value": 40.0},
            selectivity=0.6,
        )
    )
    second = wf.add_node(
        Activity(
            second_id, t.NOT_NULL, {"attr": "V1"}, selectivity=0.95
        )
    )
    dw = wf.add_node(RecordSet("dw", "DW", schema, RecordSetKind.TARGET))
    wf.add_edge(src, first)
    wf.add_edge(first, second)
    wf.add_edge(second, dw)
    return wf


def _swap_state(wf: ETLWorkflow):
    model = ProcessedRowsCostModel()
    initial = SearchState.initial(wf, model)
    swaps = [
        transition
        for transition in candidate_transitions(initial.workflow)
        if isinstance(transition, Swap)
    ]
    assert swaps, "adjacent filter pair must admit a swap"
    state = initial.try_successor(swaps[0], model)
    assert state is not None
    return initial, state


class TestStructuredReplay:
    def test_hostile_ids_replay_exactly(self):
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        assert all(step.targets for step in state.lineage)
        replay = replay_lineage(initial.workflow, state.lineage)
        assert replay.signature == state.signature
        assert replay.cost == pytest.approx(state.cost)

    def test_hostile_ids_survive_dict_round_trip(self):
        # Serialized steps (to_dict) keep the structured payload, so a
        # lineage loaded back from JSON replays without parsing.
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        dicts = [step.to_dict() for step in state.lineage]
        assert all(dict_step["targets"] for dict_step in dicts)
        replay = replay_lineage(initial.workflow, dicts)
        assert replay.signature == state.signature


class TestUnstructuredRejected:
    def test_raw_string_rejected(self):
        initial, state = _swap_state(_filter_chain("5", "6"))
        raw = [step.transition for step in state.lineage]
        assert raw == ["SWA(5,6)"]
        with pytest.raises(ReproError, match=r"SWA\(5,6\)"):
            replay_lineage(initial.workflow, raw)

    def test_dict_without_targets_rejected(self):
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        dicts = [step.to_dict() for step in state.lineage]
        for dict_step in dicts:
            del dict_step["targets"]
        named = re.escape(dicts[0]["transition"])
        with pytest.raises(ReproError, match=named):
            replay_lineage(initial.workflow, dicts)
