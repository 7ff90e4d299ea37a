"""In-memory span tracing around the public entry points of each layer.

The traced run installs timing wrappers on the functions and methods
listed in :data:`LAYER_HOOKS`, replays a workload's inputs, and removes
the wrappers again.  Nothing under ``src/`` is edited: a wrapper replaces
the attribute on every loaded ``repro`` module (or class) that binds the
original object, so ``from x import f`` call sites are traced too.

Every wrapped call records one :class:`Span` — name, start, end, parent
span and request id.  Parents come from a per-thread stack, so a search
running on the daemon's worker thread nests under its own ``search``
span while the event-loop thread records the front-door spans.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "LAYER_HOOKS",
    "Span",
    "Tracer",
    "self_times",
    "Hooks",
]


class Span(NamedTuple):
    """One traced call.

    A tuple of plain values: the collector untracks such tuples, so a
    run's hundreds of thousands of spans do not slow garbage collection.
    ``note`` is one scalar a hook extracted from the call's result.
    """

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; the client sets the request id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        # next() on a count is atomic under the interpreter lock.
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(
        self,
        name: str,
        function: Callable[..., Any],
        args: tuple,
        kwargs: dict[str, Any],
        note: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        self.spans.append(
            Span(
                span_id,
                name,
                start,
                end,
                parent,
                self.request,
                note(result) if note is not None else None,
            )
        )
        return result

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.request))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so a child is never subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


# -- the layer hooks -----------------------------------------------------------------


def _applicable_note(result: Any) -> bool:
    return result is not None


def _signature_note(result: Any) -> str:
    return result


def _recost_note(result: Any) -> int:
    return int(getattr(result, "recosted_nodes", 0))


#: (module, attribute path, span name, result note).  A dotted attribute
#: path names a method on a class; a plain name is a function, replaced on
#: every loaded ``repro`` module that binds it.
LAYER_HOOKS: tuple[tuple[str, str, str, Callable[[Any], Any] | None], ...] = (
    # serve: the daemon's front door, looked up in the server module.
    ("repro.serve.server", "decode", "serve.decode", None),
    ("repro.serve.server", "workflow_from_request", "serve.parse", None),
    ("repro.serve.server", "memo_key", "serve.memo_lookup", None),
    ("repro.serve.memo", "ResultMemo.get", "serve.memo_lookup", None),
    ("repro.serve.server", "encode", "serve.encode", None),
    ("repro.serve.server", "run_search", "search", None),
    # signature: fingerprints outside a search are the front door's.
    ("repro.core.signature", "workflow_fingerprint", "fingerprint", None),
    ("repro.core.signature", "state_signature", "signature", _signature_note),
    # transitions + workflow graph surgery.
    (
        "repro.core.transitions.base",
        "Transition.try_apply_fast",
        "transitions.apply",
        _applicable_note,
    ),
    ("repro.core.workflow", "ETLWorkflow.copy", "workflow.copy", None),
    (
        "repro.core.workflow",
        "ETLWorkflow.validate_incremental",
        "workflow.validate",
        None,
    ),
    (
        "repro.core.workflow",
        "ETLWorkflow.propagate_schemas_incremental",
        "workflow.propagate",
        None,
    ),
    # cost: delta re-costing.
    (
        "repro.core.cost.estimator",
        "estimate_incremental",
        "cost.recost",
        _recost_note,
    ),
)


def _wrap(tracer: Tracer, name: str, original, note):
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, note)

    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__wrapped__ = original
    return wrapper


class Hooks:
    """Context manager: wrap every hook in :data:`LAYER_HOOKS` with spans.

    ``with hooks: ...`` traces; leaving the block restores every replaced
    attribute, so untraced calls run the original code.  The bindings to
    replace are found once, on first entry, so entering is cheap enough
    to alternate traced and untraced requests.
    """

    def __init__(self, tracer: Tracer, hooks=LAYER_HOOKS) -> None:
        self.tracer = tracer
        self.hooks = hooks
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def _find(self) -> list[tuple[object, str, object, object]]:
        bindings = []
        for module_name, path, span_name, note in self.hooks:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attribute]
                wrapper = _wrap(self.tracer, span_name, original, note)
                bindings.append((owner, attribute, original, wrapper))
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(self.tracer, span_name, original, note)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, attribute, None) is original:
                    bindings.append((loaded, attribute, original, wrapper))
        return bindings

    def __enter__(self) -> Tracer:
        if self._bindings is None:
            self._bindings = self._find()
        for owner, attribute, _, wrapper in self._bindings:
            setattr(owner, attribute, wrapper)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original, _ in reversed(self._bindings or ()):
            setattr(owner, attribute, original)
