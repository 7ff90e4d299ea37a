"""Request-level result memo: a repeat optimize is a dictionary lookup.

Heavy multi-tenant traffic is dominated by near-duplicate requests — the
same workflow re-optimized on every pipeline deploy, dashboard refresh,
or retry.  The transposition cache already makes a *warm* search cheap;
this memo removes the search entirely.  The answer is keyed on
everything it depends on —

    request-document digest × cost model × algorithm × budget knobs

— where the digest (:func:`document_digest`) is a sha256 over the
request's ``workflow`` document in canonical JSON (sorted keys, compact
separators).  The daemon computes it straight from the decoded request,
so a hit never parses, validates or fingerprints a workflow: it is
decode, hash, look up, reply.  Documents that differ only in JSON key
order share an entry; any change to a value, including list order,
misses.  ``jobs`` is deliberately **excluded** from the key: the
engine's jobs=N runs are byte-identical to serial, so a result computed
at any worker count answers a request at any other.  Stopping and
pruning knobs (``max_states``/``max_seconds``/``beam_width``/
``prune_dominated``/``bound``) are all **included**: they change which
state the search returns, so each combination memoizes separately.

An entry (:class:`MemoEntry`) holds the serialized
:class:`~repro.core.search.result.OptimizationResult` as canonical JSON
text, encoded once when the search finishes, plus the workflow
fingerprint and transposition hits the reply envelope reports; the
server splices the text into each reply without re-serializing it.

The memo is bounded (LRU) and thread-safe — the daemon's worker threads
populate it while the asyncio thread probes it on admission.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, NamedTuple

from repro.core.search.budget import SearchBudget
from repro.serve.protocol import ProtocolError, canonical_json

__all__ = ["MemoEntry", "ResultMemo", "document_digest", "memo_key"]

#: Default bound on memoized results; one entry holds a full serialized
#: result (plan + lineage), so the cap is a memory budget, not a hint.
DEFAULT_CAPACITY = 1024


def document_digest(document: Any) -> str:
    """sha256 of a request's ``workflow`` document in canonical JSON."""
    try:
        text = canonical_json(document)
    except RecursionError:
        raise ProtocolError("workflow document nests too deeply") from None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def memo_key(
    digest: str,
    model: str,
    algorithm: str,
    budget: SearchBudget,
) -> str:
    """The canonical memo key for one optimize request.

    ``digest`` is :func:`document_digest` of the submitted workflow
    document — a content hash, so two tenants submitting the same
    workflow share one entry (results carry no tenant data).
    """
    return "|".join(
        (
            digest,
            model,
            algorithm.lower(),
            f"states={budget.max_states}",
            f"seconds={budget.max_seconds}",
            f"beam={budget.beam_width}",
            f"dominated={budget.prune_dominated}",
            f"bound={budget.bound}",
        )
    )


class MemoEntry(NamedTuple):
    """One memoized answer, ready to splice into a reply envelope."""

    #: The serialized result as :func:`~repro.serve.protocol.canonical_json`.
    text: str
    #: :func:`~repro.core.signature.workflow_fingerprint` of the workflow.
    fingerprint: str
    #: Transposition hits the search that produced the result reported.
    cache_hits: int


class ResultMemo:
    """A bounded, thread-safe LRU of encoded optimization results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("ResultMemo capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, MemoEntry]" = OrderedDict()

    def get(self, key: str) -> MemoEntry | None:
        """The stored entry for ``key``, bumping it most-recently-used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: MemoEntry) -> None:
        """Store ``entry`` under ``key``, evicting least-recently-used.

        First write wins on a racing double-compute: both runs produced
        the same deterministic value, so keeping the incumbent avoids a
        pointless LRU bump for the loser.
        """
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = entry
            self._bytes += len(entry.text)
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.text)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        """Counters plus ``bytes``, the total size of the stored result
        text (canonical JSON is ASCII, so characters are bytes)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
