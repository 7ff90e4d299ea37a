"""Optimizer-as-a-service: a long-lived daemon for heavy traffic.

The serving layer of the reproduction (ROADMAP item 3): one process
holds the warm state every request benefits from — a shared
:class:`~repro.core.search.transposition.TranspositionCache`, long-lived
:class:`~repro.core.search.parallel.WorkerPool`\\ s, and a request-level
result memo — behind a line-delimited JSON protocol with bounded
admission and per-tenant budgets.  ``repro serve`` is the CLI front end;
:class:`BackgroundServer` is the in-process harness tests and benches
drive.

Layout:

* :mod:`repro.serve.protocol` — wire format, budget/model/result codecs;
* :mod:`repro.serve.queue` — bounded admission + tenant policy;
* :mod:`repro.serve.memo` — request-digest-keyed memo of encoded results;
* :mod:`repro.serve.exemplars` — bounded slow/failed request rings;
* :mod:`repro.serve.server` — the asyncio daemon itself;
* :mod:`repro.serve.client` — a synchronous client.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.exemplars import ExemplarStore
from repro.serve.memo import ResultMemo, memo_key
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    budget_from_dict,
    budget_to_dict,
    result_to_dict,
)
from repro.serve.queue import AdmissionError, JobQueue, TenantPolicy
from repro.serve.server import BackgroundServer, OptimizerServer, ServeConfig

__all__ = [
    "PROTOCOL_VERSION",
    "AdmissionError",
    "BackgroundServer",
    "ExemplarStore",
    "JobQueue",
    "OptimizerServer",
    "ProtocolError",
    "ResultMemo",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TenantPolicy",
    "budget_from_dict",
    "budget_to_dict",
    "memo_key",
    "result_to_dict",
]
