"""The resilient serving daemon (``repro serve``).

A long-running asyncio front end over one
:class:`~repro.db.GraphDatabase`: bounded admission with explicit load
shedding, per-request deadlines, work-conserving batching into
``serve_batch`` (dispatch when idle, coalesce behind the in-flight
batch), a circuit breaker around the process pool, graceful SIGTERM
drain, and hot index swap over the serve-token handshake.

Layering:

* :mod:`repro.serve.daemon.admission` — the bounded queue, requests,
  latency/counter bookkeeping;
* :mod:`repro.serve.daemon.breaker` — the circuit breaker;
* :mod:`repro.serve.daemon.batching` — the batch loop and the
  ``serve_batch`` glue;
* :mod:`repro.serve.daemon.lifecycle` — :class:`ServingDaemon` itself
  (start, drain, swap, stats);
* :mod:`repro.serve.daemon.http` — the stdlib HTTP/1.1 transport;
* :mod:`repro.serve.daemon.client` — a blocking keep-alive client for
  benches, tests, and the CI smoke script.

See the "Serving daemon" section of ``docs/robustness.md`` for the
admission → deadline → breaker → drain ladder and the breaker state
diagram.
"""

from repro.serve.daemon.admission import AdmissionQueue, DaemonStats, LatencyRecorder, Request
from repro.serve.daemon.breaker import CircuitBreaker
from repro.serve.daemon.client import DaemonClient
from repro.serve.daemon.lifecycle import DaemonConfig, ServingDaemon

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "DaemonClient",
    "DaemonConfig",
    "DaemonStats",
    "LatencyRecorder",
    "Request",
    "ServingDaemon",
]
