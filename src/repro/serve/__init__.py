"""Process-based serving subsystem: GIL-free, fault-tolerant parallel reads.

Public surface of the serving stack: the engine-snapshot protocol and
supervised worker pool (:mod:`repro.serve.procserve`), the restartable
worker supervision layer (:mod:`repro.serve.supervisor`), and the
deterministic fault-injection harness (:mod:`repro.serve.faults`) used
by the chaos tests.
"""

from repro.serve.faults import FaultInjected, FaultInjector, current_injector, inject
from repro.serve.procserve import (
    DEFAULT_RETRIES,
    PROCESS_MODE_MIN_QUERIES,
    ProcessServingPool,
    ServeToken,
    session_token,
    snapshot_bytes,
)
from repro.serve.supervisor import ServeFailure, WorkerSupervisor

__all__ = [
    "DEFAULT_RETRIES",
    "PROCESS_MODE_MIN_QUERIES",
    "FaultInjected",
    "FaultInjector",
    "ProcessServingPool",
    "ServeFailure",
    "ServeToken",
    "WorkerSupervisor",
    "current_injector",
    "inject",
    "session_token",
    "snapshot_bytes",
]
