"""Deterministic fault injection for the fault-tolerance layer.

Every recovery path in this package — worker supervision and restart
(:mod:`repro.serve.supervisor`), query deadlines and retries
(:meth:`repro.db.GraphDatabase.serve_batch`), shard retry / serial
fallback on parallel builds (:mod:`repro.core.parallel`), crash-safe
persistence (:mod:`repro.core.persistence`) — is dead code unless
something actually fails.  :class:`FaultInjector` is the something: a
*seeded, deterministic* source of controlled failures that the chaos
tests (``tests/test_chaos.py``, ``tests/test_daemon.py``) use to
kill workers, delay or drop replies, fail shards, and interrupt saves at
reproducible points, making every recovery path exercisable in CI.

Design:

* **per-site PRNG streams** — each fault site (``worker.kill``,
  ``build.shard``, ``persist.rename``...) draws from its own
  ``random.Random`` seeded from ``(seed, site)``, so the decision
  sequence at one site is a pure function of the seed and the call
  count at that site, independent of what other sites do;
* **rate × budget** — a site fires with its configured probability per
  consultation, and ``max_faults`` caps the *total* injected faults so a
  chaos run always drains to success (the recovery ladder is exercised a
  bounded number of times, then the workload completes and the
  ``identical_answers`` assertions run);
* **ambient installation** — :func:`inject` installs an injector
  process-wide (a context manager), and the instrumented modules consult
  :func:`current_injector` at their hook points; worker *processes*
  cannot see the parent's global, so the serving pool and the sharded
  builders ship the injector to workers explicitly (pickled — the
  injector drops its mutex on the way);
* **bookkeeping** — parent-side recovery events are recorded via
  :meth:`FaultInjector.note` (restart counts, shard fallbacks...), which
  the chaos bench reads back for its report.

Faults are raised as :class:`FaultInjected` — deliberately *not* a
:class:`~repro.errors.ReproError`: the recovery paths must treat it like
any foreign failure, and nothing may catch it specially.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from collections.abc import Iterator, Mapping

#: The recognized fault sites (documentation + validation).
FAULT_SITES = (
    "worker.kill",  # serving worker exits hard before replying
    "worker.delay",  # serving worker sleeps before replying
    "worker.drop",  # serving worker swallows the query (no reply)
    "worker.error",  # serving worker raises during evaluation
    "build.shard",  # parallel_map shard task raises worker-side
    "partition.shard",  # partition refinement worker raises
    "persist.fsync",  # save(): fsync fails mid-write
    "persist.rename",  # save(): the atomic rename fails
    "store.open",  # open_store(): mapping a store file fails outright
    "store.delta",  # open_store(): following a delta-chain link fails
)

#: Hard-exit status used by :meth:`FaultInjector.maybe_kill` (visible in
#: the worker's exitcode when debugging a chaos run).
KILL_EXIT_CODE = 17


class FaultInjected(Exception):
    """An injected failure.  Not a ReproError on purpose: recovery code
    must handle it exactly like a genuine foreign exception."""


class FaultInjector:
    """Seeded, deterministic fault source consulted at instrumented sites.

    ``rates`` maps site names (see :data:`FAULT_SITES`) to firing
    probabilities in ``[0, 1]``; unlisted sites never fire.  A rate of
    ``1.0`` fires on every consultation until ``max_faults`` is spent —
    the way to deterministically fault the first N events of a run.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        delay_seconds: float = 0.05,
        max_faults: int | None = None,
    ) -> None:
        rates = dict(rates or {})
        for site, rate in rates.items():
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r}; known: {FAULT_SITES}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {rate}")
        self.seed = seed
        self.rates = rates
        self.delay_seconds = delay_seconds
        self.max_faults = max_faults
        #: Faults fired so far, per site (this process's copy).
        self.fired: dict[str, int] = {}
        #: Parent-side recovery bookkeeping (see :meth:`note`).
        self.notes: dict[str, int] = {}
        self._streams: dict[str, random.Random] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # pickling: the injector ships to spawn-context workers
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The mutex cannot pickle; the streams deliberately don't ship
        # either — a worker-side copy re-derives them from the seed, so
        # its decision sequence is deterministic regardless of how many
        # decisions the parent already drew.
        state.pop("_lock", None)
        state.pop("_streams", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._streams = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def rate(self, site: str) -> float:
        """The configured firing probability for ``site`` (0 if unset)."""
        return self.rates.get(site, 0.0)

    def fire(self, site: str) -> bool:
        """Decide (deterministically) whether ``site`` faults this time."""
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        with self._lock:
            if self.max_faults is not None and sum(self.fired.values()) >= self.max_faults:
                return False
            stream = self._streams.get(site)
            if stream is None:
                # str seeds hash via SHA-512 in CPython — stable across
                # processes and interpreter launches, unlike hash().
                stream = self._streams[site] = random.Random(f"{self.seed}:{site}")
            hit = stream.random() < rate
            if hit:
                self.fired[site] = self.fired.get(site, 0) + 1
            return hit

    def fail(self, site: str) -> None:
        """Raise :class:`FaultInjected` if ``site`` fires."""
        if self.fire(site):
            raise FaultInjected(f"injected fault at {site}")

    def maybe_delay(self, site: str = "worker.delay") -> None:
        """Sleep ``delay_seconds`` if ``site`` fires (a slow worker)."""
        if self.fire(site):
            time.sleep(self.delay_seconds)

    def maybe_kill(self, site: str = "worker.kill") -> None:
        """Hard-exit the current process if ``site`` fires.

        ``os._exit`` (no cleanup, no atexit) models a SIGKILLed or
        segfaulted worker: the parent sees only a closed pipe.
        """
        if self.fire(site):
            os._exit(KILL_EXIT_CODE)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def note(self, event: str, count: int = 1) -> None:
        """Record a parent-side recovery event (for the chaos report)."""
        with self._lock:
            self.notes[event] = self.notes.get(event, 0) + count

    def total_fired(self) -> int:
        """Total faults fired by this copy of the injector."""
        return sum(self.fired.values())

    # ------------------------------------------------------------------
    # file corruption (used directly by tests, not via rates)
    # ------------------------------------------------------------------
    def corrupt_file(self, path: object, skip: int = 0) -> int:
        """Flip one deterministic bit of the file at ``path``.

        The corrupted offset is drawn from the seeded stream over the
        file's body after ``skip`` bytes (letting tests aim past or at a
        header).  Returns the corrupted offset.
        """
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        if len(blob) <= skip:
            raise ValueError(f"{path}: nothing to corrupt past offset {skip}")
        stream = random.Random(f"{self.seed}:corrupt_file")
        offset = stream.randrange(skip, len(blob))
        blob[offset] ^= 1 << stream.randrange(8)
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        return offset

    def __repr__(self) -> str:
        live = {site: rate for site, rate in self.rates.items() if rate > 0}
        return (
            f"FaultInjector(seed={self.seed}, rates={live}, "
            f"fired={self.total_fired()})"
        )


#: The ambient injector (process-wide); ``None`` outside chaos runs.
_ACTIVE: FaultInjector | None = None


def current_injector() -> FaultInjector | None:
    """The ambient :class:`FaultInjector`, or ``None`` (the normal case)."""
    return _ACTIVE


@contextlib.contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` as the ambient fault source for the block.

    The instrumented modules (serving pool, sharded builders, persistence)
    consult :func:`current_injector` at their hook points; worker
    processes get the injector shipped explicitly by their parents.
    Not reentrancy-safe across threads: chaos runs install one injector
    for the whole process.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
