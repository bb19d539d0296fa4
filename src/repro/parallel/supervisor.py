"""Fault policy and fault report of the sharded sweep executor.

:func:`repro.parallel.engine.run_parallel` runs every sharded sweep on
persistent spawned workers and supervises each shard attempt.  This
module holds the vocabulary of that supervision:

* :class:`SupervisorPolicy` — how to react to a faulting shard:
  a **watchdog** (``shard_timeout``; the worker is killed and
  replaced), **bounded retries** with deterministic, jitter-free
  exponential backoff (``min(cap, base · 2^(n-1))``), **graceful
  degradation** down :data:`DEGRADE_LADDER` (``on_fault="degrade"``),
  **quarantine** of a shard that keeps failing (the sweep completes and
  names the exact unfinished index ranges), or **fail-fast**
  (``on_fault="fail"``, the default when no policy is given:
  :class:`SupervisorError` naming the shard, with the worker's
  traceback).
* :class:`FaultEvent` / :class:`FaultReport` — what went wrong and what
  the executor did about it, on ``BatchStats.faults``.

A crash is a worker that dies without reporting (OOM kill,
``os._exit``, segfault): the executor sees EOF on its pipe.  A shard
that raises is an ``exception`` fault; its worker stays up.

The determinism-under-faults contract (docs/ROBUSTNESS.md): every run
is a pure function of ``(root_seed, run_index)``, so however many
crashes, hangs, retries, degradations, or healed shard files a sweep
survives, the merged ``RunStats`` list, metrics snapshot, and journal
bytes are bit-identical to the fault-free serial run.  Degraded
attempts commit under the *original* spec's content address, which is
sound because the engines are differentially verified (docs/IR.md §5).
Fault *observability* therefore lives outside the deterministic
artifacts: events stream to the telemetry file (already
wall-clock-stamped and non-deterministic by design) as
``{"kind": "fault", ...}`` records, and the aggregate
:class:`FaultReport` rides on ``BatchStats.faults``.

Fault injection for tests comes from :mod:`repro.faults` — pass a
:class:`~repro.faults.FaultPlan` and the executor injects worker
crashes, raised exceptions, hangs, slow shards, failed commits, and
at-rest corruption at exact ``(shard, attempt)`` coordinates,
replayably.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

#: Engine step-down order for ``on_fault="degrade"``: a shard faulting
#: on one rung retries on the next.  All rungs are differentially
#: verified bit-identical (tests/test_engines.py, docs/IR.md §5), so
#: degradation trades speed for robustness, never results.
DEGRADE_LADDER = ("vector", "fast", "reference")

#: Recognized ``on_fault`` policies.
ON_FAULT_MODES = ("retry", "degrade", "quarantine", "fail")


class SupervisorError(RuntimeError):
    """A sharded sweep aborted under ``on_fault="fail"``."""


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervisor reacts to a faulting shard.

    ``shard_timeout``
        Watchdog in seconds per shard *attempt*, counted from the
        moment a started worker receives the shard (spawn and import
        time never count); ``None`` disables it (a hung shard then
        hangs the sweep).
    ``max_retries``
        Retries per shard after its first failure; attempt numbering
        is 0-based, so a shard executes at most ``max_retries + 1``
        times before quarantine.
    ``on_fault``
        ``retry`` (default) — retry on the same engine, quarantine
        after ``max_retries``; ``degrade`` — like retry but each retry
        steps down :data:`DEGRADE_LADDER`; ``quarantine`` — give up on
        the first fault; ``fail`` — raise :class:`SupervisorError` on
        the first fault (what ``run_parallel`` applies when no policy
        is given).
    ``backoff_base`` / ``backoff_cap``
        Deterministic exponential backoff before retry ``n``:
        ``min(cap, base · 2^(n-1))`` seconds.  Jitter-free on purpose —
        replaying a fault plan replays the schedule too.
    """

    shard_timeout: Optional[float] = None
    max_retries: int = 2
    on_fault: str = "retry"
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.on_fault not in ON_FAULT_MODES:
            raise ValueError(f"unknown on_fault mode {self.on_fault!r} "
                             f"(expected one of {ON_FAULT_MODES})")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, "
                             f"got {self.shard_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def backoff(self, retry: int) -> float:
        """Delay in seconds before retry ``retry`` (1-based)."""
        if retry < 1:
            raise ValueError(f"retry numbering is 1-based, got {retry}")
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** (retry - 1)))


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One observed fault and what the supervisor did about it.

    ``kind`` is ``crash`` / ``exception`` / ``timeout`` /
    ``commit-fail`` / ``corrupt`` / ``healed``; ``action`` is
    ``retry`` / ``retry@<engine>`` (a degradation) / ``quarantine`` /
    ``damaged`` (injected at-rest corruption, shard still complete) /
    ``healed`` (damaged file quarantined on resume, shard recomputed).
    """

    shard: int
    attempt: int
    kind: str
    engine: str
    action: str
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FaultReport:
    """Everything that went wrong in one supervised sweep.

    ``quarantined`` lists the exact ``(start, stop)`` run-index ranges
    the sweep finished *without* — re-run with the same spec and store
    to fill them in.  ``healed`` lists damaged store files renamed to
    ``*.corrupt`` and recomputed.  The sweep's deterministic artifacts
    (runs / metrics / journal) never mention faults; this report is
    the observability surface.
    """

    events: List[FaultEvent] = dataclasses.field(default_factory=list)
    quarantined: List[Tuple[int, int]] = \
        dataclasses.field(default_factory=list)
    healed: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every shard completed (no quarantined ranges)."""
        return not self.quarantined

    @property
    def n_faults(self) -> int:
        return len(self.events)

    @property
    def n_retries(self) -> int:
        return sum(1 for e in self.events if e.action.startswith("retry"))

    @property
    def n_degradations(self) -> int:
        return sum(1 for e in self.events if e.action.startswith("retry@"))

    @property
    def runs_missing(self) -> int:
        return sum(stop - start for start, stop in self.quarantined)

    def counts(self) -> Dict[str, int]:
        """Fault tally by kind (the ``repro report`` fault metrics)."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def quarantined_ranges(self) -> List[Tuple[int, int]]:
        """Quarantined index ranges, sorted and coalesced."""
        merged: List[Tuple[int, int]] = []
        for start, stop in sorted(self.quarantined):
            if merged and merged[-1][1] == start:
                merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [e.to_dict() for e in self.events],
            "quarantined": [list(r) for r in self.quarantined_ranges()],
            "healed": list(self.healed),
            "counts": self.counts(),
            "n_retries": self.n_retries,
            "n_degradations": self.n_degradations,
            "runs_missing": self.runs_missing,
        }


def _degraded_engine(engine: str) -> str:
    """The next rung down :data:`DEGRADE_LADDER` (floor: last rung)."""
    if engine not in DEGRADE_LADDER:
        return DEGRADE_LADDER[-1]
    idx = DEGRADE_LADDER.index(engine)
    return DEGRADE_LADDER[min(idx + 1, len(DEGRADE_LADDER) - 1)]
