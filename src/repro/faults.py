"""Deterministic, replayable fault injection for sharded sweeps.

The paper's subject is coordination that survives adversarial
asynchrony; this module turns our *own* infrastructure failures into
the same kind of first-class, schedulable event.  A :class:`FaultPlan`
names exactly which shard attempt of a sweep faults and how — a worker
crash, a raised exception, a hang, a slow shard, a corrupted committed
shard file, or a failed commit — keyed by ``(shard_index, attempt)``
(optionally scoped to one ``spec_hash``).  Because the key is the
attempt coordinate and never the wall clock, replaying the same plan
against the same sweep injects the same faults in the same places,
every time, on any machine.

The determinism-under-faults contract (docs/ROBUSTNESS.md): runs are
pure functions of ``(root_seed, run_index)``, so a supervised sweep
that retries, degrades, or heals its way through *any* injected fault
sequence still merges to final ``RunStats`` / metrics / journal bytes
bit-identical to the fault-free serial run.  The chaos suite
(``tests/test_supervisor_chaos.py``) asserts exactly that.

Worker-side kinds (``crash``/``raise``/``hang``/``slow``) trigger at
shard start inside the worker process via
:func:`trigger_worker_fault`; store-side kinds (``corrupt``/
``commit-fail``) are applied by the supervising parent around the
shard commit.  Nothing here ever fires unless a plan is explicitly
passed to :func:`repro.parallel.engine.run_parallel` (or
``run_many(fault_plan=...)``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, Optional, Tuple

#: Kinds injected inside the worker process, at shard start.
WORKER_FAULT_KINDS = ("crash", "raise", "hang", "slow")

#: Kinds applied by the supervising parent around the shard commit.
STORE_FAULT_KINDS = ("corrupt", "commit-fail")

FAULT_KINDS = WORKER_FAULT_KINDS + STORE_FAULT_KINDS

#: Corruption modes for ``kind="corrupt"``.
CORRUPT_MODES = ("truncate", "bitflip")


class InjectedFault(RuntimeError):
    """An exception raised by the fault injector (kind ``raise`` /
    ``commit-fail``) — deliberately a plain ``RuntimeError`` subclass so
    the supervisor's fault handling cannot special-case it apart from a
    genuine worker bug."""


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """One injectable fault.

    ``kind``
        ``crash``        — the worker process dies via ``os._exit``
                           (no Python cleanup, like an OOM kill);
        ``raise``        — the worker raises :class:`InjectedFault`;
        ``hang``         — the worker sleeps ``seconds`` before doing
                           any work (trip a ``shard_timeout`` watchdog);
        ``slow``         — like ``hang`` but meant to *finish*: the
                           shard completes after the delay (latency
                           fault, not a failure);
        ``corrupt``      — after the shard commits, its store file is
                           damaged per ``mode`` (at-rest corruption,
                           detected and healed on the next resume);
        ``commit-fail``  — the shard's store commit raises instead of
                           landing (a failed fsync: work done, fact
                           lost — the supervisor must re-execute).
    """

    kind: str
    #: Exit status for ``crash`` (nonzero, like a real kill).
    exitcode: int = 23
    #: Sleep for ``hang``/``slow``.
    seconds: float = 3600.0
    #: Damage style for ``corrupt``.
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.kind == "corrupt" and self.mode not in CORRUPT_MODES:
            raise ValueError(f"unknown corruption mode {self.mode!r} "
                             f"(expected one of {CORRUPT_MODES})")
        if self.kind == "crash" and self.exitcode == 0:
            raise ValueError("crash exitcode must be nonzero (a clean "
                             "exit is not a fault)")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A replayable schedule of faults, keyed ``(shard_index, attempt)``.

    ``entries`` is a sorted tuple of ``((shard, attempt), action)``
    pairs (a frozen, picklable stand-in for a dict).  ``spec_hash`` optionally
    scopes the plan to one sweep: a supervisor running a different spec
    ignores it entirely, so a plan can ride along in shared fixtures
    without leaking faults into unrelated sweeps.

    Attempt numbering is 0-based: ``(k, 0)`` fires on shard ``k``'s
    first execution, ``(k, 1)`` on its first retry, and so on — which
    is what makes escalation scenarios (crash, then hang, then succeed)
    expressible and exactly replayable.
    """

    entries: Tuple[Tuple[Tuple[int, int], FaultAction], ...] = ()
    spec_hash: Optional[str] = None

    @classmethod
    def build(cls, plan: Dict[Tuple[int, int], FaultAction],
              spec_hash: Optional[str] = None) -> "FaultPlan":
        """The ergonomic constructor: a dict keyed ``(shard, attempt)``."""
        for key, action in plan.items():
            shard, attempt = key
            if shard < 0 or attempt < 0:
                raise ValueError(f"fault key {key} must be non-negative")
            if not isinstance(action, FaultAction):
                raise TypeError(f"plan values must be FaultAction, "
                                f"got {type(action).__name__}")
        return cls(entries=tuple(sorted(plan.items())),
                   spec_hash=spec_hash)

    def applies_to(self, spec_hash: Optional[str]) -> bool:
        """Whether this plan is armed for a sweep with that hash.

        An unscoped plan applies everywhere; a scoped plan only where
        the hashes match (an unhashable sweep never matches a scoped
        plan).
        """
        if self.spec_hash is None:
            return True
        return spec_hash is not None and spec_hash == self.spec_hash

    def get(self, shard: int, attempt: int) -> Optional[FaultAction]:
        """The action scheduled for this attempt coordinate, if any."""
        for key, action in self.entries:
            if key == (shard, attempt):
                return action
        return None

    def worker_action(self, shard: int, attempt: int) -> Optional[FaultAction]:
        """The worker-side action for this coordinate, if any."""
        action = self.get(shard, attempt)
        if action is not None and action.kind in WORKER_FAULT_KINDS:
            return action
        return None

    def store_action(self, shard: int, attempt: int) -> Optional[FaultAction]:
        """The store-side action for this coordinate, if any."""
        action = self.get(shard, attempt)
        if action is not None and action.kind in STORE_FAULT_KINDS:
            return action
        return None

    def __len__(self) -> int:
        return len(self.entries)


def trigger_worker_fault(action: FaultAction) -> None:
    """Execute a worker-side fault inside the worker process.

    Called by the shard worker loop *before* the shard does
    any work, so a crash or hang never leaves a half-observed metrics
    registry behind.  ``slow`` returns normally after its delay — the
    shard then runs to completion.
    """
    if action.kind == "crash":
        # os._exit skips atexit/finally — the closest a test can get to
        # an OOM kill without involving the kernel.
        os._exit(action.exitcode)
    if action.kind == "raise":
        raise InjectedFault("injected worker exception")
    if action.kind in ("hang", "slow"):
        time.sleep(action.seconds)
        return
    raise ValueError(f"{action.kind!r} is not a worker-side fault")


def corrupt_file(path: str, mode: str = "truncate") -> None:
    """Damage a committed file in place (at-rest corruption).

    ``truncate`` chops the file to half its length (a torn write /
    lost tail); ``bitflip`` XORs one bit in the middle (silent media
    corruption).  Both survive a fresh ``open`` — only content
    validation (unpickling + checksum) can tell.
    """
    size = os.path.getsize(path)
    if mode == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        return
    if mode == "bitflip":
        offset = max(0, size // 2)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            flipped = bytes([(byte[0] if byte else 0) ^ 0x40])
            fh.seek(offset)
            fh.write(flipped)
        return
    raise ValueError(f"unknown corruption mode {mode!r} "
                     f"(expected one of {CORRUPT_MODES})")
