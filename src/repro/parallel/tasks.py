"""Picklable factory specs for cross-process batch execution.

:class:`~repro.sim.runner.ExperimentRunner` takes *factories* for the
protocol, the scheduler, and the inputs.  In-process those are usually
lambdas; lambdas cannot cross a ``multiprocessing`` spawn boundary, so
sharded batches need factories that pickle by value.  The spec classes
here are frozen dataclasses that name what to build — they serialize as
a few strings and ints, and each worker process rebuilds the real
objects locally on first call.

The names accepted here are exactly the CLI vocabulary
(``repro report --protocol ... --scheduler ...``), so the CLI's serial
and parallel paths construct identical runs.

Custom factories work too: any module-level function (or picklable
callable class) is a valid factory for the parallel engine.  Only
closures and lambdas are rejected, at submission time, with a pointer
back to this module.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Hashable, Tuple

#: Protocol name -> (defining module, class, whether it takes
#: ``n_processes``) for :class:`ProtocolSpec`.
_PROTOCOLS = {
    "two": ("repro.core.two_process", "TwoProcessProtocol", False),
    "three-unbounded": ("repro.core.three_unbounded",
                        "ThreeUnboundedProtocol", False),
    "three-bounded": ("repro.core.three_bounded", "ThreeBoundedProtocol",
                      False),
    "n": ("repro.core.n_process", "NProcessProtocol", True),
    "naive": ("repro.core.naive", "NaiveProtocol", True),
}

#: Protocol names understood by :class:`ProtocolSpec` (CLI vocabulary).
PROTOCOL_NAMES = tuple(_PROTOCOLS)

#: Scheduler names understood by :class:`SchedulerSpec` (CLI vocabulary).
SCHEDULER_NAMES = ("random", "round-robin", "oblivious", "split-vote",
                   "laggard-freezer", "read-adversary")


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """A protocol factory that pickles as its name.

    ``n_processes`` is only consulted by the variable-width protocols
    (``"n"`` and ``"naive"``); the fixed-width paper protocols ignore
    it.
    """

    name: str
    n_processes: int = 2

    @property
    def module(self) -> str:
        """The module defining the protocol class; calling the spec
        imports it and no other protocol module."""
        return self._entry()[0]

    def __call__(self):
        module, cls_name, sized = self._entry()
        cls = getattr(importlib.import_module(module), cls_name)
        return cls(self.n_processes) if sized else cls()

    def _entry(self) -> Tuple[str, str, bool]:
        entry = _PROTOCOLS.get(self.name)
        if entry is None:
            raise ValueError(f"unknown protocol {self.name!r} "
                             f"(expected one of {PROTOCOL_NAMES})")
        return entry


@dataclasses.dataclass(frozen=True)
class SchedulerSpec:
    """A scheduler factory that pickles as its name.

    Called per run with that run's ``rng.child("sched")`` stream, so
    stateful adversaries are fresh every run and random schedulers are
    seeded identically to the serial path.
    """

    name: str

    def __call__(self, rng):
        from repro.sched import (
            LaggardFreezer,
            ObliviousScheduler,
            RandomScheduler,
            ReadValueAdversary,
            RoundRobinScheduler,
            SplitVoteAdversary,
        )

        if self.name == "random":
            return RandomScheduler(rng)
        if self.name == "round-robin":
            return RoundRobinScheduler()
        if self.name == "oblivious":
            return ObliviousScheduler(rng)
        if self.name == "split-vote":
            return SplitVoteAdversary()
        if self.name == "laggard-freezer":
            return LaggardFreezer()
        if self.name == "read-adversary":
            # Random activation order plus hostile weak-memory read
            # resolution (a no-op wrapper under atomic semantics).
            return ReadValueAdversary(RandomScheduler(rng),
                                      policy="adversarial")
        raise ValueError(f"unknown scheduler {self.name!r} "
                         f"(expected one of {SCHEDULER_NAMES})")


@dataclasses.dataclass(frozen=True)
class ConstantInputs:
    """An inputs factory returning the same tuple for every run."""

    values: Tuple[Hashable, ...]

    def __call__(self, run_index: int, rng) -> Tuple[Hashable, ...]:
        return self.values
