"""Adversary scheduler framework.

Section 2 of the paper defines a scheduler as a mapping from
configurations to processors, best viewed as an adversary with complete
knowledge of processor states and register contents (but no foresight
into coin flips).  This subpackage provides:

* :mod:`repro.sched.base` — the :class:`Scheduler` ABC,
* :mod:`repro.sched.simple` — benign schedulers (round-robin, random,
  fixed sequences, oblivious interleavings),
* :mod:`repro.sched.adversary` — adaptive full-knowledge adversaries,
  including the Section 5 strategy that kills the naive protocol,
* :mod:`repro.sched.crash` — fail-stop crash injection (the paper's
  protocols tolerate up to n−1 crashes).
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "Scheduler": "base",
    "FixedScheduler": "simple",
    "ObliviousScheduler": "simple",
    "RandomScheduler": "simple",
    "RoundRobinScheduler": "simple",
    "BlockScheduler": "simple",
    "AdaptiveAdversary": "adversary",
    "DisagreementAdversary": "adversary",
    "LaggardFreezer": "adversary",
    "NaiveKillerAdversary": "adversary",
    "ReadValueAdversary": "adversary",
    "SplitVoteAdversary": "adversary",
    "CrashingScheduler": "crash",
    "CrashPlan": "crash",
    "LookaheadAdversary": "lookahead",
    "GameSolution": "optimal",
    "evaluate_policy": "optimal",
    "OptimalAdversary": "optimal",
    "solve_game": "optimal",
})
