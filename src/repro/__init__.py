"""repro — reproduction of Chor, Israeli & Li, PODC 1987.

*On Processor Coordination Using Asynchronous Hardware*: randomized
wait-free consensus for asynchronous processors that communicate only
through atomic read/write registers, plus the impossibility of solving
the same problem deterministically.

Package map
-----------

Every package below is a lazy namespace (:mod:`repro._lazy`): a name
is imported on first access, so ``import repro`` is cheap and a process
loads only the layers it runs.

``repro.core``
    The paper's protocols: two-processor (Figure 1), three-processor
    unbounded (Figure 2), three-processor bounded (Figure 3 / Section
    6), the n-processor generalization, the Theorem 5 multivalued
    reduction, and baselines.
``repro.sim``
    The Section 2 machine: automaton processors, atomic registers with
    reader/writer sets, serialized steps, seeded randomness.
``repro.sched``
    Schedulers from benign round-robin to the full-knowledge adaptive
    adversaries of the termination proofs, plus fail-stop crashes.
``repro.checker``
    Exhaustive safety verification and the mechanized Section 3
    impossibility pipeline (bivalence, Lemma 3, non-deciding lassos).
``repro.registers``
    The Lamport register-construction substrate: safe → regular →
    atomic, bits → words, SRSW → MRSW, with a linearizability checker.
``repro.apps``
    The applications the paper motivates coordination with: mutual
    exclusion, leader election, choice coordination.
``repro.analysis``
    The paper's bounds as formulas and the statistics that compare
    measurements against them.
``repro.obs``
    Kernel observability: event hooks, streaming metrics (counters /
    gauges / percentile histograms), JSONL run journals, and phase
    timers — see ``docs/OBSERVABILITY.md``.
``repro.spec``
    The canonical :class:`~repro.spec.RunSpec`: one frozen, picklable
    description of a run with a stable content hash — see
    ``docs/API.md``.
``repro.engines``
    The engine registry: sim and checker engines with capability
    flags, the single validation point for every engine selection.
``repro.store``
    Content-addressed run store: crash-safe shard commits, resumable
    sweeps, warm-cache repeats, checksummed self-healing shards — see
    ``docs/STORE.md``.
``repro.parallel``
    Sharded multi-process sweeps on supervised persistent workers
    (watchdogs, deterministic retries, quarantine) — see
    ``docs/ROBUSTNESS.md``.
``repro.faults``
    Deterministic, replayable fault injection for the chaos suite.

Quickstart
----------

>>> from repro import solve, TwoProcessProtocol
>>> outcome = solve(TwoProcessProtocol(), ["a", "b"], seed=1)
>>> outcome.consistent and outcome.value in ("a", "b")
True
"""

from repro._lazy import lazy_namespace

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "ConsensusOutcome": "core.consensus",
    "ConsensusProtocol": "core.protocol",
    "MultiValuedProtocol": "core.multivalued",
    "NaiveProtocol": "core.naive",
    "NProcessProtocol": "core.n_process",
    "ThreeBoundedProtocol": "core.three_bounded",
    "ThreeUnboundedProtocol": "core.three_unbounded",
    "TwoProcessProtocol": "core.two_process",
    "solve": "core.consensus",
    "AccessViolation": "errors",
    "ProtocolError": "errors",
    "ReproError": "errors",
    "SimulationError": "errors",
    "VerificationError": "errors",
    "BOTTOM": "sim.ops",
    "ExperimentRunner": "sim.runner",
    "FaultAction": "faults",
    "FaultPlan": "faults",
    "FaultReport": "parallel.supervisor",
    "InjectedFault": "faults",
    "JsonlJournal": "obs.journal",
    "MetricsRegistry": "obs.metrics",
    "ObsOptions": "spec",
    "PhaseTimer": "obs.timers",
    "ReplayableRng": "sim.rng",
    "RunSpec": "spec",
    "RunStore": "store",
    "ShardVerdict": "store",
    "Simulation": "sim.kernel",
    "SpecError": "spec",
    "StoreError": "store",
    "StoreStats": "store",
    "SupervisorError": "parallel.supervisor",
    "SupervisorPolicy": "parallel.supervisor",
})
__all__.append("__version__")
