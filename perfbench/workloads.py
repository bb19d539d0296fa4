"""Workload definitions and correctness gates for the perfbench harness.

Every workload drives a public entry point exactly as the CLI does:
``repro report`` calls :meth:`ExperimentRunner.run_many` with the
``ProtocolSpec``/``SchedulerSpec``/``ConstantInputs`` factories and a
:class:`MetricsRegistry`; ``repro verify --engine fingerprints`` calls
:func:`explore_fast` with ``protocol_factory=ProtocolSpec(...)``.

The workload seed is the only source of variation.  For sweeps it is
the root seed; for checks it picks a mixed input assignment for
n_process(4).  The program receives only those generated inputs.

Nothing here imports ``repro`` at module level: this module is imported
by freshly spawned pool workers too, and those must pay only for what
the program itself imports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Any, Dict, List, Optional, Tuple

#: ``repro report``'s default step budget.
MAX_STEPS = 100_000

#: Run indices compared against an in-process ``fast`` reference.
SPOT_CHECKS = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "check"
    why: str
    # sweeps
    protocol: str = ""
    inputs: Tuple[str, ...] = ()
    engine: Optional[str] = None
    runs: int = 0
    shard_size: Optional[int] = None
    store: bool = False
    journal: bool = False
    # checks
    depth: int = 0
    # both
    workers: int = 1
    warm_repeats: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sweep-short", kind="sweep",
        why="two_process vector sweep of ~9-step runs in-process: "
            "per-run setup (MT seeding, replay into metrics, decode) "
            "outweighs stepping; bypasses parallel, store, sim.kernel",
        protocol="two", inputs=("a", "b"), engine="vector",
        runs=4000, workers=1),
    Workload(
        name="sweep-sharded", kind="sweep",
        why="three_bounded fast-engine sweep, 2 workers, 24 shards, "
            "store and journal, cold then warm: spawn, kernel stepping, "
            "store writes then reads; bypasses ir.*",
        protocol="three-bounded", inputs=("a", "b", "b"), engine=None,
        runs=600, shard_size=25, store=True, journal=True, workers=2,
        warm_repeats=9),
    Workload(
        name="check-sharded", kind="check",
        why="fingerprinted BFS of n_process(4) to depth 12 at 2 workers: "
            "successor expansion, fingerprinting and dedup, plus "
            "parallel.frontier transport, codec and parent-side dedup",
        depth=12, workers=2),
)}


def check_inputs(seed: int) -> Tuple[str, ...]:
    """A mixed binary input assignment for n_process(4), from ``seed``."""
    rng = random.Random(seed)
    while True:
        values = tuple(rng.choice("ab") for _ in range(4))
        if len(set(values)) == 2:
            return values


def spot_indices(seed: int, n_runs: int) -> List[int]:
    """Run indices to cross-check, always including both ends."""
    rng = random.Random(seed * 7919 + 17)
    picks = set(rng.sample(range(n_runs), min(SPOT_CHECKS, n_runs)))
    picks.update((0, n_runs - 1))
    return sorted(picks)


# ---------------------------------------------------------------------------
# Sweeps


def _sweep_runner(wl: Workload, seed: int, engine: Optional[str],
                  with_metrics: bool = True):
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
    from repro.sim.runner import ExperimentRunner

    sinks = (MetricsRegistry(),) if with_metrics else ()
    return ExperimentRunner(
        protocol_factory=ProtocolSpec(wl.protocol, len(wl.inputs)),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(wl.inputs),
        seed=seed,
        sinks=sinks,
        engine=engine,
    )


def run_sweep(wl: Workload, seed: int, n_runs: int, shard_size: Optional[int],
              workdir: str, tag: str):
    """One ``run_many`` call as ``repro report`` makes it."""
    from repro.store import RunStore

    runner = _sweep_runner(wl, seed, wl.engine)
    store = RunStore(os.path.join(workdir, "store")) if wl.store else None
    journal = os.path.join(workdir, f"{tag}.jsonl") if wl.journal else None
    return runner.run_many(n_runs, max_steps=MAX_STEPS, workers=wl.workers,
                           shard_size=shard_size, journal_path=journal,
                           store=store)


def sweep_digest(stats) -> str:
    """Hash of everything a sweep returns: runs, metrics, journal bytes."""
    h = hashlib.sha256()
    h.update(repr(stats.runs).encode())
    h.update(json.dumps(stats.metrics_dict(), sort_keys=True,
                        default=repr).encode())
    if stats.journal_path is not None:
        with open(stats.journal_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def sweep_failures(stats, n_runs: int) -> Dict[str, List[int]]:
    """Run indices that fail a gate, by reason (missing, quarantined,
    inconsistent)."""
    present = {r.run_index for r in stats.runs}
    quarantined: List[int] = []
    if stats.faults is not None:
        for lo, hi in stats.faults.quarantined_ranges():
            quarantined.extend(range(lo, hi))
    return {
        "missing": sorted(set(range(n_runs)) - present),
        "quarantined": quarantined,
        "inconsistent": [r.run_index for r in stats.runs
                         if not r.consistent],
    }


def spot_mismatches(wl: Workload, seed: int, stats) -> List[int]:
    """Spot-checked indices whose stats differ from an in-process
    serial ``fast``-engine :meth:`ExperimentRunner.run_range`."""
    n_runs = len(stats.runs)
    if n_runs == 0:
        return []
    by_index = {r.run_index: r for r in stats.runs}
    ref = _sweep_runner(wl, seed, "fast", with_metrics=False)
    bad = []
    for i in spot_indices(seed, n_runs):
        expected = ref.run_range(i, i + 1, MAX_STEPS)[0]
        if by_index.get(i) != expected:
            bad.append(i)
    return bad


# ---------------------------------------------------------------------------
# Checks


def run_check(wl: Workload, seed: int, depth: int, workers: int):
    """One ``explore_fast`` call as ``repro verify --engine fingerprints``
    makes it."""
    from repro.checker.statespace import explore_fast
    from repro.parallel.tasks import ProtocolSpec

    inputs = check_inputs(seed)
    factory = ProtocolSpec("n", len(inputs))
    return explore_fast(factory(), inputs, memory="atomic", max_depth=depth,
                        workers=workers, protocol_factory=factory)


def check_counts(report) -> Dict[str, Any]:
    return {"visited": report.visited, "edges": report.edges,
            "depth": report.depth, "ok": report.ok,
            "exhausted": report.exhausted, "frontier": report.frontier}


def check_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(check_counts(report), sort_keys=True).encode()).hexdigest()
