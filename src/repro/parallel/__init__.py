"""Sharded Monte-Carlo batch execution across worker processes.

The paper's quantitative claims — Theorem 7's ≤ (1/4)^(k/2) tail, the
≤ 10 expected-steps corollary, Theorem 9's (3/4)^k num-depth envelope —
are estimated by Monte-Carlo batches, and resolving the deep tails
takes run counts that are slow in a single process.  Runs are
independent experiments keyed by ``derive_seed(root_seed, "run", i)``,
so they shard across processes with bit-identical results:

* :mod:`repro.parallel.engine` — :func:`run_parallel`, the one sharded
  executor: it splits the run index range into contiguous shards, runs
  them on persistent spawned workers (each shard with its own metrics
  registry / journal shard, heartbeats streamed back over the worker's
  pipe), and deterministically merges everything back into one
  :class:`~repro.sim.runner.BatchStats`.
* :mod:`repro.parallel.supervisor` — how the executor reacts to a
  faulting shard: :class:`SupervisorPolicy` (watchdog, deterministic
  bounded retries, engine degradation, quarantine; fail-fast by
  default, so a dead worker raises instead of hanging) and the
  structured :class:`FaultReport` (see ``docs/ROBUSTNESS.md``).
* :mod:`repro.parallel.workers` — ``Workers``, spawned worker
  processes addressed by index with one duplex pipe each, shared by
  the executor and the checker's frontier pool
  (:mod:`repro.parallel.frontier`).
* :mod:`repro.parallel.tasks` — picklable factory specs
  (:class:`ProtocolSpec`, :class:`SchedulerSpec`,
  :class:`ConstantInputs`) so task descriptions survive the ``spawn``
  boundary.

Most callers never import this package directly: pass ``workers=N``
(and a ``policy``) to :meth:`ExperimentRunner.run_many` or
``--workers N`` / ``--supervised`` to ``repro report``.  See
``docs/EXPERIMENTS.md`` for the sharding contract and benchmark
results.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "BatchSpec": "engine",
    "ShardResult": "engine",
    "ShardTask": "engine",
    "plan_shards": "engine",
    "run_parallel": "engine",
    "shard_journal_path": "engine",
    "DEGRADE_LADDER": "supervisor",
    "FaultEvent": "supervisor",
    "FaultReport": "supervisor",
    "SupervisorError": "supervisor",
    "SupervisorPolicy": "supervisor",
    "ConstantInputs": "tasks",
    "ProtocolSpec": "tasks",
    "SchedulerSpec": "tasks",
    "PROTOCOL_NAMES": "tasks",
    "SCHEDULER_NAMES": "tasks",
})
