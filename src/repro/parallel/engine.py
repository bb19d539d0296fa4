"""The sharded executor for Monte-Carlo batches.

Runs in a batch are independent coin-flip experiments: every stochastic
stream of run ``i`` derives from ``derive_seed(root_seed, "run", i)``
(see :meth:`repro.sim.runner.ExperimentRunner.run_one`), so a run's
outcome depends only on the root seed and its index — never on which
process executes it or in what order.  That makes batches trivially
shardable: split the index range ``[0, n_runs)`` into contiguous
shards, execute each shard in a worker process, and merge the shards
back in index order.  The merged result is bit-identical to a serial
run with the same root seed, at any worker count and any shard size.

:func:`run_parallel` is the one sharded path.  It runs the shards on
persistent spawned workers (:mod:`repro.parallel.workers`), one duplex
pipe each, and supervises every shard attempt: a watchdog, retries,
engine degradation and quarantine per
:class:`~repro.parallel.supervisor.SupervisorPolicy`.  Without a
policy it fails fast: the first fault raises
:class:`~repro.parallel.supervisor.SupervisorError` naming the shard —
a worker that dies mid-batch raises instead of hanging the sweep.

Each shard is observed with its own
:class:`~repro.obs.metrics.MetricsRegistry` (and, when asked, its own
JSONL journal shard).  The merge step is deterministic:

* per-run :class:`~repro.sim.runner.RunStats` concatenate in shard
  order, which *is* global run order because shards are contiguous;
* shard registries fold together via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` in shard order
  (counters add, histograms union counts, gauges keep min/max unions
  and take the last shard's last value);
* journal shards concatenate via
  :func:`~repro.obs.journal.concatenate_journals`, keeping a single
  header line — byte-identical to the journal a serial run writes.

Task specs must pickle (the engine checks up front and raises a
descriptive error otherwise): use module-level factory functions or the
spec classes in :mod:`repro.parallel.tasks`.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import pickle
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engines import resolve_sim_engine
from repro.faults import FaultPlan, corrupt_file, trigger_worker_fault
from repro.obs.journal import JsonlJournal, concatenate_journals
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryEmitter, file_sink
from repro.parallel.supervisor import (FaultEvent, FaultReport,
                                       SupervisorError, SupervisorPolicy,
                                       _degraded_engine)
from repro.parallel.tasks import ProtocolSpec
from repro.parallel.workers import Workers
from repro.sim.memory import ATOMIC, MemorySpec


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    """Everything a worker needs to rebuild the experiment.

    The three factories follow the :class:`ExperimentRunner` contract
    (see :mod:`repro.sim.runner`) and must be picklable.
    """

    protocol_factory: Callable
    scheduler_factory: Callable
    inputs_factory: Callable
    seed: int
    strict: bool = False
    #: Register semantics of every run (picklable; see repro.sim.memory).
    memory: MemorySpec = ATOMIC
    #: Execution backend name, resolved through the engine registry
    #: (:mod:`repro.engines`); ``None`` means the registry default
    #: (``"fast"``).  Workers rebuild their runner with it, so a vector
    #: batch shards into per-worker lockstep mega-batches (repro.ir).
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        # Validate once, in the submitting process; workers rebuild
        # specs via pickle, which skips __init__.
        resolve_sim_engine(self.engine)

    @property
    def resolved_engine(self) -> str:
        """The effective engine name (default filled in)."""
        return resolve_sim_engine(self.engine).name


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One contiguous slice ``[start, stop)`` of a batch's run indices."""

    spec: BatchSpec
    start: int
    stop: int
    max_steps: int
    with_metrics: bool
    journal_path: Optional[str] = None
    #: Position of this shard in the batch plan (heartbeat identity).
    shard_index: int = 0
    #: Stream live heartbeats (see :mod:`repro.obs.telemetry`).
    telemetry: bool = False


@dataclasses.dataclass
class ShardResult:
    """What a worker sends back: per-run stats plus shard aggregates."""

    start: int
    stop: int
    runs: List
    metrics: Optional[MetricsRegistry]
    journal_events: int = 0


def plan_shards(n_runs: int, workers: int,
                shard_size: Optional[int] = None) -> List[Tuple[int, int]]:
    """Partition ``[0, n_runs)`` into contiguous ``(start, stop)`` shards.

    The default shard size is ``ceil(n_runs / workers)`` — one shard
    per worker, the lowest-overhead choice for uniform runs.  Pass a
    smaller ``shard_size`` when per-run cost varies (adversarial
    schedulers, mixed inputs) so the workers can load-balance; results
    are identical either way.
    """
    if n_runs < 0:
        raise ValueError(f"n_runs must be >= 0, got {n_runs}")
    if shard_size is None:
        shard_size = max(1, math.ceil(n_runs / max(1, workers)))
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [(start, min(start + shard_size, n_runs))
            for start in range(0, n_runs, shard_size)]


def shard_journal_path(journal_path: str, shard_index: int) -> str:
    """The temporary path shard ``shard_index`` streams its journal to."""
    return f"{journal_path}.shard{shard_index:04d}"


def _execute_shard(task: ShardTask,
                   beat: Optional[Callable[[Dict[str, Any]], None]] = None
                   ) -> ShardResult:
    """Run one shard with its own sinks.

    Reuses :class:`ExperimentRunner` — the exact code path of a serial
    batch — with the shard's private registry and journal attached.
    ``beat`` receives the shard's heartbeat dicts when
    ``task.telemetry`` is set.
    """
    from repro.sim.runner import ExperimentRunner

    registry = MetricsRegistry() if task.with_metrics else None
    journal = (JsonlJournal(task.journal_path, memory=task.spec.memory.name)
               if task.journal_path is not None else None)
    sinks = tuple(s for s in (registry, journal) if s is not None)
    runner = ExperimentRunner(
        protocol_factory=task.spec.protocol_factory,
        scheduler_factory=task.spec.scheduler_factory,
        inputs_factory=task.spec.inputs_factory,
        seed=task.spec.seed,
        strict=task.spec.strict,
        sinks=sinks,
        memory=task.spec.memory,
        engine=task.spec.resolved_engine,
    )
    emitter = None
    if task.telemetry:
        emitter = TelemetryEmitter(task.shard_index, task.stop - task.start,
                                   beat)
    runs = runner.run_range(task.start, task.stop, task.max_steps,
                            emitter=emitter)
    if emitter is not None:
        emitter.finish()
    events = 0
    if journal is not None:
        events = journal.events_written
        journal.close()
    return ShardResult(start=task.start, stop=task.stop, runs=runs,
                       metrics=registry, journal_events=events)


def _preload(spec: BatchSpec) -> None:
    """Import what the shards of ``spec`` run.

    That is the runner and kernel, the schedulers
    :class:`~repro.parallel.tasks.SchedulerSpec` builds, the protocol
    module of a :class:`~repro.parallel.tasks.ProtocolSpec` and, for
    the ``vector`` engine, the table-IR executor with its RNG.  The
    module of any other factory was imported when ``spec`` was
    unpickled.
    """
    import repro.sched.adversary  # noqa: F401
    import repro.sched.simple  # noqa: F401
    import repro.sim.runner  # noqa: F401

    if isinstance(spec.protocol_factory, ProtocolSpec):
        importlib.import_module(spec.protocol_factory.module)
    if spec.resolved_engine == "vector":
        import repro.ir.vector  # noqa: F401
        try:
            import repro.ir.mt  # noqa: F401
        except ImportError:
            pass  # no numpy: the vector engine runs its python backend


def _shard_worker(conn, spec: BatchSpec) -> None:
    """Worker main loop: run shards of ``spec`` until the parent says stop.

    Receives ``(ShardTask, FaultAction | None)``, triggers the injected
    fault if any, and runs the shard, streaming ``("beat", dict)``
    heartbeats; then replies ``("ok", ShardResult)`` or ``("error",
    summary, traceback)`` and waits for the next shard.  A crash sends
    nothing: the parent sees EOF on the pipe.
    """
    # Import the batch's layers before reporting ready, so import time
    # never counts against a shard's watchdog.
    _preload(spec)

    def beat(d: Dict[str, Any]) -> None:
        conn.send(("beat", d))

    conn.send(("ready",))
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        task, fault = msg
        try:
            if fault is not None:
                trigger_worker_fault(fault)
            # Through the module global, so a wrapped ``_execute_shard``
            # sees every shard.
            conn.send(("ok", _execute_shard(task, beat)))
        except Exception as exc:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))


def _check_picklable(spec: BatchSpec) -> None:
    # Only genuine pickling failures get the "use the spec classes"
    # diagnosis; anything else a factory's __reduce__/__getstate__
    # raises is a real bug in that factory and propagates unchanged
    # (with its original traceback), not dressed up as a pickle
    # problem.
    try:
        pickle.dumps(spec)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ValueError(
            "parallel batches need picklable factories (they cross a "
            "process boundary): use module-level functions or the spec "
            "classes in repro.parallel.tasks (ProtocolSpec, "
            "SchedulerSpec, ConstantInputs) instead of lambdas or "
            f"closures [pickle said: {exc}]"
        ) from exc


def _shard_payload(task: ShardTask, result: ShardResult):
    """Package one executed shard for the store (journal bytes inline)."""
    from repro.store import ShardPayload

    journal_bytes = None
    if task.journal_path is not None:
        with open(task.journal_path, "rb") as fh:
            journal_bytes = fh.read()
    return ShardPayload(
        start=result.start, stop=result.stop, runs=result.runs,
        metrics=result.metrics, journal_bytes=journal_bytes,
        journal_events=result.journal_events)


@dataclasses.dataclass
class _Attempt:
    """One execution of one shard, due at ``not_before``."""

    shard: int
    attempt: int
    engine: str
    not_before: float = 0.0


def _supervise(todo: List[int], n_workers: int,
               make_task: Callable[[int, str], ShardTask],
               commit: Optional[Callable[[ShardTask, ShardResult], str]],
               policy: SupervisorPolicy, plan: Optional[FaultPlan],
               shards: List[Tuple[int, int]], spec: BatchSpec,
               report: FaultReport,
               telemetry: Callable[[Dict[str, Any]], None]) -> Tuple:
    """Run shards ``todo`` of ``spec`` on ``n_workers`` supervised workers.

    Each worker imports the batch's layers (:func:`_preload`) before
    it reports ready.

    Each shard commits (through ``commit``) the moment it arrives.
    Returns ``(completed, quarantined)``: results and ``(start, stop)``
    ranges keyed by shard index.
    """
    pending = [_Attempt(k, 0, spec.resolved_engine) for k in todo]
    #: Worker index -> (attempt, task, watchdog deadline).
    running: Dict[int, Tuple[_Attempt, ShardTask, Optional[float]]] = {}
    #: Started workers waiting for a shard.
    idle: List[int] = []
    started = set()
    completed: Dict[int, ShardResult] = {}
    quarantined: Dict[int, Tuple[int, int]] = {}

    def record(att: _Attempt, kind: str, action: str, detail: str) -> None:
        report.events.append(FaultEvent(
            shard=att.shard, attempt=att.attempt, kind=kind,
            engine=att.engine, action=action, detail=detail))
        telemetry({"kind": "fault", "shard": att.shard,
                   "attempt": att.attempt, "fault": kind,
                   "engine": att.engine, "action": action,
                   "detail": detail})

    def fault(att: _Attempt, kind: str, detail: str,
              trace: Optional[str] = None) -> None:
        if policy.on_fault == "fail":
            record(att, kind, "fail", detail)
            start, stop = shards[att.shard]
            msg = (f"shard {att.shard} (runs [{start}, {stop})) attempt "
                   f"{att.attempt} on engine {att.engine!r} faulted: "
                   f"{kind}: {detail} [on_fault='fail'; use retry/"
                   f"degrade/quarantine to continue past faults]")
            if trace is not None:
                msg += f"\nworker traceback:\n{trace}"
            raise SupervisorError(msg)
        retryable = policy.on_fault in ("retry", "degrade")
        if not retryable or att.attempt >= policy.max_retries:
            quarantined[att.shard] = shards[att.shard]
            record(att, kind, "quarantine", detail)
            return
        next_engine = (_degraded_engine(att.engine)
                       if policy.on_fault == "degrade" else att.engine)
        delay = policy.backoff(att.attempt + 1)
        pending.append(_Attempt(att.shard, att.attempt + 1, next_engine,
                                time.monotonic() + delay))
        action = ("retry" if next_engine == att.engine
                  else f"retry@{next_engine}")
        record(att, kind, action, f"{detail}; backoff {delay:.3f}s")

    def succeed(att: _Attempt, task: ShardTask,
                result: ShardResult) -> None:
        action = plan.store_action(att.shard, att.attempt) if plan else None
        if commit is not None:
            if action is not None and action.kind == "commit-fail":
                # Work done, fact lost: the commit "fsync failed", so
                # the result is discarded and the shard re-executes —
                # the strictest reading of a failed durable write.
                fault(att, "commit-fail", "injected commit failure (fsync)")
                return
            path = commit(task, result)
            if action is not None and action.kind == "corrupt":
                # At-rest damage after a successful commit: the sweep
                # in flight is unaffected; the NEXT resume heals it.
                corrupt_file(path, action.mode)
                record(att, "corrupt", "damaged",
                       f"injected {action.mode} damage to {path}")
        completed[att.shard] = result

    def dispatch() -> None:
        now = time.monotonic()
        for att in [a for a in pending if a.not_before <= now]:
            if not idle:
                return
            w = idle.pop(0)
            pending.remove(att)
            task = make_task(att.shard, att.engine)
            action = plan.worker_action(att.shard, att.attempt) \
                if plan else None
            deadline = (now + policy.shard_timeout
                        if policy.shard_timeout is not None else None)
            running[w] = (att, task, deadline)
            try:
                pool.conns[w].send((task, action))
            except OSError:
                pass  # the worker is gone; its EOF is handled below

    def replace(w: int) -> None:
        """Bury worker ``w``; start a fresh one while work remains."""
        started.discard(w)
        if w in idle:
            idle.remove(w)
        if pending:
            pool.restart(w)
        else:
            pool.kill(w)

    pool = Workers(_shard_worker, (spec,), n_workers, "shard-worker")
    try:
        while pending or running:
            dispatch()
            now = time.monotonic()
            deadlines = [d for _, _, d in running.values() if d is not None]
            if idle:
                deadlines += [a.not_before for a in pending]
            timeout = (max(0.0, min(deadlines) - now) if deadlines
                       else None)
            for conn in wait([c for c in pool.conns if not c.closed],
                             timeout):
                w = pool.conns.index(conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None
                if msg is None:
                    pid, code = pool.exit_status(w)
                    if w not in started:
                        raise SupervisorError(
                            f"shard worker {w} (pid {pid}) died during "
                            f"start-up (exit code {code})")
                    entry = running.pop(w, None)
                    if entry is not None:
                        fault(entry[0], "crash",
                              f"worker exited with code {code} before "
                              f"reporting")
                    replace(w)
                elif msg[0] == "beat":
                    telemetry(msg[1])
                elif msg[0] == "ready":
                    started.add(w)
                    idle.append(w)
                else:
                    att, task, _ = running.pop(w)
                    idle.append(w)
                    # Hand the worker its next shard before committing.
                    dispatch()
                    if msg[0] == "ok":
                        succeed(att, task, msg[1])
                    else:
                        fault(att, "exception", msg[1], msg[2])
            now = time.monotonic()
            for w, (att, _, deadline) in list(running.items()):
                if deadline is not None and now > deadline:
                    del running[w]
                    fault(att, "timeout",
                          f"exceeded shard_timeout={policy.shard_timeout}"
                          f"s; killed")
                    replace(w)
    finally:
        pool.close()
    return completed, quarantined


def run_parallel(
    spec: BatchSpec,
    n_runs: int,
    max_steps: int,
    workers: int,
    shard_size: Optional[int] = None,
    journal_path: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    store=None,
    policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
):
    """Execute a sharded batch and merge it back into one ``BatchStats``.

    Shards run on ``min(workers, shards to run)`` persistent spawned
    workers, each shard attempt supervised per ``policy``.  They run
    in-process instead (no spawn; exceptions propagate unchanged) when
    ``workers == 1`` or at most one shard is left to run, and neither
    ``policy`` nor ``fault_plan`` is given.

    Parameters
    ----------
    registry:
        The caller's batch-wide :class:`MetricsRegistry`, if it has
        one.  Shard registries are folded into it in shard order and it
        becomes ``BatchStats.metrics`` — mirroring the serial contract
        where the runner's attached registry accumulates the batch.
        When ``None``, no metrics are collected (again matching a
        serial runner with no registry attached).
    journal_path:
        Final path of the batch journal.  Each shard streams to
        ``<journal_path>.shard<k>``; the shards are concatenated (one
        header, shard order) into ``journal_path`` and removed.
    telemetry_path:
        Live-progress JSONL file (see :mod:`repro.obs.telemetry`).
        Workers stream per-shard heartbeats over their pipes and the
        parent appends them here, interleaved with fault records, so
        ``repro top <path>`` follows the sweep from another terminal.
        Heartbeats carry wall-clock rates — the file differs between
        repeats of the same seeded sweep even though the returned stats
        do not.
    store:
        Optional :class:`~repro.store.RunStore`.  Shards already
        committed under this sweep's content address ``(spec_hash,
        root_seed, index_range)`` are loaded instead of executed (a
        damaged one is healed: renamed ``*.corrupt`` and recomputed);
        every freshly executed shard is committed (atomic tmp+rename)
        as soon as it finishes, so an interrupted sweep resumes from
        its last committed shard.  The returned stats carry a
        :class:`~repro.store.StoreStats` accounting.  A fully
        store-served repeat starts no worker.
    policy:
        A :class:`~repro.parallel.supervisor.SupervisorPolicy`; the
        default is ``SupervisorPolicy(on_fault="fail")``: the first
        fault raises :class:`~repro.parallel.supervisor.SupervisorError`
        naming the shard (and carrying the worker's traceback).
    fault_plan:
        Test-only fault injection (:mod:`repro.faults`).

    Returns a :class:`~repro.sim.runner.BatchStats` bit-identical to
    the serial equivalent: same ``runs`` list, same merged metrics
    snapshot, same journal bytes.  When a ``policy`` or ``fault_plan``
    was given it also carries a
    :class:`~repro.parallel.supervisor.FaultReport` on ``.faults``;
    quarantined shards' index ranges are then missing from ``runs`` and
    named by the report.
    """
    from repro.sim.runner import BatchStats

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_picklable(spec)
    supervised = policy is not None or fault_plan is not None
    if policy is None:
        policy = SupervisorPolicy(on_fault="fail")

    shards = plan_shards(n_runs, workers, shard_size)
    with_metrics = registry is not None
    report = FaultReport()

    # -- spec hash / store preamble (healing resume) -------------------
    run_spec = None
    spec_hash = None
    store_stats = None
    if store is not None or (fault_plan is not None
                             and fault_plan.spec_hash is not None):
        from repro.spec import ObsOptions, RunSpec

        run_spec = RunSpec.from_batch(
            spec, max_steps=max_steps,
            obs=ObsOptions(metrics=with_metrics,
                           journal=journal_path is not None))
        spec_hash = run_spec.spec_hash()
    plan = fault_plan if (fault_plan is not None
                          and fault_plan.applies_to(spec_hash)) else None

    cached: Dict[int, Any] = {}
    if store is not None:
        from repro.store import StoreStats

        store_stats = StoreStats(spec_hash=spec_hash)
        healed_before = len(store.healed)
        for k, (start, stop) in enumerate(shards):
            # heal=True: a committed shard damaged at rest (failed
            # disk, torn copy) is quarantined as *.corrupt and simply
            # re-executed — a fact is always recomputable.
            payload = store.load_shard(spec_hash, spec.seed, start, stop,
                                       heal=True)
            if payload is not None:
                cached[k] = payload
                store_stats.hits += 1
                store_stats.runs_from_cache += stop - start
            else:
                store_stats.misses += 1
                store_stats.runs_executed += stop - start
        for path in store.healed[healed_before:]:
            report.healed.append(path)
            report.events.append(FaultEvent(
                shard=-1, attempt=0, kind="healed",
                engine=spec.resolved_engine, action="healed",
                detail=f"damaged shard file quarantined as "
                       f"{path}.corrupt; recomputing"))

    todo = [k for k in range(len(shards)) if k not in cached]

    def make_task(k: int, engine: str) -> ShardTask:
        start, stop = shards[k]
        task_spec = spec
        if engine != spec.resolved_engine:
            # Degraded attempt: rebuild the spec on the lower rung.
            # The shard still commits under the ORIGINAL run_spec —
            # sound because the engines are verified bit-identical.
            task_spec = dataclasses.replace(spec, engine=engine)
        return ShardTask(
            spec=task_spec, start=start, stop=stop, max_steps=max_steps,
            with_metrics=with_metrics,
            journal_path=(shard_journal_path(journal_path, k)
                          if journal_path is not None else None),
            shard_index=k, telemetry=telemetry_path is not None)

    commit = None
    if store is not None:
        def commit(task: ShardTask, result: ShardResult) -> str:
            return store.commit_shard(run_spec, spec.seed,
                                      _shard_payload(task, result))

    telemetry_fh = open(telemetry_path, "w") \
        if telemetry_path is not None else None
    telemetry = (file_sink(telemetry_fh) if telemetry_fh is not None
                 else lambda d: None)
    try:
        if todo and (supervised or (workers > 1 and len(todo) > 1)):
            completed, quarantined = _supervise(
                todo, min(workers, len(todo)), make_task, commit, policy,
                plan, shards, spec, report, telemetry)
        else:
            # Nothing to supervise or parallelize: run in-process, same
            # code path, each shard committed the moment it finishes.
            completed, quarantined = {}, {}
            for k in todo:
                task = make_task(k, spec.resolved_engine)
                completed[k] = _execute_shard(task, telemetry)
                if commit is not None:
                    commit(task, completed[k])
    finally:
        if telemetry_fh is not None:
            telemetry_fh.close()
    report.quarantined = sorted(quarantined.values())

    # -- deterministic merge, minus quarantined shards -----------------
    results: List[ShardResult] = []
    journal_parts: List[str] = []
    for k, (start, stop) in enumerate(shards):
        part = (shard_journal_path(journal_path, k)
                if journal_path is not None else None)
        if k in quarantined:
            # Remove any partial journal litter the failed attempts
            # left so a later sweep cannot trip over it.
            for stray in ((part, part + ".tmp") if part else ()):
                if os.path.exists(stray):
                    os.remove(stray)
            continue
        payload = cached.get(k)
        if payload is None:
            results.append(completed[k])
        else:
            results.append(ShardResult(
                start=start, stop=stop, runs=payload.runs,
                metrics=payload.metrics,
                journal_events=payload.journal_events))
            if part is not None:
                # Re-materialize the shard's journal segment so the
                # stitch below is the one code path either way.
                with open(part, "wb") as fh:
                    fh.write(payload.journal_bytes)
        if part is not None:
            journal_parts.append(part)

    runs = [r for shard in results for r in shard.runs]
    if with_metrics:
        for shard in results:
            registry.merge(shard.metrics)

    journal_events: Optional[int] = None
    if journal_path is not None:
        journal_events = concatenate_journals(journal_parts, journal_path)
        for part in journal_parts:
            os.remove(part)

    return BatchStats(
        runs=runs,
        max_steps=max_steps,
        metrics=registry,
        journal_path=journal_path,
        journal_events=journal_events,
        store=store_stats,
        faults=report if supervised else None,
    )
