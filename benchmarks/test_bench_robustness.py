"""E-robustness — supervision overhead and crash-recovery latency.

Every sharded sweep runs on one executor
(:func:`repro.parallel.engine.run_parallel`): persistent spawned
workers, each shard attempt supervised.  With no policy the executor
fails fast; a :class:`~repro.parallel.supervisor.SupervisorPolicy`
adds retries, degradation and quarantine.  That policy must be close
to free when nothing goes wrong, and this benchmark gates that the
fault-free sweep under ``SupervisorPolicy()`` stays within
``MAX_OVERHEAD`` of the same sweep with ``policy=None`` on the same
geometry.  It also measures (without gating — recovery cost depends
on where in the shard the crash lands) the wall-clock price of one
injected worker crash: the executor detects the dead worker, replaces
it, re-executes the shard, and still merges a bit-identical result.

Methodology: one untimed supervised sweep first asserts bit-identical
runs/metrics against the ``policy=None`` sweep and warms caches.  Timed
sweeps then run journal- and telemetry-free.  Wall times are
best-of-``REPS``; the overhead gate is in-process (both sides measured
in the same session on the same host).
Recovery latency is reported as (crashy supervised walltime) minus
(best clean supervised walltime) for a crash injected at shard 0's
first attempt, retried with near-zero backoff.
"""

from __future__ import annotations

from time import perf_counter

from conftest import dump_bench
from repro.analysis.reporting import ExperimentRecord
from repro.faults import FaultAction, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.parallel.supervisor import SupervisorPolicy
from repro.sim.runner import ExperimentRunner

N_RUNS = 800
SHARD = 100
MAX_STEPS = 2_000
WORKERS = 2
REPS = 3
SEED = 2026
# Acceptance gate: a fault-free sweep under SupervisorPolicy() costs at
# most 5% over the same sweep with policy=None.
MAX_OVERHEAD = 1.05

INPUTS = ("a", "b", "b")


def make_runner():
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("three-bounded", 3),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(INPUTS),
        seed=SEED,
        sinks=(MetricsRegistry(),),
    )


def timed_sweep(supervise, fault_plan=None):
    """One parallel sweep; returns (seconds, stats, metrics dict)."""
    runner = make_runner()
    policy = SupervisorPolicy() if supervise else None
    if fault_plan is not None:
        # Near-zero backoff so the measured recovery latency is
        # detection + re-execution, not a sleep we chose ourselves.
        policy = SupervisorPolicy(backoff_base=0.001, backoff_cap=0.002)
    t0 = perf_counter()
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS, workers=WORKERS,
                            shard_size=SHARD, policy=policy,
                            fault_plan=fault_plan)
    seconds = perf_counter() - t0
    return seconds, stats, runner.metrics.to_dict()


def test_bench_supervision_overhead(benchmark, report):
    # Untimed exactness pair: supervision must not change any result.
    plain = timed_sweep(supervise=False)
    supervised = timed_sweep(supervise=True)
    assert supervised[1].runs == plain[1].runs
    assert supervised[2] == plain[2]
    assert supervised[1].faults is not None and supervised[1].faults.ok

    def run_all():
        best_plain = best_sup = None
        for _rep in range(REPS):
            t_plain = timed_sweep(supervise=False)[0]
            t_sup = timed_sweep(supervise=True)[0]
            if best_plain is None or t_plain < best_plain:
                best_plain = t_plain
            if best_sup is None or t_sup < best_sup:
                best_sup = t_sup
        # One crash at shard 0's first attempt; the executor replaces
        # the dead worker and re-executes the shard.
        crash_plan = FaultPlan.build({(0, 0): FaultAction("crash")})
        t_crash, crash_stats, crash_metrics = timed_sweep(
            supervise=True, fault_plan=crash_plan)
        return best_plain, best_sup, t_crash, crash_stats, crash_metrics

    t_plain, t_sup, t_crash, crash_stats, crash_metrics = \
        benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The crashed-and-retried sweep still merges bit-identical.
    assert crash_stats.runs == plain[1].runs
    assert crash_metrics == plain[2]
    assert crash_stats.faults.counts() == {"crash": 1}

    overhead = t_sup / t_plain
    recovery = t_crash - t_sup
    record = ExperimentRecord(
        experiment="supervision_overhead",
        protocol="three_bounded",
        scheduler="random",
        inputs=",".join(INPUTS),
        seed=SEED,
        n_runs=N_RUNS,
        max_steps=MAX_STEPS,
        metrics={
            "timing": {
                "seconds_plain": t_plain,
                "seconds_supervised": t_sup,
                "overhead_ratio": overhead,
                "workers": WORKERS,
                "n_shards": N_RUNS // SHARD,
                "start_method": "spawn",
                "reps": REPS,
            },
            "recovery": {
                "seconds_with_one_crash": t_crash,
                "recovery_latency_seconds": recovery,
                "faults_observed": crash_stats.faults.counts(),
            },
            "bit_identical": True,
        },
    )

    report.add_table(
        f"E-robustness: SupervisorPolicy() vs policy=None sweep "
        f"({N_RUNS:,} runs, {WORKERS} workers)",
        header=("sweep", "seconds", "vs policy=None"),
        rows=[
            ("policy=None", f"{t_plain:.3f}", "1.00x"),
            ("supervised, fault-free", f"{t_sup:.3f}",
             f"{overhead:.2f}x"),
            ("supervised, one worker crash", f"{t_crash:.3f}",
             f"(+{recovery:.3f}s recovery)"),
        ],
        note=("Supervised and crash-retried sweeps are asserted "
              "bit-identical to the policy=None\nsweep before timing is "
              f"reported.  Gate: fault-free overhead <= "
              f"{MAX_OVERHEAD:.2f}x in-process;\nrecovery latency is "
              "recorded in BENCH_robustness.json, not gated."),
    )

    dump_bench([record], "robustness")

    # CI regression gate (see .github/workflows/ci.yml chaos-smoke).
    assert overhead <= MAX_OVERHEAD, (
        f"fault-free supervised sweep costs {overhead:.3f}x over the "
        f"policy=None sweep (gate {MAX_OVERHEAD:.2f}x)"
    )
