"""One fresh-process measurement of a perfbench workload.

``perfbench/run.py`` starts this script once per sample, from the
repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/sample.py '{"workload": "sweep-short", "seed": 1,
                                  "mode": "main", "workdir": "..."}'

Modes: ``setup`` runs the smallest instance of the workload (the
parent times the whole process); ``main`` times the cold call and its
warm repeats and gates their outputs; ``reference`` runs a check at the
other worker count, for the parent's cross-check.  The last line of
standard output is one JSON object.

When ``PERFBENCH_TRACE_DIR`` is set, every layer is traced
(:mod:`tracing`).  Spawned pool workers re-import this file as
``__mp_main__``, which turns tracing on in them as well.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads

if os.environ.get(tracing.ENV_DIR):
    tracing.start("main" if __name__ == "__main__" else "worker",
                  os.environ[tracing.ENV_DIR])


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed(run_id: str, call):
    t0 = time.monotonic()
    with tracing.root(run_id):
        result = call()
    return result, time.monotonic() - t0


def _sweep_size(wl, cfg):
    """(runs, shard_size); a ``runs`` override keeps the shard count."""
    runs = cfg.get("runs") or wl.runs
    if wl.shard_size is None or runs == wl.runs:
        return runs, wl.shard_size
    shards = -(-wl.runs // wl.shard_size)
    return runs, max(1, -(-runs // shards))


def measure_sweep(wl, seed: int, workdir: str, cfg) -> dict:
    n_runs, shard_size = _sweep_size(wl, cfg)
    cold, cold_s = _timed("cold", lambda: workloads.run_sweep(
        wl, seed, n_runs, shard_size, workdir, "cold"))
    digest = workloads.sweep_digest(cold)
    warm_s = []
    warm_failed = 0
    for k in range(wl.warm_repeats):
        warm, t = _timed(f"warm{k}", lambda: workloads.run_sweep(
            wl, seed, n_runs, shard_size, workdir, f"warm{k}"))
        warm_s.append(t)
        # A warm repeat returns the cold output, journal bytes included,
        # and a store-backed one is served entirely from the store.
        served = warm.store is None or warm.store.fully_cached
        if workloads.sweep_digest(warm) != digest or not served:
            warm_failed += n_runs
        del warm
    rss = _peak_rss_mb()

    bad = workloads.sweep_failures(cold, n_runs)
    bad["mismatched"] = workloads.spot_mismatches(wl, seed, cold)
    failed_runs = set()
    for indices in bad.values():
        failed_runs.update(indices)
    errors = [f"{reason}: runs {indices[:10]}"
              for reason, indices in bad.items() if indices]
    if warm_failed:
        errors.append(f"warm repeats differ from the cold sweep "
                      f"({warm_failed} runs)")
    return {
        "cold_s": cold_s, "warm_s": warm_s, "ops": n_runs,
        "rss_mb": rss, "digest": digest,
        "attempted": n_runs * (1 + wl.warm_repeats),
        "failed": len(failed_runs) + warm_failed,
        "errors": errors,
    }


def measure_check(wl, seed: int, cfg) -> dict:
    depth = cfg.get("depth", wl.depth)
    cold, cold_s = _timed("cold", lambda: workloads.run_check(
        wl, seed, depth, wl.workers))
    counts = workloads.check_counts(cold)
    warm_s = []
    failed = 0 if cold.ok else 1
    errors = [] if cold.ok else [f"violation: {cold.violation}"]
    for k in range(wl.warm_repeats):
        warm, t = _timed(f"warm{k}", lambda: workloads.run_check(
            wl, seed, depth, wl.workers))
        warm_s.append(t)
        if workloads.check_counts(warm) != counts:
            failed += 1
            errors.append(f"warm repeat {k} counts "
                          f"{workloads.check_counts(warm)} != {counts}")
    return {
        "cold_s": cold_s, "warm_s": warm_s, "ops": cold.visited,
        "rss_mb": _peak_rss_mb(), "digest": workloads.check_digest(cold),
        "counts": counts, "attempted": 1 + wl.warm_repeats,
        "failed": failed, "errors": errors,
    }


def setup(wl, seed: int, workdir: str) -> dict:
    """The smallest instance: one run per shard, or a depth-0 search."""
    if wl.kind == "sweep":
        stats = workloads.run_sweep(wl, seed, wl.workers, 1, workdir,
                                    "setup")
        bad = workloads.sweep_failures(stats, wl.workers)
        failed = len(set().union(*bad.values()))
        return {"attempted": wl.workers, "failed": failed,
                "errors": [f"{k}: {v}" for k, v in bad.items() if v]}
    report = workloads.run_check(wl, seed, 0, wl.workers)
    return {"attempted": 1, "failed": 0 if report.ok else 1,
            "errors": [] if report.ok else [report.violation]}


def reference(wl, seed: int, cfg) -> dict:
    """The check at the other worker count (1 <-> 2)."""
    depth = cfg.get("depth", wl.depth)
    report = workloads.run_check(wl, seed, depth,
                                 1 if wl.workers > 1 else 2)
    return {"counts": workloads.check_counts(report), "attempted": 1,
            "failed": 0 if report.ok else 1, "errors": []}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[cfg["workload"]]
    seed = cfg["seed"]
    mode = cfg["mode"]
    try:
        if mode == "setup":
            out = setup(wl, seed, cfg["workdir"])
        elif mode == "reference":
            out = reference(wl, seed, cfg)
        elif wl.kind == "sweep":
            out = measure_sweep(wl, seed, cfg["workdir"], cfg)
        else:
            out = measure_check(wl, seed, cfg)
    except Exception:
        # The parent counts the sample's operations as failed.
        print(traceback.format_exc(), file=sys.stderr)
        return 1
    rec = tracing.recorder()
    if rec is not None and mode == "main":
        out["trace"] = tracing.summarize(
            rec.record(), tracing.worker_records(rec.trace_dir))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
