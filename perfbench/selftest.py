"""Self-test of the perfbench harness, on small instances of each workload.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` and ``perfbench/interactions.json`` name the same
  metrics, and the workloads match ``workloads.py``;
* a traced sample gives results bit-identical to an untraced one (the
  sweep's runs, metrics and journal bytes; the search's counts);
* the per-layer self times plus the worker-covered and unattributed
  remainders add up to the traced wall time;
* every layer an interaction names for a workload shows work on it,
  and every layer predicted not to change on a workload shows none.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracing
import workloads

#: Small instances: sweeps keep their shard count, checks stay deep
#: enough for the frontier pool to take a level.
SMALL = {
    "sweep-short": {"runs": 300},
    "sweep-sharded": {"runs": 96},
    "check-sharded": {"depth": 10},
}

#: A metric that is non-zero exactly when the layer did work.
ACTIVITY = {
    "spec": "spec.hash_calls",
    "store": "store.commits",
    "parallel": "parallel.shards",
    "sim.kernel": "sim.kernel.runs",
    "sim.transitions": "sim.transitions.entries_built",
    "ir.lower": "ir.lower.states",
    "ir.mt": "ir.mt.words_generated",
    "ir.vector": "ir.vector.batches",
    "obs": "obs.sink_events",
    "checker.statespace": "checker.statespace.items_expanded",
    "parallel.frontier": "parallel.frontier.levels",
}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_declarations(bench: dict, inter: dict) -> list:
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if set(inter["end_to_end"]) != {m["name"] for m in bench["end_to_end"]}:
        problems.append("end-to-end metrics differ from interactions.json")
    described = set(inter["trace"])
    for layer in inter["layers"].values():
        described.update(layer["metrics"])
    if described != {m["name"] for m in bench["per_layer"]}:
        problems.append("per-layer metrics differ from interactions.json")
    if set(inter["layers"]) != set(tracing.LAYERS):
        problems.append("interactions.json layers differ from tracing.py")
    return problems


def _sample(name: str, seed: int, traced: bool):
    workdir = str(run.WORK / f"selftest-{os.getpid()}-{name}-{int(traced)}")
    os.makedirs(workdir)
    trace_dir = None
    if traced:
        trace_dir = os.path.join(workdir, "trace")
        os.mkdir(trace_dir)
    cfg = {"workload": name, "seed": seed, "mode": "main",
           "workdir": workdir, **SMALL[name]}
    try:
        return run.run_sample(cfg, trace_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_workload(name: str, inter: dict, seed: int = 5) -> list:
    plain = _sample(name, seed, traced=False)
    traced = _sample(name, seed, traced=True)
    if plain.out is None or traced.out is None:
        return [f"{name}: sample failed: {plain.error or traced.error}"]
    problems = []
    for label, out in (("untraced", plain.out), ("traced", traced.out)):
        if out["failed"]:
            problems.append(f"{name}: {label} sample failed its gates: "
                            f"{out['errors']}")
    if plain.out["digest"] != traced.out["digest"]:
        problems.append(f"{name}: traced output differs from untraced")
    summary = traced.out["trace"]
    err = tracing.additivity_error(summary)
    if err > 1e-6 * max(1.0, summary["trace.wall_s"]):
        problems.append(f"{name}: layer times miss the wall time by "
                        f"{err:.9f} s")
    for layer, spec in inter["layers"].items():
        active = summary[ACTIVITY[layer]] > 0
        if any(m["workload"] == name for m in spec["moves"]) \
                and not active:
            problems.append(f"{name}: {layer} should do work here, "
                            f"but {ACTIVITY[layer]} is 0")
        if any(m["workload"] == name for m in spec["no_change"]) \
                and active:
            problems.append(f"{name}: {layer} should be bypassed here, "
                            f"but {ACTIVITY[layer]} is "
                            f"{summary[ACTIVITY[layer]]}")
    return problems


def main() -> int:
    bench = _load(str(run.ROOT / "BENCHMARK.json"))
    inter = _load(os.path.join(os.path.dirname(__file__),
                               "interactions.json"))
    problems = check_declarations(bench, inter)
    try:
        for name in workloads.WORKLOADS:
            found = check_workload(name, inter)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    finally:
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"  {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
