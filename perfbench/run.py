"""Cold, end-to-end benchmark of sweeps and the checker.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-short --seed 1 --seconds 38 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; what each
per-layer metric should move is in ``perfbench/interactions.json``.

Every sample is a fresh ``python3 perfbench/sample.py`` process, so
imports, lazy lowering, MT19937 seeding, worker spawn, pickling, store
commits, merging and decoding are all inside the clock.  One run:

1. for checks, runs the search once at the other worker count, whose
   visited/edges/depth every sample must match;
2. takes main samples until ``--seconds`` have passed since the run
   began (at least ``MIN_SAMPLES``).  With ``--trace 1`` they alternate
   between untraced and traced; per-layer metrics come from the traced
   ones, and the tracing overhead is the difference of the two medians;
3. between the first main samples, times the smallest instance of the
   workload in ``SETUP_SAMPLES`` fresh processes (``setup_s`` is their
   median wall time).  Interleaving puts every metric of a run over the
   same stretch of the host's speed, which drifts by tens of percent
   over seconds to minutes on a shared host.

Every output is gated (see ``workloads.py``); ``failed`` counts runs
(sweeps) or explorations (checks) whose output was wrong.  A human
summary goes first; the last line is one JSON object.  Without the
program's sources next to it, the benchmark exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = Path(__file__).resolve().parent / "sample.py"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
MIN_SAMPLES = 3
#: Per-sample limit, and the point where a run stops taking samples
#: that keep failing; a run stays inside the 180 s it may take.
SAMPLE_TIMEOUT = 60
GIVE_UP_AFTER = 90


@dataclasses.dataclass
class Sample:
    """Outcome of one sample process: its wall time and its JSON output
    (``None`` when it failed, with ``error`` saying why)."""

    wall: float
    out: Optional[dict]
    error: str = ""


def _group_running(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running.

    Zombies do not count: they have exited and wait only for init to
    reap them (a multiprocessing resource tracker orphaned by its
    sample ends up so for a second or two).
    """
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # After the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _wait_group(pgid: int, timeout: float) -> None:
    """Wait for every process of group ``pgid``; kill what outlives it."""
    deadline = time.monotonic() + timeout
    while _group_running(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def run_sample(cfg: dict, trace_dir: Optional[str] = None) -> Sample:
    env = dict(os.environ)
    for key in (tracing.ENV_DIR, tracing.ENV_PARENT, tracing.ENV_RUN):
        env.pop(key, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if trace_dir is not None:
        env[tracing.ENV_DIR] = trace_dir
    t0 = time.monotonic()
    # Own process group, so pool workers are reaped with the sample.
    proc = subprocess.Popen(
        [sys.executable, str(SAMPLE), json.dumps(cfg)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _wait_group(proc.pid, 5.0)
        return Sample(time.monotonic() - t0, None,
                      f"timed out after {SAMPLE_TIMEOUT} s")
    wall = time.monotonic() - t0
    _wait_group(proc.pid, 5.0)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Sample(wall, None, stderr.strip()[-2000:])
    return Sample(wall, json.loads(lines[-1]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    def __init__(self, wl: workloads.Workload, seed: int, seconds: int,
                 trace: bool, declared: dict) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.declared = declared
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.seq = 0

    def _workdir(self) -> str:
        self.seq += 1
        path = WORK / f"{os.getpid()}-{self.seq}"
        path.mkdir(parents=True)
        return str(path)

    def sample(self, mode: str, traced: bool = False) -> Sample:
        workdir = self._workdir()
        trace_dir = None
        if traced:
            trace_dir = os.path.join(workdir, "trace")
            os.mkdir(trace_dir)
        try:
            s = run_sample({"workload": self.wl.name, "seed": self.seed,
                            "mode": mode, "workdir": workdir}, trace_dir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if s.out is None:
            # A crashed sample produced no output to trust: count every
            # operation it would have attempted as failed.
            ops = self._operations(mode)
            self.attempted += ops
            self.failed += ops
            self.errors.append(f"{mode} sample failed: {s.error}")
        else:
            self.attempted += s.out["attempted"]
            self.failed += s.out["failed"]
            self.errors.extend(s.out["errors"])
        return s

    def _operations(self, mode: str) -> int:
        """Runs (sweeps) or explorations (checks) a sample attempts."""
        wl = self.wl
        if mode == "setup":
            return wl.workers if wl.kind == "sweep" else 1
        if mode == "reference":
            return 1
        per_call = wl.runs if wl.kind == "sweep" else 1
        return per_call * (1 + wl.warm_repeats)

    def execute(self) -> dict:
        # Setup samples are interleaved with main ones (module docstring).
        start = time.monotonic()
        deadline = start + self.seconds
        give_up = start + GIVE_UP_AFTER

        expected = None
        if self.wl.kind == "check":
            ref = self.sample("reference")
            if ref.out is not None:
                expected = ref.out["counts"]

        setup, plain, traced = [], [], []
        setup_left = SETUP_SAMPLES
        i = m = 0
        while time.monotonic() < give_up:
            if (time.monotonic() >= deadline and len(plain) >= MIN_SAMPLES
                    and (not self.trace or len(traced) >= MIN_SAMPLES)
                    and not setup_left):
                break
            if setup_left and (i % 2 == 1 or time.monotonic() >= deadline):
                setup_left -= 1
                s = self.sample("setup")
                if s.out is not None:
                    setup.append(s.wall)
                i += 1
                continue
            want_trace = self.trace and m % 2 == 1
            s = self.sample("main", traced=want_trace)
            i += 1
            m += 1
            if s.out is None:
                continue
            (traced if want_trace else plain).append(s.out)
            if expected is not None and s.out["counts"] != expected:
                self.failed += 1
                self.errors.append(
                    f"counts {s.out['counts']} differ from the other "
                    f"worker count's {expected}")
        self._gate_outputs(plain, traced)
        if self.trace:
            return self._per_layer(plain, traced)
        return self._end_to_end(setup, plain)

    def _gate_outputs(self, plain, traced) -> None:
        """Same seed, same output: across samples, traced or not."""
        digests = {o["digest"] for o in plain + traced}
        if len(digests) > 1:
            self.failed += len(plain) + len(traced)
            self.errors.append(f"samples disagree: {len(digests)} "
                               f"distinct outputs for one seed")
        for o in traced:
            err = tracing.additivity_error(o["trace"])
            if err > 1e-6 * max(1.0, o["trace"]["trace.wall_s"]):
                self.failed += 1
                self.errors.append(f"layer self times miss the traced "
                                   f"wall time by {err:.6f} s")

    def _metric(self, name: str, values: list) -> dict:
        unit = self.declared[name]
        lo, hi = quartiles(values)
        med = statistics.median(values)
        print(f"  {name:40s} {med:14.6g} {unit:6s} "
              f"(q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)})")
        return {"value": med, "unit": unit}

    def _end_to_end(self, setup, plain) -> dict:
        if not plain or not setup:
            raise SystemExit("perfbench: no main sample succeeded:\n"
                             + "\n".join(self.errors[-3:]))
        return {
            "setup_s": self._metric("setup_s", setup),
            "ops_per_s": self._metric(
                "ops_per_s", [o["ops"] / o["cold_s"] for o in plain]),
            "warm_s": self._metric(
                "warm_s", [t for o in plain for t in o["warm_s"]]),
            "peak_rss_mb": self._metric(
                "peak_rss_mb", [o["rss_mb"] for o in plain]),
        }

    def _per_layer(self, plain, traced) -> dict:
        if not plain or not traced:
            raise SystemExit("perfbench: traced or untraced samples all "
                             "failed:\n" + "\n".join(self.errors[-3:]))
        untraced_wall = statistics.median(
            o["cold_s"] + sum(o["warm_s"]) for o in plain)
        metrics = {}
        for name in traced[0]["trace"]:
            metrics[name] = self._metric(
                name, [o["trace"][name] for o in traced])
        metrics["trace.overhead_s"] = self._metric(
            "trace.overhead_s",
            [o["trace"]["trace.wall_s"] - untraced_wall for o in traced])
        return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), declared)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        metrics = run.execute()
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    if set(metrics) != set(declared):
        print(f"perfbench: measured metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1
    for err in run.errors[:20]:
        print(f"  gate: {err}")
    print(json.dumps({"correct": run.failed == 0 and not run.errors,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
