"""Out-of-program span tracing for the perfbench harness.

The traced run wraps each layer's public functions from here, never
from the program's source.  A wrapper records a span (name, start, end,
parent, run id) on entry/exit and adds counts at the same boundary.
Self time is kept exactly with a call stack: a span's self time is its
duration minus the durations of the traced calls nested inside it.

Processes.  Spawned pool workers do not inherit the parent's patches.
The harness entry script calls :func:`start` at import time when
:data:`ENV_DIR` is set, and spawned workers re-import that script as
``__mp_main__``, so every process is traced.  Pool workers are
terminated without running ``atexit``: a worker writes its in-memory
record to :data:`ENV_DIR` each time a top-level traced call (a shard,
a frontier level, the pool initializer) returns.  The span that starts
a pool exports its id in :data:`ENV_PARENT`, so worker root spans name
it as their parent.

Clock: ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which is
shared by all processes on a host, so worker spans and parent spans
share one time axis.

Hot functions (MT word draws, frontier codec, lazy lowering) are timed
but not kept as span records, so a large search does not hold a span
per state in memory.
"""

from __future__ import annotations

import functools
import glob
import importlib.abc
import os
import pickle
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Directory traced workers flush their records into; tracing is on
#: in every process that sees it.
ENV_DIR = "PERFBENCH_TRACE_DIR"
#: Id of the span that started the current pool.
ENV_PARENT = "PERFBENCH_TRACE_PARENT"
#: Id of the workload run (one timed call) the spans belong to.
ENV_RUN = "PERFBENCH_TRACE_RUN"

#: Layers, named by module, in report order.
LAYERS = ("spec", "store", "parallel", "sim.kernel", "sim.transitions",
          "ir.lower", "ir.mt", "ir.vector", "obs", "checker.statespace",
          "parallel.frontier")

ROOT_LAYER = "bench"


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


class Recorder:
    """Spans and counts of one process."""

    def __init__(self, role: str, trace_dir: str) -> None:
        self.role = role  # "main" (the harness process) or "worker"
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.seq = 0
        self.flushes = 0
        self.stack: List[list] = []
        self.run_id = os.environ.get(ENV_RUN, "")
        self.reset()

    def reset(self) -> None:
        self.spans: List[Tuple] = []
        #: (start, end) of the top-level traced calls of this process.
        self.roots: List[Tuple[float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.keys: Dict[str, set] = defaultdict(set)
        self.compiled: List[Any] = []

    @property
    def active(self) -> bool:
        # The harness process traces only inside its timed calls; a
        # worker traces everything it runs.
        return bool(self.stack) or self.role == "worker"

    def enter(self, name: str) -> list:
        self.seq += 1
        parent = (self.stack[-1][3] if self.stack
                  else os.environ.get(ENV_PARENT))
        frame = [name, time.monotonic(), 0.0, f"{self.pid}.{self.seq}",
                 parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool) -> None:
        end = time.monotonic()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span stack out of order: {top[0]} "
                               f"closed as {frame[0]}")
        name, start, child, span_id, parent = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.roots.append((start, end))
        if keep:
            self.spans.append((span_id, parent, name, start, end,
                               self.run_id))

    def count(self, key: str, n: float = 1) -> None:
        if self.active:
            self.counts[key] += n

    def record(self) -> Dict[str, Any]:
        return {
            "role": self.role, "pid": self.pid, "spans": self.spans,
            "roots": self.roots,
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts),
            "keys": dict(self.keys),
            "compiled": [[cp.n_states, cp.n_branches]
                         for cp in self.compiled],
        }

    def flush(self) -> None:
        """Write this worker's record out and start a fresh one."""
        self.flushes += 1
        path = os.path.join(self.trace_dir,
                            f"worker-{self.pid}-{self.flushes}.pkl")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(self.record(), fh)
        os.replace(tmp, path)
        self.reset()


_REC: Optional[Recorder] = None


def recorder() -> Optional[Recorder]:
    return _REC


def _span(name: str, fn: Callable, *, keep: bool = True,
          when: Optional[Callable] = None,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None,
          spawns: bool = False) -> Callable:
    """Wrap ``fn`` in a span named ``name``.

    ``when(*args)`` gates the span (a false answer calls straight
    through); ``before(rec, args, kwargs)`` returns a token handed to
    ``after(rec, result, args, kwargs, token)``, which adds counts.
    ``spawns`` marks a call that starts a pool: its span id is exported
    so the pool's workers can name it as their parent.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        if not rec.active or (when is not None and not when(*args)):
            return fn(*args, **kwargs)
        token = before(rec, args, kwargs) if before is not None else None
        frame = rec.enter(name)
        if spawns:
            saved = os.environ.get(ENV_PARENT)
            os.environ[ENV_PARENT] = frame[3]
        try:
            result = fn(*args, **kwargs)
        finally:
            if spawns:
                if saved is None:
                    os.environ.pop(ENV_PARENT, None)
                else:
                    os.environ[ENV_PARENT] = saved
            rec.exit(frame, keep)
        if after is not None:
            after(rec, result, args, kwargs, token)
        if not rec.stack and rec.role == "worker":
            rec.flush()
        return result
    return wrapper


def _counter(key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _REC.count(key)
        return fn(*args, **kwargs)
    return wrapper


def _patch(owner: Any, attr: str,
           wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` (a class's own attribute or a module's)."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    setattr(owner, attr, wrap(original))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Apply a module's patches the moment it finishes executing.

    Patching on import, rather than importing everything up front,
    keeps a traced process importing exactly what an untraced one
    imports, and at the same moment.  Because the patch runs before any
    importer binds a name with ``from module import name``, those
    bindings see the wrapped function too.
    """

    def __init__(self, patchers: Dict[str, Callable[[Any], None]]) -> None:
        self.patchers = patchers

    def find_spec(self, name, path, target=None):
        patch = self.patchers.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def start(role: str, trace_dir: str) -> Recorder:
    """Turn tracing on in this process; layers are wrapped as they load."""
    global _REC
    if _REC is None:
        _REC = Recorder(role, trace_dir)
        patchers = _patchers()
        for name, patch in patchers.items():
            if name in sys.modules:
                patch(sys.modules[name])
        sys.meta_path.insert(0, _PatchOnImport(patchers))
    return _REC


def _patchers() -> Dict[str, Callable[[Any], None]]:
    """Module name -> function wrapping that module's traced calls."""

    def spec(m) -> None:
        _patch(m.RunSpec, "spec_hash", lambda f: _span("spec:hash", f))

    def store(m) -> None:
        def commit_after(rec, path, args, kwargs, token):
            rec.count("store.bytes_written", os.path.getsize(path))

        def load_after(rec, payload, args, kwargs, token):
            if payload is None:
                rec.count("store.load_misses")
            else:
                rec.count("store.load_hits")
                rec.count("store.bytes_read", os.path.getsize(
                    args[0].shard_path(*args[1:5])))

        _patch(m.RunStore, "commit_shard",
               lambda f: _span("store:commit", f, after=commit_after))
        _patch(m.RunStore, "load_shard",
               lambda f: _span("store:load", f, after=load_after))
        _patch(m.RunStore, "_heal", lambda f: _counter("store.healed", f))

    def parallel(m) -> None:
        def batch_after(rec, stats, args, kwargs, token):
            if stats.faults is not None:
                rec.count("parallel.retries", stats.faults.n_retries)

        _patch(m, "run_parallel",
               lambda f: _span("parallel:run_parallel", f,
                               after=batch_after, spawns=True))
        _patch(m, "_execute_shard", lambda f: _span("parallel:shard", f))

    def kernel(m) -> None:
        def sim_after(rec, result, args, kwargs, token):
            rec.count("sim.kernel.runs")
            rec.count("sim.kernel.steps", result.total_steps)

        _patch(m.Simulation, "run",
               lambda f: _span("sim.kernel:run", f, after=sim_after))

    def transitions(m) -> None:
        def build_after(rec, entry, args, kwargs, token):
            rec.count("sim.transitions.entries_built")
            rec.keys["sim.transitions"].add(args[1:3])

        _patch(m.TransitionCache, "_build",
               lambda f: _span("sim.transitions:build", f, keep=False,
                               after=build_after))

    def lower(m) -> None:
        # Eager compilation plus the lazy cells filled on first use.
        def compile_after(rec, cp, args, kwargs, token):
            rec.compiled.append(cp)

        def lazy_after(rec, result, args, kwargs, token):
            rec.count("ir.lower.lazy_compiles")

        _patch(m, "compile_protocol",
               lambda f: _span("ir.lower:compile", f, after=compile_after))
        _patch(m.CompiledProtocol, "ensure_compiled",
               lambda f: _span("ir.lower:lazy", f, keep=False,
                               when=lambda cp, sid: cp.state_nb[sid] < 0,
                               after=lazy_after))
        _patch(m.CompiledProtocol, "read_outcome",
               lambda f: _span("ir.lower:lazy", f, keep=False,
                               when=lambda cp, b, vid:
                               vid not in cp.br_read_out[b],
                               after=lazy_after))

    def mt(m) -> None:
        def twist_after(rec, result, args, kwargs, token):
            rec.count("ir.mt.words_generated", args[0].size)

        def drawn(per_row: int, scalar: bool = False):
            def after(rec, result, args, kwargs, token):
                # take_pairs falls back to two take_words; count once.
                if rec.stack and rec.stack[-1][0] == "ir.mt:take":
                    return
                rec.count("ir.mt.words_drawn",
                          per_row if scalar else per_row * len(args[1]))
            return after

        _patch(m, "init_by_array", lambda f: _span("ir.mt:seed", f))
        _patch(m, "twist", lambda f: _span("ir.mt:twist", f,
                                           after=twist_after))
        for attr, after in (("take_words", drawn(1)),
                            ("take_pairs", drawn(2)),
                            ("take_word_one", drawn(1, scalar=True))):
            _patch(m.MtRuns, attr,
                   lambda f, a=after: _span("ir.mt:take", f, keep=False,
                                            after=a))

    def vector(m) -> None:
        def batch_count(rec, result, args, kwargs, token):
            rec.count("ir.vector.batches")

        def events_before(rec, args, kwargs):
            return rec.counts.get("obs.sink_events", 0)

        def events_after(rec, result, args, kwargs, token):
            rec.count("ir.vector.replay_events",
                      rec.counts.get("obs.sink_events", 0) - token)

        _patch(m.VectorKernel, "__init__",
               lambda f: _span("ir.vector:init", f))
        _patch(m.VectorKernel, "run_batch",
               lambda f: _span("ir.vector:run_batch", f, after=batch_count))
        _patch(m, "replay_run",
               lambda f: _span("ir.vector:replay", f, before=events_before,
                               after=events_after))

    def sink_events(cls) -> None:
        # Every event delivered to a metrics or journal sink.
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("on_") and callable(value):
                _patch(cls, attr, lambda f: _counter("obs.sink_events", f))

    def metrics(m) -> None:
        sink_events(m.MetricsRegistry)
        _patch(m.MetricsRegistry, "merge",
               lambda f: _span("obs:metrics.merge", f))

    def journal(m) -> None:
        def concat_after(rec, events, args, kwargs, token):
            rec.count("obs.journal.bytes", os.path.getsize(args[1]))

        sink_events(m.JsonlJournal)
        _patch(m, "concatenate_journals",
               lambda f: _span("obs:journal.concat", f, after=concat_after))

    def level_before(rec, args, kwargs):
        return len(args[3])

    def level_after(prefix: str):
        def after(rec, result, args, kwargs, token):
            rec.count(prefix + ".items", len(args[1]))
            rec.count(prefix + ".edges", result[0])
            rec.count(prefix + ".new_states", len(args[3]) - token)
        return after

    def statespace(m) -> None:
        _patch(m.StateSpaceEngine, "__init__",
               lambda f: _span("checker.statespace:init", f))
        _patch(m.StateSpaceEngine, "expand_level",
               lambda f: _span("checker.statespace:expand_level", f,
                               before=level_before,
                               after=level_after("checker.statespace")))
        for attr in ("decode_item", "encode_item"):
            _patch(m.StateSpaceEngine, attr,
                   lambda f: _span("parallel.frontier:codec", f,
                                   keep=False))

    def frontier(m) -> None:
        def shard_after(rec, result, args, kwargs, token):
            rec.count("parallel.frontier.successors_back",
                      len(result.successors))
            rec.count("parallel.frontier.bytes_out",
                      len(pickle.dumps(args[0])))

        _patch(m.FrontierPool, "__init__",
               lambda f: _span("parallel.frontier:pool_start", f,
                               spawns=True))
        _patch(m.FrontierPool, "expand_level",
               lambda f: _span("parallel.frontier:expand_level", f,
                               before=level_before,
                               after=level_after("parallel.frontier")))
        _patch(m.FrontierPool, "close",
               lambda f: _span("parallel.frontier:close", f))
        _patch(m, "_expand_frontier_shard",
               lambda f: _span("parallel.frontier:shard", f,
                               after=shard_after))

    return {
        "repro.spec": spec,
        "repro.store": store,
        "repro.parallel.engine": parallel,
        "repro.sim.kernel": kernel,
        "repro.sim.transitions": transitions,
        "repro.ir.lower": lower,
        "repro.ir.mt": mt,
        "repro.ir.vector": vector,
        "repro.obs.metrics": metrics,
        "repro.obs.journal": journal,
        "repro.checker.statespace": statespace,
        "repro.parallel.frontier": frontier,
    }


class root:
    """The span around one timed call of the harness process.

    A no-op when tracing is off, so traced and untraced runs time the
    same region.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.frame = None

    def __enter__(self):
        rec = _REC
        if rec is not None:
            rec.run_id = self.run_id
            os.environ[ENV_RUN] = self.run_id
            self.frame = rec.enter(f"{ROOT_LAYER}:{self.run_id}")
        return self

    def __exit__(self, *exc) -> None:
        if self.frame is not None:
            _REC.exit(self.frame, True)


# ---------------------------------------------------------------------------
# Summary


def worker_records(trace_dir: str) -> List[Dict[str, Any]]:
    """The records this run's workers flushed (pickles they wrote)."""
    out = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.pkl"))):
        with open(path, "rb") as fh:
            out.append(pickle.load(fh))
    return out


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _overlap(lo: float, hi: float,
             cover: List[Tuple[float, float]]) -> float:
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in cover)


def _minus(lo: float, hi: float,
           holes: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out = []
    cur = lo
    for a, b in holes:
        if b <= cur or a >= hi:
            continue
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        out.append((cur, hi))
    return out


def summarize(main: Dict[str, Any],
              workers: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics from the harness record plus worker records.

    ``<layer>.self_s`` is the harness process's own time per layer,
    with the part spent waiting while worker spans ran moved to
    ``trace.workers_s``; with ``trace.unattributed_s`` (the timed
    calls' time outside every traced layer) they add up to
    ``trace.wall_s``.  Other ``*_s`` metrics sum over all processes.
    """
    recs = [main] + workers

    def total_self(name: str, roles=("main", "worker")) -> float:
        return sum(r["self_s"].get(name, 0.0) for r in recs
                   if r["role"] in roles)

    def total_calls(name: str, roles=("main", "worker")) -> int:
        return sum(r["calls"].get(name, 0) for r in recs
                   if r["role"] in roles)

    def total_count(key: str, roles=("main", "worker")) -> float:
        return sum(r["counts"].get(key, 0.0) for r in recs
                   if r["role"] in roles)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # Worker busy intervals: every top-level traced call of a worker.
    busy = _union([iv for r in workers for iv in r["roots"]])

    # The harness timeline: split each kept span's self time into the
    # part covered by worker activity and the rest.
    spans = main["spans"]
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    covered_self: Dict[str, float] = defaultdict(float)
    for s in spans:
        own = _minus(s[3], s[4], _union(children.get(s[0], [])))
        covered_self[s[2]] += sum(_overlap(lo, hi, busy) for lo, hi in own)
    main_self = main["self_s"]
    layer_self: Dict[str, float] = defaultdict(float)
    for name, t in main_self.items():
        # A span's covered part never exceeds its self time.
        layer_self[layer_of(name)] += t - min(covered_self.get(name, 0.0),
                                              t)
    wall = sum(end - start for start, end in main["roots"])
    workers_s = sum(min(covered_self.get(name, 0.0), t)
                    for name, t in main_self.items())

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.workers_s"] = workers_s
    out["trace.unattributed_s"] = layer_self.get(ROOT_LAYER, 0.0)

    # spec
    out["spec.hash_calls"] = total_calls("spec:hash")
    out["spec.hash_s"] = total_self("spec:hash")

    # store
    out["store.commits"] = total_calls("store:commit")
    out["store.commit_s"] = total_self("store:commit")
    out["store.bytes_written"] = total_count("store.bytes_written")
    out["store.load_hits"] = total_count("store.load_hits")
    out["store.load_misses"] = total_count("store.load_misses")
    out["store.load_s"] = total_self("store:load")
    out["store.bytes_read"] = total_count("store.bytes_read")
    out["store.healed"] = total_count("store.healed")

    # parallel
    shard_spans = [s for r in recs for s in r["spans"]
                   if s[2] == "parallel:shard"]
    out["parallel.shards"] = len(shard_spans)
    out["parallel.shard_busy_s"] = sum(s[4] - s[3] for s in shard_spans)
    out["parallel.shard_busy_max_s"] = max(
        (s[4] - s[3] for s in shard_spans), default=0.0)
    merge_s = 0.0
    for s in spans:
        if s[2] != "parallel:run_parallel":
            continue
        ends = [c[4] for c in spans if c[1] == s[0]
                and layer_of(c[2]) in ("store", "parallel")]
        ends += [hi for lo, hi in busy if s[3] <= lo and hi <= s[4]]
        merge_s += s[4] - max(ends, default=s[3])
    out["parallel.merge_s"] = merge_s
    out["parallel.retries"] = total_count("parallel.retries")

    # sim.kernel / sim.transitions
    out["sim.kernel.runs"] = total_count("sim.kernel.runs")
    out["sim.kernel.steps"] = total_count("sim.kernel.steps")
    out["sim.kernel.run_s"] = total_self("sim.kernel:run")
    built = total_count("sim.transitions.entries_built")
    distinct = set()
    for r in recs:
        distinct.update(r["keys"].get("sim.transitions", ()))
    out["sim.transitions.entries_built"] = built
    out["sim.transitions.rebuild_ratio"] = ratio(built, len(distinct))

    # ir.lower
    out["ir.lower.compile_s"] = (total_self("ir.lower:compile")
                                 + total_self("ir.lower:lazy"))
    out["ir.lower.states"] = sum(c[0] for r in recs for c in r["compiled"])
    out["ir.lower.branches"] = sum(c[1] for r in recs
                                   for c in r["compiled"])
    out["ir.lower.lazy_compiles"] = total_count("ir.lower.lazy_compiles")

    # ir.mt
    generated = total_count("ir.mt.words_generated")
    drawn = total_count("ir.mt.words_drawn")
    out["ir.mt.seed_s"] = total_self("ir.mt:seed")
    out["ir.mt.twist_s"] = total_self("ir.mt:twist")
    out["ir.mt.words_generated"] = generated
    out["ir.mt.words_drawn"] = drawn
    out["ir.mt.useful_ratio"] = ratio(drawn, generated)

    # ir.vector
    out["ir.vector.batches"] = total_count("ir.vector.batches")
    out["ir.vector.run_batch_self_s"] = total_self("ir.vector:run_batch")
    out["ir.vector.replay_s"] = total_self("ir.vector:replay")
    out["ir.vector.replay_events"] = total_count("ir.vector.replay_events")

    # obs
    out["obs.sink_events"] = total_count("obs.sink_events")
    out["obs.metrics.merge_s"] = total_self("obs:metrics.merge")
    out["obs.journal.bytes"] = total_count("obs.journal.bytes")
    out["obs.journal.concat_s"] = total_self("obs:journal.concat")

    # checker.statespace: levels and new states count where the global
    # visited set lives (the harness process); expansion work counts
    # wherever it ran.
    main_only = ("main",)
    owner_edges = (total_count("checker.statespace.edges", main_only)
                   + total_count("parallel.frontier.edges", main_only))
    new_states = (total_count("checker.statespace.new_states", main_only)
                  + total_count("parallel.frontier.new_states", main_only))
    out["checker.statespace.init_s"] = total_self("checker.statespace:init")
    out["checker.statespace.levels"] = (
        total_calls("checker.statespace:expand_level", main_only)
        + total_calls("parallel.frontier:expand_level", main_only))
    out["checker.statespace.items_expanded"] = total_count(
        "checker.statespace.items")
    out["checker.statespace.edges"] = owner_edges
    out["checker.statespace.new_states"] = new_states
    out["checker.statespace.dedup_ratio"] = ratio(new_states, owner_edges)
    out["checker.statespace.expand_s"] = total_self(
        "checker.statespace:expand_level")

    # parallel.frontier
    out["parallel.frontier.pool_start_s"] = total_self(
        "parallel.frontier:pool_start")
    out["parallel.frontier.levels"] = total_calls(
        "parallel.frontier:expand_level")
    out["parallel.frontier.items_out"] = total_count(
        "parallel.frontier.items")
    out["parallel.frontier.successors_back"] = total_count(
        "parallel.frontier.successors_back")
    out["parallel.frontier.bytes_out"] = total_count(
        "parallel.frontier.bytes_out")
    out["parallel.frontier.codec_s"] = total_self(
        "parallel.frontier:codec", main_only)
    out["parallel.frontier.level_s"] = sum(
        s[4] - s[3] for s in spans
        if s[2] == "parallel.frontier:expand_level")
    return out


def additivity_error(summary: Dict[str, float]) -> float:
    """|sum of layer self times + workers + unattributed - wall|."""
    parts = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    parts += summary["trace.workers_s"] + summary["trace.unattributed_s"]
    return abs(parts - summary["trace.wall_s"])
