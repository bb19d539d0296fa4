"""Differential tests for the fingerprinted state-space engine.

The load-bearing guarantee of :mod:`repro.checker.statespace` is that
it explores *exactly* the reachable-configuration set of the reference
object-graph explorer — same quantification over schedulers, coins and
(under weak memory) adversary read values — only faster.  These tests
assert that literally: the objects BFS's configurations, mapped through
``ExploreReport.fingerprint_of``, must equal the fingerprint set the
fast search visited, cell by cell across protocols and memory models,
in fingerprint and exact modes, serial and sharded.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.checker import explore, explore_fast, verify_safety
from repro.checker import statespace
from repro.core.deterministic import TwoProcessDeterministic
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.obs.telemetry import read_telemetry, render_top
from repro.obs.tracing import Tracer
from repro.parallel.frontier import FrontierPool, FrontierWorkerError
from repro.parallel.tasks import ProtocolSpec

# (label, factory, inputs, memory) — exhaustible cells spanning the
# protocol zoo and all three register semantics.
CELLS = [
    ("two-atomic", TwoProcessProtocol, ("a", "b"), None),
    ("two-regular", TwoProcessProtocol, ("a", "b"), "regular"),
    ("two-safe", TwoProcessProtocol, ("a", "b"), "safe"),
    ("naive3-atomic", lambda: NaiveProtocol(3), ("a", "b", "a"), None),
]


def _object_fps(report, graph):
    """Map every object-level configuration through the search's own
    canonicalization + fingerprint function."""
    return {report.fingerprint_of(config) for config in graph.depth_of}


class TestDifferential:
    @pytest.mark.parametrize(
        "label,factory,inputs,memory",
        CELLS, ids=[c[0] for c in CELLS])
    def test_visited_set_equals_objects_bfs(self, label, factory,
                                            inputs, memory):
        graph = explore(factory(), inputs, memory=memory)
        assert graph.complete
        report = explore_fast(factory(), inputs, memory=memory,
                              keep_fingerprints=True)
        assert report.ok
        assert report.exhausted
        assert report.truncated_by is None
        assert report.visited == len(graph.depth_of)
        assert _object_fps(report, graph) == report.fingerprints

    @pytest.mark.parametrize(
        "label,factory,inputs,memory",
        CELLS, ids=[c[0] for c in CELLS])
    def test_exact_mode_matches_fingerprint_mode(self, label, factory,
                                                 inputs, memory):
        fp = explore_fast(factory(), inputs, memory=memory)
        ex = explore_fast(factory(), inputs, memory=memory, exact=True,
                          keep_fingerprints=True)
        assert ex.exact and not fp.exact
        assert ex.visited == fp.visited
        assert ex.edges == fp.edges
        assert ex.depth == fp.depth
        assert ex.exhausted and fp.exhausted
        # Exact keys decode back through fingerprint_of too: the
        # objects graph maps onto them just as onto fingerprints.
        graph = explore(factory(), inputs, memory=memory)
        assert _object_fps(ex, graph) == ex.fingerprints

    def test_depth_limited_differential(self):
        # three_bounded's full space is ~17M configurations; the
        # depth-limited slice must still match the objects BFS exactly.
        graph = explore(ThreeBoundedProtocol(), ("a", "b", "a"),
                        max_depth=7)
        report = explore_fast(ThreeBoundedProtocol(), ("a", "b", "a"),
                              max_depth=7, keep_fingerprints=True)
        assert not report.exhausted
        assert report.truncated_by == "depth"
        assert report.visited == len(graph.depth_of)
        assert _object_fps(report, graph) == report.fingerprints

    def test_fingerprint_seed_changes_keys_not_counts(self):
        a = explore_fast(TwoProcessProtocol(), ("a", "b"),
                         keep_fingerprints=True)
        b = explore_fast(TwoProcessProtocol(), ("a", "b"),
                         fingerprint_seed=1, keep_fingerprints=True)
        assert a.visited == b.visited
        assert a.fingerprints != b.fingerprints


class TestViolationParity:
    def test_violation_message_and_witness_match_objects_engine(self):
        def selfish(pid, pref, read):
            return ("decide", pref)

        broken = TwoProcessDeterministic(selfish, "selfish")
        ref = verify_safety(broken, ("a", "b"))
        report = explore_fast(broken, ("a", "b"))
        assert not report.ok
        assert not report.exhausted
        assert report.truncated_by == "violation"
        assert report.violation == ref.violation
        assert report.witness is not None
        assert (report.witness.decisions(broken)
                == ref.witness.decisions(broken))
        assert "VIOLATION" in report.guarantee()

    def test_verify_safety_fingerprints_engine_flags_broken(self):
        def selfish(pid, pref, read):
            return ("decide", pref)

        broken = TwoProcessDeterministic(selfish, "selfish")
        report = verify_safety(broken, ("a", "b"), engine="fingerprints")
        assert not report.ok
        assert "consistency" in report.violation
        assert report.witness is not None


# (label, factory, inputs, explore_fast kwargs, how the search ends,
# report fields that must match serial).  The plain fingerprint/atomic
# cell is test_workers_visit_identical_fingerprint_set.  Under a state
# budget the sharded edge count covers whole worker slices, so only the
# visited set and frontier are pinned.
_FULL = ("visited", "edges", "depth", "exhausted", "truncated_by",
         "frontier", "ok", "fingerprints")
_BUDGET = ("visited", "truncated_by", "frontier", "ok", "fingerprints")
SHARDED_CELLS = [
    ("exact", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"exact": True}, None, _FULL),
    ("regular", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"memory": "regular"}, None, _FULL),
    ("por", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"por": True}, None, _FULL + ("pruned",)),
    ("symmetry-two", ProtocolSpec("two"), ("a", "b"),
     {"symmetry": True}, None, _FULL + ("symmetry_order",)),
    ("depth-cutoff", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"memory": "regular", "max_depth": 10}, "depth", _FULL),
    ("state-budget", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"max_states": 1000}, "states", _BUDGET),
    ("state-budget-por", ProtocolSpec("naive", 3), ("a", "b", "a"),
     {"por": True, "max_states": 1000}, "states", _BUDGET),
]


@pytest.fixture
def pool_levels(monkeypatch):
    """Force the worker path on small models; count the levels it runs."""
    monkeypatch.setattr(statespace, "MIN_PARALLEL_LEVEL", 4)
    levels = []
    original = FrontierPool.expand_level

    def counting(self, *args):
        levels.append(len(args[0]))
        return original(self, *args)

    monkeypatch.setattr(FrontierPool, "expand_level", counting)
    return levels


def _frontier_children():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("frontier-")]


class TestShardedFrontier:
    def test_workers_visit_identical_fingerprint_set(self, pool_levels):
        serial = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                              keep_fingerprints=True)
        sharded = explore_fast(
            NaiveProtocol(3), ("a", "b", "a"), workers=2,
            protocol_factory=ProtocolSpec("naive", 3),
            keep_fingerprints=True)
        assert pool_levels
        assert sharded.workers == 2
        assert serial.exhausted and sharded.exhausted
        assert serial.fingerprints == sharded.fingerprints
        assert serial.edges == sharded.edges

    @pytest.mark.parametrize(
        "label,factory,inputs,kwargs,truncated_by,fields",
        SHARDED_CELLS, ids=[c[0] for c in SHARDED_CELLS])
    def test_two_workers_match_serial(self, pool_levels, label, factory,
                                      inputs, kwargs, truncated_by, fields):
        serial = explore_fast(factory(), inputs, keep_fingerprints=True,
                              **kwargs)
        sharded = explore_fast(factory(), inputs, workers=2,
                               protocol_factory=factory,
                               keep_fingerprints=True, **kwargs)
        assert len(pool_levels) >= 2, "the worker path never ran"
        assert serial.ok and serial.truncated_by == truncated_by
        assert serial.exhausted == (truncated_by is None)
        for field in fields:
            assert getattr(sharded, field) == getattr(serial, field), field

    def test_violating_protocol_is_not_ok(self, pool_levels):
        # Finding F1: the literal Figure 2 rule breaks consistency.
        factory = functools.partial(ThreeUnboundedProtocol,
                                    decision_rule="literal")
        sharded = explore_fast(factory(), ("a", "b", "a"), workers=2,
                               protocol_factory=factory)
        assert pool_levels
        assert not sharded.ok
        assert sharded.truncated_by == "violation"
        assert "consistency" in sharded.violation
        assert sharded.witness is not None

    def test_killed_worker_raises_instead_of_hanging(self, pool_levels,
                                                     monkeypatch):
        counting = FrontierPool.expand_level

        def kill_then_expand(self, *args):
            if len(pool_levels) == 1:
                victim, = [p for p in _frontier_children()
                           if p.name == "frontier-1"]
                os.kill(victim.pid, signal.SIGKILL)
            return counting(self, *args)

        monkeypatch.setattr(FrontierPool, "expand_level", kill_then_expand)
        t0 = time.monotonic()
        with pytest.raises(FrontierWorkerError,
                           match=r"worker 1 .*died at depth \d+"):
            explore_fast(NaiveProtocol(3), ("a", "b", "a"), workers=2,
                         protocol_factory=ProtocolSpec("naive", 3))
        assert time.monotonic() - t0 < 10
        assert len(pool_levels) == 2
        assert _frontier_children() == []

    def test_worker_failure_names_worker_and_depth(self, pool_levels):
        with pytest.raises(FrontierWorkerError,
                           match=r"worker 0 failed at depth \d+"):
            explore_fast(NaiveProtocol(3), ("a", "b", "a"), workers=2,
                         protocol_factory=ProtocolSpec("no-such-protocol"))
        assert _frontier_children() == []

    def test_workers_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            explore_fast(TwoProcessProtocol(), ("a", "b"), workers=0)


class TestTelemetry:
    def test_heartbeats_stream_progress_and_final_done(self):
        beats = []
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              heartbeat_sink=beats.append,
                              heartbeat_every=10)
        assert beats
        assert beats[-1]["done"] is True
        assert beats[-1]["runs_done"] == report.visited
        assert all(b["tail"]["depth"] <= report.depth for b in beats)
        done_counts = [b["runs_done"] for b in beats]
        assert done_counts == sorted(done_counts)

    def test_telemetry_file_renders_in_top(self, tmp_path):
        path = tmp_path / "beats.jsonl"
        explore_fast(TwoProcessProtocol(), ("a", "b"),
                     telemetry_path=str(path), heartbeat_every=10)
        with open(path) as fh:
            for line in fh:
                json.loads(line)
        beats = read_telemetry(str(path))
        assert beats and beats[-1].done
        rendered = render_top(beats)
        assert "states" in rendered or "shard" in rendered or rendered

    def test_explore_span_has_visited_and_frontier_attrs(self):
        tracer = Tracer()
        explore_fast(TwoProcessProtocol(), ("a", "b"), tracer=tracer)
        spans = [s for s in tracer.spans if s.name == "checker.explore"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["visited"] > 0
        assert attrs["frontier"] == 0
        assert attrs["complete"] is True


class TestReportShape:
    def test_guarantee_strings_mirror_safety_report(self):
        full = explore_fast(TwoProcessProtocol(), ("a", "b"))
        assert "full reachable" in full.guarantee()
        partial = explore_fast(TwoProcessProtocol(), ("a", "b"),
                               max_depth=3)
        assert "up to depth" in partial.guarantee()

    def test_report_metadata_fields(self):
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              memory="regular")
        assert report.protocol == TwoProcessProtocol().name
        assert report.inputs == ("a", "b")
        assert report.memory == "regular"
        assert report.states_per_sec > 0
        assert report.workers == 1
        assert report.frontier == 0
        # fingerprints only materialize on request
        assert report.fingerprints is None
