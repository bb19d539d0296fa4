"""Live telemetry tests: emitter cadence, file transport, renderer.

The telemetry feed is observability, not science — so these tests pin
the *protocol* (when beats fire, what they carry, how partial files are
tolerated) with a fake clock, and separately check that real serial and
parallel sweeps produce a complete, readable feed.
"""

from __future__ import annotations

import json

from repro.core.two_process import TwoProcessProtocol
from repro.obs.telemetry import (
    Heartbeat,
    TelemetryEmitter,
    file_sink,
    latest_by_shard,
    read_telemetry,
    render_top,
)
from repro.sched.simple import RandomScheduler
from repro.sim.runner import ExperimentRunner


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.25
        return self.t


def make_runner(seed=9):
    return ExperimentRunner(
        protocol_factory=lambda: TwoProcessProtocol(),
        scheduler_factory=lambda rng: RandomScheduler(rng),
        inputs_factory=lambda i, rng: ("a", "b"),
        seed=seed,
    )


class TestEmitter:
    def test_stride_and_final_beat(self):
        beats = []
        emitter = TelemetryEmitter(3, 20, beats.append, every=5,
                                   clock=FakeClock())
        for _ in range(20):
            emitter.record_run(total_steps=10)
        emitter.finish()
        # Beats at 5, 10, 15 — never at runs_total — plus the final.
        assert [b["runs_done"] for b in beats] == [5, 10, 15, 20]
        assert [b["done"] for b in beats] == [False, False, False, True]
        assert all(b["shard"] == 3 for b in beats)
        assert beats[-1]["steps"] == 200
        assert beats[-1]["eta_s"] is None
        assert all(b["eta_s"] > 0 for b in beats[:-1])

    def test_default_stride_is_one_percent(self):
        beats = []
        emitter = TelemetryEmitter(0, 500, beats.append,
                                   clock=FakeClock())
        for _ in range(500):
            emitter.record_run(total_steps=1)
        emitter.finish()
        assert emitter._every == 5
        assert len(beats) == 100  # 99 stride beats + the final one

    def test_tiny_shard_reports_exactly_once(self):
        beats = []
        emitter = TelemetryEmitter(0, 1, beats.append, clock=FakeClock())
        emitter.record_run(total_steps=7)
        emitter.finish()
        assert len(beats) == 1
        assert beats[0]["done"] is True
        assert beats[0]["runs_done"] == 1

    def test_tail_carries_percentiles_and_delta(self):
        beats = []
        emitter = TelemetryEmitter(0, 6, beats.append, every=3,
                                   clock=FakeClock())
        for steps in (10, 20, 30, 40, 50, 60):
            emitter.record_run(total_steps=steps)
        emitter.finish()
        first, last = beats[0]["tail"], beats[-1]["tail"]
        assert first["max"] == 30 and first["new"] == 3
        assert last["max"] == 60 and last["new"] == 3
        assert first["p50"] == 20
        assert set(last) == {"p50", "p90", "p99", "max", "new"}

    def test_heartbeat_json_round_trip(self):
        beats = []
        emitter = TelemetryEmitter(2, 4, beats.append, every=2,
                                   clock=FakeClock())
        for _ in range(4):
            emitter.record_run(total_steps=5)
        emitter.finish()
        for d in beats:
            beat = Heartbeat.from_dict(json.loads(json.dumps(d)))
            assert beat.to_dict() == d


class TestFileTransport:
    def test_file_sink_then_read_telemetry(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as fh:
            emitter = TelemetryEmitter(1, 10, file_sink(fh), every=4,
                                       clock=FakeClock())
            for _ in range(10):
                emitter.record_run(total_steps=3)
            emitter.finish()
        beats = read_telemetry(path)
        assert [b.runs_done for b in beats] == [4, 8, 10]
        assert beats[-1].done

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = Heartbeat(shard=0, runs_done=5, runs_total=10, steps=50,
                         elapsed_s=1.0, steps_per_s=50.0, eta_s=1.0,
                         done=False, tail={}).to_dict()
        path.write_text(json.dumps(good) + "\n" + '{"shard": 1, "run')
        beats = read_telemetry(str(path))
        assert len(beats) == 1
        assert beats[0].runs_done == 5

    def test_latest_by_shard_keeps_file_order(self):
        def beat(shard, runs_done, done=False):
            return Heartbeat(shard=shard, runs_done=runs_done,
                             runs_total=10, steps=0, elapsed_s=1.0,
                             steps_per_s=0.0, eta_s=None, done=done,
                             tail={})
        latest = latest_by_shard(
            [beat(0, 2), beat(1, 3), beat(0, 7, done=True)])
        assert latest[0].runs_done == 7 and latest[0].done
        assert latest[1].runs_done == 3


class TestRenderTop:
    def test_empty_feed(self):
        assert render_top([]) == "(no heartbeats yet)"

    def test_rows_and_footer(self):
        beats = [
            Heartbeat(shard=0, runs_done=10, runs_total=10, steps=400,
                      elapsed_s=2.0, steps_per_s=200.0, eta_s=None,
                      done=True,
                      tail={"p50": 40, "p90": 44, "p99": 44.5,
                            "max": 50, "new": 2}),
            Heartbeat(shard=1, runs_done=5, runs_total=10, steps=150,
                      elapsed_s=2.0, steps_per_s=75.0, eta_s=90.0,
                      done=False,
                      tail={"p50": 30, "p90": 33, "p99": 33.9,
                            "max": 35, "new": 5}),
        ]
        text = render_top(beats)
        lines = text.splitlines()
        assert len(lines) == 4  # header, two shards, footer
        assert "done" in lines[1] and "running" in lines[2]
        assert "1.5m" in lines[2]  # formatted ETA
        assert "33.9" in lines[2]  # float p99 rendered tersely
        assert lines[3].lstrip().startswith("all")
        assert "15/20" in lines[3]
        assert "550 steps total" in lines[3]


class TestSweepIntegration:
    def test_serial_run_many_writes_complete_feed(self, tmp_path):
        path = str(tmp_path / "serial.jsonl")
        stats = make_runner().run_many(8, max_steps=4000,
                                       telemetry_path=path)
        beats = read_telemetry(path)
        assert beats and beats[-1].done
        assert beats[-1].shard == 0
        assert beats[-1].runs_done == 8
        assert beats[-1].steps == sum(r.total_steps for r in stats.runs)
        assert "done" in render_top(beats)

    def test_parallel_sweep_all_shards_report_done(self, tmp_path):
        from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                          SchedulerSpec)

        path = str(tmp_path / "par.jsonl")
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=9,
        )
        runner.run_many(9, max_steps=4000, workers=2,
                        shard_size=3, telemetry_path=path)
        latest = latest_by_shard(read_telemetry(path))
        assert sorted(latest) == [0, 1, 2]
        assert all(b.done for b in latest.values())
        assert sum(b.runs_done for b in latest.values()) == 9
        assert all(b.runs_total == 3 for b in latest.values())

    def test_telemetry_does_not_perturb_results(self, tmp_path):
        plain = make_runner().run_many(6, max_steps=4000)
        with_feed = make_runner().run_many(
            6, max_steps=4000,
            telemetry_path=str(tmp_path / "t.jsonl"))
        assert [r.decisions for r in plain.runs] == \
            [r.decisions for r in with_feed.runs]
        assert [r.total_steps for r in plain.runs] == \
            [r.total_steps for r in with_feed.runs]
