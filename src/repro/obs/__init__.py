"""Kernel-level observability: hooks, metrics, journals, and timers.

The simulation kernel serializes an asynchronous execution into a single
global order of register operations.  Everything the paper quantifies —
steps-to-decide distributions (Theorem 7's tail), coin flips per
decision, the ``num``-field depth of the three-processor protocol
(Theorem 9's (3/4)^k envelope) — is a function of that event stream.

This subpackage makes the stream first-class without making the kernel
slow or memory-hungry:

* :mod:`repro.obs.hooks` — the event protocol (:class:`BaseSink`) and
  the fan-out hub (:class:`ObsHub`) the kernel drives.  With no sinks
  attached the kernel keeps a ``None`` hub and pays only a handful of
  ``is not None`` checks per step.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, a sink holding
  counters, gauges, and integer histograms (p50/p90/p99) that
  aggregates cheaply across millions of steps and thousands of runs.
* :mod:`repro.obs.journal` — :class:`JsonlJournal`, a streaming sink
  writing one bounded JSON record per event; a journal can be replayed
  back into a fresh :class:`MetricsRegistry` to reproduce the exact
  metrics of the live run.
* :mod:`repro.obs.timers` — :class:`PhaseTimer`, a wall-clock profiling
  sink splitting run time into scheduler-choice / kernel-step /
  protocol-transition / memory-resolution phases.
* :mod:`repro.obs.tracing` — :class:`Tracer`, an OpenTelemetry-shaped
  span sink whose trace/span ids derive deterministically from the
  run's replay key, so a replay produces the identical trace.
* :mod:`repro.obs.telemetry` — per-shard heartbeats for live batch
  progress (``repro top``); wall-clock only, never part of results.
* :mod:`repro.obs.profiling` — :class:`TimeAttributionProfiler`,
  attributing run wall time to scheduler / transition / memory /
  kernel / hooks components for folded-stack flamegraphs.
* :mod:`repro.obs.export` — Prometheus text, OTLP-style JSON, and
  folded-stack emitters (with strict round-trip parsers).
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "BaseSink": "hooks",
    "ObsHub": "hooks",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "JsonlJournal": "journal",
    "JournalVerdict": "journal",
    "concatenate_journals": "journal",
    "iter_events": "journal",
    "iter_spans": "journal",
    "replay_journal": "journal",
    "verify_journal": "journal",
    "PhaseTimer": "timers",
    "Span": "tracing",
    "Tracer": "tracing",
    "trace_id_for": "tracing",
    "span_id_for": "tracing",
    "render_span_tree": "tracing",
    "Heartbeat": "telemetry",
    "TelemetryEmitter": "telemetry",
    "read_telemetry": "telemetry",
    "render_top": "telemetry",
    "TimeAttributionProfiler": "profiling",
    "profile_matrix": "profiling",
    "folded_stacks": "export",
    "otlp_json": "export",
    "parse_folded": "export",
    "parse_prometheus": "export",
    "prometheus_text": "export",
})
