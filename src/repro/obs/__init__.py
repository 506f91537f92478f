"""Telemetry substrate: spans, metrics, op-level profiler, exporters.

Dependency-free observability for the reproduction's hot paths.  The
default everywhere is the no-op :data:`NULL_TRACER` /
:data:`NULL_PROFILER`, so instrumentation costs nothing until a caller
opts in::

    from repro.obs import Tracer, TapeProfiler, get_registry

    tracer = Tracer()
    study = OptimizationStudy(tracer=tracer)
    study.gpu_table()
    write_chrome_trace(tracer.finished, "trace.json")
    print(get_registry().snapshot())

The profiler is the op-level layer (the reproduction's LIKWID): attach a
:class:`TapeProfiler` via ``UnifiedAssembler(..., profile=True)`` and
read per-op/per-phase wall time, derived bytes and Flops, roofline
points and folded flamegraphs back out of it.
"""

from .spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    TapeProfile,
    TapeProfiler,
)
from .export import (
    BENCH_SCHEMA,
    PrometheusExporter,
    chrome_trace_events,
    collapse_spans,
    profile_trace_events,
    prometheus_text,
    read_bench_json,
    read_spans_jsonl,
    write_bench_json,
    write_chrome_trace,
    write_flamegraph,
    write_prometheus,
    write_spans_jsonl,
)

__all__ = [
    "NULL_TRACER", "NullTracer", "Span", "Tracer", "get_tracer", "set_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
    "NULL_PROFILER", "NullProfiler", "TapeProfile", "TapeProfiler",
    "BENCH_SCHEMA", "chrome_trace_events", "profile_trace_events",
    "collapse_spans", "write_flamegraph",
    "prometheus_text", "write_prometheus", "PrometheusExporter",
    "read_bench_json", "read_spans_jsonl",
    "write_bench_json", "write_chrome_trace", "write_spans_jsonl",
]
