"""Spans recorded around calls into the program's layers, from outside it.

The benchmark never edits the program: tracing replaces a few public
entry points (a class method or a module function) with a wrapper that
records a span on a :class:`repro.obs.spans.Tracer`, and restores the
originals afterwards.  The same wrappers run in the benchmark process and
inside the traced campaign server (``traced_server.py``).  The helpers
below read a tracer's finished spans.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from typing import Dict, List, Sequence

from repro.obs.spans import Span, Tracer


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _named(spans: List[Span], name: str, attrs: dict) -> List[Span]:
    rows = [s for s in spans if s.name == name
            and all(s.attributes.get(k) == v for k, v in attrs.items())]
    return sorted(rows, key=lambda s: s.start)


def durations(spans: List[Span], name: str, **attrs) -> List[float]:
    """Durations (seconds) of the spans called ``name`` whose attributes
    include ``attrs``, in start order."""
    return [s.duration for s in _named(spans, name, attrs)]


def self_times(spans: List[Span], name: str) -> List[float]:
    """Per span ``name``: duration minus the time its direct children cover."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration
    return [s.duration - child_time.get(s.span_id, 0.0) for s in _named(spans, name, {})]


def children_per_parent(spans: List[Span], parent_name: str) -> Dict[str, float]:
    """Mean number of direct children of each name per ``parent_name`` span."""
    parents = {s.span_id for s in spans if s.name == parent_name}
    counts: Dict[str, int] = {}
    for s in spans:
        if s.parent_id in parents:
            counts[s.name] = counts.get(s.name, 0) + 1
    n = max(len(parents), 1)
    return {name: c / n for name, c in counts.items()}


def entry_points() -> list:
    """``(owner, attribute, span name)`` for each layer boundary wrapped.

    Class attributes are wrapped so objects the program builds
    internally (the server's campaigns, the default ``PressureSolver`` of
    a ``FractionalStepSolver``) are traced too.
    """
    from repro.core.unified import UnifiedAssembler
    from repro.fem import meshgen
    from repro.physics.fractional_step import BatchCampaign, FractionalStepSolver
    from repro.physics.pressure import PressureSolver
    from repro.server.client import CampaignClient

    return [
        (meshgen, "box_tet_mesh", "fem.mesh_build"),
        (meshgen, "bolund_like_mesh", "fem.mesh_build"),
        (UnifiedAssembler, "assemble", "core.assemble"),
        (UnifiedAssembler, "run_batch", "core.run_batch"),
        (PressureSolver, "__post_init__", "physics.pressure.setup"),
        (PressureSolver, "solve", "physics.pressure.solve"),
        (PressureSolver, "pressure_gradient", "physics.pressure.gradient"),
        (FractionalStepSolver, "advance", "physics.fractional_step.step"),
        (BatchCampaign, "advance", "physics.fractional_step.step"),
        (CampaignClient, "status", "client.poll"),
    ]


def _wrap(fn, tracer: Tracer, name: str):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_get_plan(fn, tracer: Tracer):
    """``get_plan`` spans carry ``built=True`` on the calls that build a
    plan (cache misses): ``durations(spans, "fem.get_plan", built=True)``."""
    from repro.obs.metrics import get_registry

    builds = get_registry().counter("plan.builds")

    def wrapper(mesh):
        before = builds.value
        with tracer.span("fem.get_plan") as span:
            plan = fn(mesh)
            span.attributes["built"] = builds.value != before
        return plan

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every entry point for the duration of the block.

    ``get_plan`` is imported by name into many modules, so every loaded
    ``repro`` module that holds the original function gets the wrapper.
    """
    from repro.fem import plan as plan_module

    saved = []
    for owner, attr, name in entry_points():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, tracer, name))
    get_plan = plan_module.get_plan
    wrapped = _wrap_get_plan(get_plan, tracer)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "get_plan", None) is get_plan):
            saved.append((module, "get_plan", get_plan))
            setattr(module, "get_plan", wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
