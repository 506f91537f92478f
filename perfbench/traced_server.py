"""``python -m repro.server`` with the benchmark's layer spans switched on.

Usage: ``traced_server.py OUT.json [server arguments...]``.  Runs the
unchanged server entry point inside :func:`layers.traced`; after the
server drains, writes the span durations and the program's kernel and
plan counters to ``OUT.json`` (the plain server's ``/stats`` exports
only its ``server.``/``resilience.``/``plan.`` counters).
"""

from __future__ import annotations

import json
import sys

from layers import durations, self_times, traced
from repro.obs.spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.obs.metrics import get_registry
    from repro.server.__main__ import main as server_main

    tracer = Tracer()
    with traced(tracer):
        code = server_main(argv)
    spans = tracer.finished
    by_name = {n: durations(spans, n) for n in {s.name for s in spans}}
    by_name["fem.plan_build"] = durations(spans, "fem.get_plan", built=True)
    snapshot = get_registry().snapshot()
    iterations = snapshot.get("fstep.pressure_iterations", {})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "durations": by_name,
            "step_self": self_times(spans, "physics.fractional_step.step"),
            "counters": {name: data["value"] for name, data in snapshot.items()
                         if data["kind"] == "counter"},
            "pressure_iterations_mean": iterations.get("mean") or 0.0,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
