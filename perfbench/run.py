#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload les_bolund --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``les_bolund``  -- single-scenario LES of the Bolund case, codegen RSP;
* ``campaign_b8`` -- 8-scenario lockstep ``BatchCampaign``, compiled B;
* ``serve_mixed`` -- closed-loop mixed traffic against ``python -m repro.server``.

``--trace 0`` measures the end-to-end metrics with tracing off; on the
solver workloads its window is split over fresh worker processes.
``--trace 1`` measures, in one process, half the window untraced and half with the layer
spans of ``layers.py`` on, and reports the per-layer metrics, the
tracing overhead and the layer accounting.  Both modes run the
correctness gate outside the timed window and exit 1 when it fails.
Human-readable lines come first; the last line of standard output is the
JSON result.  Run details (host context, exact counts, spans) are
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("les_bolund", "campaign_b8", "serve_mixed")
#: set-up is measured this many times per run, each time in a fresh
#: process or server, so no process cache is warm.  The untraced window is
#: split over as many fresh processes (or servers), whose step times are
#: pooled, and each takes the opening phase whose exact counts must agree.
SETUP_SAMPLES = 3
#: on a traced run, the per-step layer medians plus the fractional-step
#: self time must add up to the median step wall time within this share
ACCOUNTING_SHARE = 0.15

#: the end-to-end metrics of the result line.  The median and the
#: throughput are printed but not reported: on a shared host the cores
#: move between a fast and a slow state over tens of seconds, and the
#: share of steps in each sets the median and the mean, while the p90
#: sits in the slow state on every run (les_bolund over ten runs: median
#: spread 15-21%, p90 4-12%; see README.md).
E2E = {"latency_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = {
    "fem.mesh_build_ms": "ms", "fem.plan_build_ms": "ms",
    "core.assemble_calls": "count", "core.assemble_ms_p50": "ms",
    "core.assemble_cold_ms": "ms", "core.elem_per_s": "1/s",
    "core.run_batch_calls": "count", "core.run_batch_ms_p50": "ms",
    "core.run_batch_cold_ms": "ms",
    "physics.pressure.setup_ms": "ms", "physics.pressure.solve_ms_p50": "ms",
    "physics.pressure.iterations_mean": "count",
    "physics.pressure.escalations": "count",
    "physics.pressure.gradient_ms_p50": "ms",
    "physics.fractional_step.self_ms_p50": "ms",
    "physics.fractional_step.rollbacks": "count",
    "server.service_ms_p50": "ms", "server.wait_ms_p50": "ms",
    "server.result_cache_hit_ratio": "share", "server.mesh_cache_hit_ratio": "share",
    "server.cold_kernels_per_req": "count", "server.plan_builds": "count",
    "server.rejections": "count", "client.polls_per_req": "count",
    "trace.overhead_pct": "%", "trace.accounting_gap": "share",
    "count.assemble_calls": "count", "count.run_batch_calls": "count",
    "count.pressure_iterations": "count", "count.tape_records": "count",
    "count.kernel_compiles": "count", "count.plan_builds": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes (the self-check uses them)")
    ap.add_argument("--worker", type=float, metavar="SECONDS",
                    help="one process of a solver workload: the opening phase, a "
                         "timed window of SECONDS (0 for none) and the correctness "
                         "gate; prints its result as JSON")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload tiny and validate the output")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def host_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": os.getloadavg(),
    }


def ms(seconds: float) -> float:
    return 1e3 * seconds


# -- solver workloads ------------------------------------------------------
def solver_counts(delta: dict, iterations: int) -> dict:
    return {
        "count.assemble_calls": delta["tape.executions"] + delta["codegen.executions"],
        "count.run_batch_calls": (delta["tape.batch_executions"]
                                  + delta["codegen.batch_executions"]),
        "count.pressure_iterations": iterations,
        "count.tape_records": delta["tape.records"] + delta["tape.batch_records"],
        "count.kernel_compiles": (delta["tape.compiles"] + delta["tape.batch_compiles"]
                                  + delta["codegen.compiles"]),
        "count.plan_builds": delta["plan.builds"],
    }


def open_case(args) -> tuple:
    """The opening phase: build the case (set-up ends with its first
    step), then one warm step.  Returns ``(case, setup_s, exact counts)``."""
    from solvers import CASES, counters

    start = counters()
    t0 = time.perf_counter()
    case = CASES[args.workload](args.seed, tiny=args.tiny)
    setup_s = time.perf_counter() - t0
    case.step()
    end = counters()
    counts = solver_counts({k: end[k] - start[k] for k in end},
                           sum(case.pressure_iterations()))
    return case, setup_s, counts


def worker(args, seconds: float) -> dict:
    """:func:`solver_process` in a fresh process."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker", repr(seconds),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--tiny"] if args.tiny else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def window_drift(case, times: list) -> dict:
    """Step p50 and pressure iterations per scenario-step in the first and
    the second half of the window: a transient that changes the work per
    step as the run gets further shows here."""
    from layers import median

    n, h = len(times), len(times) // 2
    iters = case.pressure_iterations(n)  # scenario-major: step i is iters[i::n]
    if h == 0 or len(iters) != n * case.scenarios:
        return {}

    def mean_iters(steps):
        values = [x for i in steps for x in iters[i::n]]
        return sum(values) / len(values)

    return {"step_ms_p50": [ms(median(times[:h])), ms(median(times[h:]))],
            "pressure_iterations": [mean_iters(range(h)), mean_iters(range(h, n))]}


def solver_layers(case, setup, spans, window_steps: int) -> dict:
    """Per-layer metrics of one traced window (set-up spans in ``setup``)."""
    from layers import children_per_parent, durations, median, self_times

    def p50(name, among=spans):
        return ms(median(durations(among, name)))

    def first(name):
        times = durations(setup, name)
        return ms(times[0]) if times else 0.0

    step = "physics.fractional_step.step"
    asm, batch = durations(spans, "core.assemble"), durations(spans, "core.run_batch")
    kernel_s = sum(asm) + sum(batch)
    elements = case.mesh.nelem * (len(asm) + case.scenarios * len(batch))
    self_p50 = ms(median(self_times(spans, step)))
    accounted = self_p50 + sum(
        n * p50(name) for name, n in children_per_parent(spans, step).items())
    iters = case.pressure_iterations(window_steps)
    return {
        "fem.mesh_build_ms": p50("fem.mesh_build", setup),
        "fem.plan_build_ms": ms(median(durations(setup, "fem.get_plan", built=True))),
        "core.assemble_calls": len(asm),
        "core.assemble_ms_p50": ms(median(asm)),
        "core.assemble_cold_ms": first("core.assemble"),
        "core.elem_per_s": elements / kernel_s,
        "core.run_batch_calls": len(batch),
        "core.run_batch_ms_p50": ms(median(batch)),
        "core.run_batch_cold_ms": first("core.run_batch"),
        "physics.pressure.setup_ms": p50("physics.pressure.setup", setup),
        "physics.pressure.solve_ms_p50": p50("physics.pressure.solve"),
        "physics.pressure.iterations_mean": sum(iters) / len(iters),
        "physics.pressure.gradient_ms_p50": p50("physics.pressure.gradient"),
        "physics.fractional_step.self_ms_p50": self_p50,
        "trace.accounting_gap": abs(accounted - p50(step)) / p50(step),
    }


def solver_process(args, seconds: float, trace: bool = False) -> dict:
    """One process of a solver workload: the opening phase, a timed window
    of ``seconds`` (traced runs: half untraced, half traced) and the
    correctness gate."""
    from layers import median, traced
    from repro.obs.spans import Tracer
    from solvers import counters, timed_window

    start = counters()
    setup_tracer = Tracer()
    with traced(setup_tracer) if trace else contextlib.nullcontext():
        case, setup_s, counts = open_case(args)
    part = {"setup_s": setup_s, "counts": counts, "scenarios": case.scenarios,
            "elements": case.mesh.nelem}
    if not trace:
        times = timed_window(case, seconds) if seconds else []
        part.update(times=times, drift=window_drift(case, times))
    else:
        untraced = timed_window(case, seconds / 2)
        before = counters()
        tracer = Tracer()
        with traced(tracer):
            times = timed_window(case, seconds / 2)
        after = counters()
        layers = solver_layers(case, setup_tracer.finished, tracer.finished, len(times))
        layers.update({
            "physics.pressure.escalations": (after["resilience.solver_escalations"]
                                             - before["resilience.solver_escalations"]),
            "physics.fractional_step.rollbacks": (after["resilience.rollbacks"]
                                                  - before["resilience.rollbacks"]),
            "trace.overhead_pct": 100.0 * (median(times) / median(untraced) - 1.0),
        })
        part["layers"] = layers
        write_spans(tracer, f"spans-{args.workload}.jsonl")
        times = untraced + times
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = case.check()
    end = counters()
    if end["resilience.solver_escalations"] != start["resilience.solver_escalations"]:
        problems.append("a pressure solve escalated past rung 0")
    if trace and part["layers"]["trace.accounting_gap"] > ACCOUNTING_SHARE:
        problems.append(f"layer times miss the step wall time by "
                        f"{part['layers']['trace.accounting_gap']:.1%} "
                        f"(> {ACCOUNTING_SHARE:.0%})")
    part.update(
        ops=(2 + len(times)) * case.scenarios, problems=problems,
        events=sum(end[k] - start[k] for k in (
            "resilience.rollbacks", "resilience.solver_escalations",
            "resilience.batch_isolations")),
        rss_mb=rss_mb)
    return part


def run_solver(args) -> dict:
    if args.trace:  # one fresh opening phase to check the exact counts against
        parts = [solver_process(args, args.seconds, trace=True), worker(args, 0.0)]
    else:
        parts = [worker(args, args.seconds / SETUP_SAMPLES) for _ in range(SETUP_SAMPLES)]
    main = parts[0]
    problems = [p for part in parts for p in part["problems"]]
    problems += [f"exact counts {main['counts']} differ from those of the same "
                 f"opening phase in another process: {other}"
                 for other in {json.dumps(p["counts"], sort_keys=True) for p in parts
                               if p["counts"] != main["counts"]}]
    out = {"counts": main["counts"], "attempted": sum(p["ops"] for p in parts),
           "failed": sum(p["events"] for p in parts) + len(problems),
           "problems": problems}
    if args.trace:
        out["layers"] = main["layers"]
    else:
        out.update(times=[t for p in parts for t in p["times"]],
                   setup_samples=[p["setup_s"] for p in parts],
                   rss_mb=max(p["rss_mb"] for p in parts),
                   ops_per_step=main["scenarios"], elements=main["elements"],
                   drift=[p["drift"] for p in parts])
    return out


def write_spans(tracer, name: str) -> None:
    from repro.obs.export import write_spans_jsonl

    write_spans_jsonl(tracer.finished, os.path.join(SCRATCH, name))


# -- serve_mixed -------------------------------------------------------------
#: exact counts of the serve opening phase: name -> ``/stats`` counter
SERVE_COUNTS = {"count.plan_builds": "plan.builds",
                "count.mesh_misses": "server.cache.mesh_misses",
                "count.mesh_hits": "server.cache.mesh_hits",
                "count.result_hits": "server.cache.result_hits",
                "count.jobs_completed": "server.jobs_completed"}


def serve_phase(args, traced_server: bool, seconds: float) -> dict:
    """One server: set-up, the fixed opening sequence from one client (exact
    counts), on an untraced run the fixed prefix (peak RSS is read after
    it), then the closed loop for ``seconds``."""
    from layers import durations, traced
    from repro.obs.spans import Tracer
    from serve import (OPENING_CLIENT, PREFIX_CLIENT, Record, Server, Traffic,
                       closed_loop, send, stat_counters)

    server = Server(ROOT, SCRATCH, traced=traced_server)
    opening, prefix, rss = Record(), Record(), None
    try:
        client = server.client()
        start = stat_counters(client)
        for req in Traffic(args.seed, OPENING_CLIENT, args.tiny).count_phase():
            send(client, req, opening)
        opened = stat_counters(client)
        if not args.trace:
            for req in Traffic(args.seed, PREFIX_CLIENT, args.tiny).prefix():
                send(client, req, prefix)
            rss = server.peak_rss_mb()
        mark = stat_counters(client)
        tracer = Tracer()
        with traced(tracer) if traced_server else contextlib.nullcontext():
            record, wall = closed_loop(server, args.seed, seconds, args.tiny)
        end = stat_counters(client)
        rss_end = server.peak_rss_mb()
    finally:
        dump = server.stop()
    return {"setup_s": server.setup_s, "opening": opening, "prefix": prefix,
            "record": record, "wall": wall, "mark": mark, "end": end,
            "rss_mb": rss, "rss_end_mb": rss_end, "dump": dump,
            "counts": {name: opened.get(k, 0) - start.get(k, 0)
                       for name, k in SERVE_COUNTS.items()},
            "polls": len(durations(tracer.finished, "client.poll"))}


def serve_layers(phase: dict, untraced_p50: float) -> dict:
    """Per-layer metrics of the traced server phase."""
    from layers import median

    mark, end, dump, record = phase["mark"], phase["end"], phase["dump"], phase["record"]
    durations, program = dump["durations"], dump["counters"]

    def delta(name):
        return end.get(name, 0) - mark.get(name, 0)

    def hit_ratio(kind):
        hits, misses = delta(f"server.cache.{kind}_hits"), delta(f"server.cache.{kind}_misses")
        return hits / (hits + misses) if hits + misses else 0.0

    def p50(name):
        return ms(median(durations.get(name, [])))

    def first(name):
        spans = durations.get(name, [])
        return ms(spans[0]) if spans else 0.0

    latencies = record.latencies
    requests = len(record.latencies) + len(record.failures)
    served = requests + len(phase["opening"].latencies)
    cold = sum(program.get(k, 0) for k in ("tape.records", "tape.batch_records",
                                           "tape.compiles", "tape.batch_compiles"))
    return {
        "fem.mesh_build_ms": p50("fem.mesh_build"),
        "fem.plan_build_ms": p50("fem.plan_build"),
        "core.assemble_calls": len(durations.get("core.assemble", [])),
        "core.assemble_ms_p50": p50("core.assemble"),
        "core.assemble_cold_ms": first("core.assemble"),
        "core.elem_per_s": 0.0,
        "core.run_batch_calls": len(durations.get("core.run_batch", [])),
        "core.run_batch_ms_p50": p50("core.run_batch"),
        "core.run_batch_cold_ms": first("core.run_batch"),
        "physics.pressure.setup_ms": p50("physics.pressure.setup"),
        "physics.pressure.solve_ms_p50": p50("physics.pressure.solve"),
        "physics.pressure.iterations_mean": dump["pressure_iterations_mean"],
        "physics.pressure.escalations": program.get("resilience.solver_escalations", 0),
        "physics.pressure.gradient_ms_p50": p50("physics.pressure.gradient"),
        "physics.fractional_step.self_ms_p50": ms(median(dump["step_self"])),
        "physics.fractional_step.rollbacks": program.get("resilience.rollbacks", 0),
        "server.service_ms_p50": ms(end["service_p50_s"]),
        "server.wait_ms_p50": ms(median(latencies) - end["service_p50_s"]),
        "server.result_cache_hit_ratio": hit_ratio("result"),
        "server.mesh_cache_hit_ratio": hit_ratio("mesh"),
        "server.cold_kernels_per_req": cold / served,
        "server.plan_builds": delta("plan.builds"),
        "server.rejections": sum(v - mark.get(k, 0) for k, v in end.items()
                                 if k.startswith("server.rejections.")),
        "client.polls_per_req": phase["polls"] / requests,
        "trace.overhead_pct": 100.0 * (median(latencies) / untraced_p50 - 1.0),
        "trace.accounting_gap": 0.0,
    }


def run_serve(args) -> dict:
    from layers import median
    from serve import verify

    if args.trace:
        phases = [serve_phase(args, False, args.seconds / 2),
                  serve_phase(args, True, args.seconds / 2)]
    else:  # the window split over fresh servers, as on the solver workloads
        phases = [serve_phase(args, False, args.seconds / SETUP_SAMPLES)
                  for _ in range(SETUP_SAMPLES)]
    main = phases[0]
    records = [rec for ph in phases for rec in (ph["record"], ph["opening"], ph["prefix"])]
    failures = [f for rec in records for f in rec.failures]
    problems = verify(records)
    problems += [f"exact counts {main['counts']} differ from those of the same "
                 f"opening phase on another server: {other}"
                 for other in {json.dumps(ph["counts"], sort_keys=True) for ph in phases
                               if ph["counts"] != main["counts"]}]
    out = {
        "counts": main["counts"],
        "attempted": sum(len(r.latencies) + len(r.failures) for r in records),
        "failed": len(failures) + len(problems),
        "problems": problems + failures[:5],
    }
    if args.trace:
        out["layers"] = serve_layers(
            phases[1], median(main["record"].latencies))
    else:
        out.update(setup_samples=[ph["setup_s"] for ph in phases],
                   rss_mb=max(ph["rss_mb"] for ph in phases),
                   rss_end_mb=[ph["rss_end_mb"] for ph in phases],
                   times=[x for ph in phases for x in ph["record"].latencies],
                   wall=sum(ph["wall"] for ph in phases))
    return out


# -- reporting ---------------------------------------------------------------
def end_to_end(args, res: dict) -> tuple:
    """The contract metrics, and the lines that print them under the
    workload's own names with their sample counts."""
    from layers import median, percentile
    from serve import POLL_S, PREFIX_REQUESTS

    times = res["times"]
    n = len(times)
    beyond = n - 1 - int(0.9 * (n - 1))
    metrics = {
        "latency_ms_p90": ms(percentile(times, 90.0)),
        "setup_s": median(res["setup_samples"]),
        "peak_rss_mb": res["rss_mb"],
    }
    p50 = ms(median(times))
    tail = f"(n={n}, {beyond} beyond{'' if beyond >= 10 else ': too few for a p90'})"
    if args.workload == "serve_mixed":
        named = [("req_ms_p50", p50, "ms", f"(n={n})"),
                 ("req_ms_p90", metrics["latency_ms_p90"], "ms", tail),
                 ("req_per_s", n / res["wall"], "1/s", f"(poll_s={POLL_S:g})")]
        rss_note = (f"(largest server VmHWM after the opening and a {PREFIX_REQUESTS}-"
                    f"request prefix; after the window: "
                    f"{', '.join(f'{x:.0f}' for x in res['rss_end_mb'])} MB)")
    else:
        ops_per_s = res["ops_per_step"] * n / sum(times)
        named = [("step_ms_p50", p50, "ms", f"(n={n})"),
                 ("step_ms_p90", metrics["latency_ms_p90"], "ms", tail),
                 ("elem_steps_per_s", res["elements"] * ops_per_s, "1/s",
                  f"({res['elements']} tets x {res['ops_per_step']} scenarios)")]
        rss_note = "(benchmark process, after the window)"
    named += [
        ("setup_s", metrics["setup_s"], "s", f"(median of {len(res['setup_samples'])})"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", rss_note),
        ("error_rate", res["failed"] / res["attempted"], "1",
         f"({res['failed']} of {res['attempted']} operations)"),
    ]
    return metrics, named


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])  # for subprocesses
    os.makedirs(SCRATCH, exist_ok=True)
    if args.self_check:
        from selfcheck import self_check

        return self_check(ROOT)
    if args.worker is not None:
        print(json.dumps(solver_process(args, args.worker)))
        return 0

    host = host_context()
    res = run_serve(args) if args.workload == "serve_mixed" else run_solver(args)
    host["loadavg_after"] = os.getloadavg()
    correct = not res["problems"]

    if args.trace:
        values = dict(res["layers"], **res["counts"])
        metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in LAYERS.items()}
    else:
        e2e, named = end_to_end(args, res)
        for name, value, unit, note in named:
            print(f"{args.workload} {name} = {value:.6g} {unit} {note}")
        for k, drift in enumerate(res.get("drift", [])):
            if not drift:
                continue
            (a, b), (x, y) = drift["step_ms_p50"], drift["pressure_iterations"]
            print(f"{args.workload} process {k} window halves: step_ms_p50 "
                  f"{a:.1f} -> {b:.1f} ms, pressure iterations per scenario-step "
                  f"{x:.2f} -> {y:.2f}")
        metrics = {k: {"value": v, "unit": E2E[k]} for k, v in e2e.items()}
    print(f"{args.workload} exact counts: {json.dumps(res['counts'], sort_keys=True)}")
    print(f"{args.workload} host: {json.dumps(host)}")
    for problem in res["problems"][:10]:
        print(f"{args.workload} CORRECTNESS: {problem}")
    if len(res["problems"]) > 10:
        print(f"{args.workload} CORRECTNESS: ... and {len(res['problems']) - 10} more")
    detail = {k: v for k, v in res.items() if k != "times"}
    detail.update(host=host, metrics=metrics, args=vars(args), correct=correct)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(SCRATCH, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
