"""Profiler overhead guard: profiling *off* must cost nothing.

The op-level profiler (``repro.obs.profiler``) promises zero cost when
disabled: the plan-path kernel (``BatchedTape``, which single-scenario
assembly runs as its one-scenario batch) branches once per call on
``profiler.enabled`` and takes the original un-instrumented loop, so an
assembler built with the ``profile=`` knob left off must run the sweep
at the same speed as a build that never heard of the profiler.  This
bench times three RSP sweeps on the bench mesh:

* ``plain``    -- assembler constructed with no profiler wiring at all,
* ``off``      -- assembler constructed through the same code path a
  profiled build takes (``profile=False`` explicit), and
* ``profiled`` -- profiling on, for the record (never asserted: the
  timed dispatch loop is allowed to cost what it costs).

The guard asserts best-of-N ``off`` within 2% of best-of-N ``plain``.
Both run the identical replay loop, so anything past noise means a
branch or wrapper leaked into the hot path.  The measured row lands in
``BENCH_variants.json`` (``"benchmark": "profiler_overhead"``) so the
history drift scan tracks the guard over sessions too.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_profiler_overhead.py
"""

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import UnifiedAssembler  # noqa: E402

VARIANT = "RSP"
VECTOR_DIM = 1024
REPEATS = 15
#: profiling disabled must stay within this factor of the unwrapped build
OVERHEAD_CEILING = 1.02


def _interleaved_walls(fns, repeats=REPEATS):
    """Per-repeat wall times for several callables, round-robin.

    The builds under comparison run the *identical* code path, so any
    measured gap is machine drift (frequency scaling, cache pollution
    from neighbouring CI jobs).  Interleaving the repeats spreads that
    drift evenly across the candidates instead of charging it all to
    whichever loop ran last, and the starting slot rotates so no
    candidate always enjoys the first-in-round cache state.
    """
    walls = [[] for _ in fns]
    for rep in range(repeats):
        for i in range(len(fns)):
            j = (i + rep) % len(fns)
            t0 = time.perf_counter()
            fns[j]()
            walls[j].append(time.perf_counter() - t0)
    return walls


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def overhead_row(mesh, params, velocity, variant=VARIANT,
                 vector_dim=VECTOR_DIM, repeats=REPEATS, tracer=None):
    """Time plain vs profiling-off vs profiling-on; returns a bench row."""
    kwargs = {} if tracer is None else {"tracer": tracer}
    plain = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled", **kwargs
    )
    off = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled",
        profile=False, **kwargs
    )
    on = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled",
        profile=True, **kwargs
    )
    # warm every tape + pattern cache before timing anything
    ref = plain.assemble(variant, velocity)
    assert np.array_equal(ref, off.assemble(variant, velocity))
    assert np.array_equal(ref, on.assemble(variant, velocity))

    w_plain, w_off, w_on = _interleaved_walls(
        [
            lambda: plain.assemble(variant, velocity),
            lambda: off.assemble(variant, velocity),
            lambda: on.assemble(variant, velocity),
        ],
        repeats,
    )
    # the guard statistic is the median of per-round ratios: a round
    # that lands on a globally slow patch inflates both its samples, so
    # the ratio stays clean where absolute best-of-N would not
    off_ratio = _median([o / p for o, p in zip(w_off, w_plain)])
    on_ratio = _median([o / p for o, p in zip(w_on, w_plain)])
    return {
        "benchmark": "profiler_overhead",
        "variant": variant,
        "mode": "compiled",
        "nelem": int(mesh.nelem),
        "vector_dim": int(vector_dim),
        "wall_ms": min(w_off) * 1e3,
        "plain_ms": min(w_plain) * 1e3,
        "profiled_ms": min(w_on) * 1e3,
        "overhead_off": off_ratio,
        "overhead_on": on_ratio,
    }


def test_profiler_off_is_free(
    bench_mesh, bench_params, bench_velocity, bench_tracer, bench_extra,
    capsys,
):
    """Profiling disabled within 2% of the unwrapped build.

    The two builds execute the identical replay loop, so a genuine leak
    (a wrapper or per-op branch on the hot path) shows up in *every*
    measurement; scheduler noise on a shared runner does not.  The guard
    therefore takes the best ratio over a few attempts -- systematic
    overhead fails all of them.
    """
    best = None
    for _ in range(3):
        row = overhead_row(
            bench_mesh, bench_params, bench_velocity, tracer=bench_tracer
        )
        if best is None or row["overhead_off"] < best["overhead_off"]:
            best = row
        if best["overhead_off"] < OVERHEAD_CEILING:
            break
    bench_extra.append(best)
    with capsys.disabled():
        print(
            f"\nprofiler overhead {best['variant']} "
            f"[vd={best['vector_dim']}]: plain {best['plain_ms']:6.1f} ms, "
            f"off {best['wall_ms']:6.1f} ms ({best['overhead_off']:.3f}x), "
            f"on {best['profiled_ms']:6.1f} ms ({best['overhead_on']:.3f}x)"
        )
    assert best["overhead_off"] < OVERHEAD_CEILING, (
        f"profiling disabled is {best['overhead_off']:.3f}x the unwrapped "
        f"build (ceiling {OVERHEAD_CEILING}x): a wrapper or branch leaked "
        "into the hot path"
    )


def main() -> None:
    from repro.fem import box_tet_mesh
    from repro.physics import AssemblyParams

    mesh = box_tet_mesh(12, 12, 16)
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    rng = np.random.default_rng(0)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    row = overhead_row(mesh, params, velocity)
    print(
        f"profiler overhead {row['variant']}: plain {row['plain_ms']:.1f} ms, "
        f"off {row['wall_ms']:.1f} ms ({row['overhead_off']:.3f}x), "
        f"on {row['profiled_ms']:.1f} ms ({row['overhead_on']:.3f}x)"
    )


if __name__ == "__main__":
    main()
