"""Compiled-tape benchmark: interpreted NumpyBackend vs the kernel tape.

The interpreted DSL path allocates a fresh lane-width array for every
binop/unop; the compiled tape (``repro.core.tape``) records each variant
once, assigns intermediates to a fixed buffer arena and replays with
in-place ufunc calls over cache-sized chunks of element groups (the
single-scenario path is the one-scenario batched tape).  This bench times
both paths for every variant on the 14k-element bench mesh, asserts the
outputs are **bit-identical**, and feeds per-variant rows (tagged
``"benchmark": "tape"`` and carrying ``vector_dim``) into
``BENCH_variants.json`` via the ``bench_extra`` fixture.  It also runs a
small ``VECTOR_DIM`` autotune sweep and writes ``BENCH_autotune.json``
(uploaded as a CI artifact).

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_tape.py
"""

import os
import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import ScenarioBatch, UnifiedAssembler, variant_names  # noqa: E402
from repro.core.autotune import autotune_vector_dim, write_autotune_report  # noqa: E402
from repro.core.tape import batched_tape  # noqa: E402
from repro.fem import get_plan  # noqa: E402

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

VECTOR_DIM = 1024
REPEATS = 3
#: sweep kept small so the bench session stays in seconds
AUTOTUNE_CANDIDATES = (64, 256, 1024, 4096)


def _best_of(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return min(walls)


def tape_timings(mesh, params, velocity, variant, vector_dim=VECTOR_DIM,
                 repeats=REPEATS, tracer=None):
    """Time one variant both ways; asserts bitwise-equal RHS first."""
    kwargs = {} if tracer is None else {"tracer": tracer}
    interp = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="interpreted", **kwargs
    )
    compiled = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled", **kwargs
    )
    ref = interp.assemble(variant, velocity)  # also warms pattern cache
    out = compiled.assemble(variant, velocity)  # warms the tape cache
    assert np.array_equal(ref, out), f"{variant}: compiled RHS not bit-identical"

    t_interp = _best_of(lambda: interp.assemble(variant, velocity), repeats)
    t_compiled = _best_of(lambda: compiled.assemble(variant, velocity), repeats)
    tape = batched_tape(
        get_plan(mesh), variant, vector_dim, ScenarioBatch([params])
    )
    report = tape.report
    return {
        "benchmark": "tape",
        "variant": variant,
        "mode": "compiled",
        "nelem": int(mesh.nelem),
        "vector_dim": int(vector_dim),
        "interpreted_ms": t_interp * 1e3,
        "compiled_ms": t_compiled * 1e3,
        "wall_ms": t_compiled * 1e3,
        "melem_per_s": mesh.nelem / t_compiled / 1e6,
        "speedup": t_interp / t_compiled,
        "ops_recorded": report.ops_recorded,
        "ops_live": report.ops_live,
        "buffers_live": report.buffers_live,
    }


@pytest.mark.parametrize("variant", variant_names())
def test_tape_vs_interpreted(
    variant, bench_mesh, bench_params, bench_velocity, bench_tracer,
    bench_extra, capsys,
):
    """Compiled tape must be bit-identical and >=1.5x faster per variant."""
    row = tape_timings(
        bench_mesh, bench_params, bench_velocity, variant, tracer=bench_tracer
    )
    bench_extra.append(row)
    with capsys.disabled():
        print(
            f"\ntape {variant:>5s} [vd={row['vector_dim']}]: "
            f"interpreted {row['interpreted_ms']:7.1f} ms, "
            f"compiled {row['compiled_ms']:6.1f} ms "
            f"({row['speedup']:.1f}x, {row['buffers_live']} buffers for "
            f"{row['ops_live']} ops)"
        )
    # ~4-7x measured on a quiet machine; 1.5x is the acceptance floor
    assert row["speedup"] > 1.5


def test_autotune_report(bench_mesh, bench_params, bench_velocity, capsys):
    """Sweep VECTOR_DIM for RSP, persist the winner, write the report."""
    result = autotune_vector_dim(
        bench_mesh,
        "RSP",
        bench_params,
        candidates=AUTOTUNE_CANDIDATES,
        repeats=2,
        velocity=bench_velocity,
        mode="compiled",
    )
    outdir = os.environ.get("REPRO_BENCH_DIR", str(_REPO_ROOT))
    path = pathlib.Path(outdir) / "BENCH_autotune.json"
    write_autotune_report([result], path)
    assert get_plan(bench_mesh).tuned_vector_dim("RSP") == result.winner
    with capsys.disabled():
        timings = ", ".join(
            f"{vd}:{t * 1e3:.1f}ms"
            for vd, t in zip(result.candidates, result.wall_seconds)
        )
        print(f"\nautotune RSP [{timings}] -> vector_dim={result.winner}")


def main() -> None:
    from repro.fem import box_tet_mesh
    from repro.physics import AssemblyParams

    mesh = box_tet_mesh(12, 12, 16)
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    rng = np.random.default_rng(0)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    print(f"compiled tape vs interpreted DSL on {mesh.nelem} elements:")
    for variant in variant_names():
        row = tape_timings(mesh, params, velocity, variant)
        print(
            f"  {variant:>5s}  interpreted {row['interpreted_ms']:8.2f} ms  "
            f"compiled {row['compiled_ms']:7.2f} ms  "
            f"{row['speedup']:5.2f}x  "
            f"[{row['buffers_live']} buffers / {row['ops_live']} live ops]"
        )
    result = autotune_vector_dim(
        mesh, "RSP", params, candidates=AUTOTUNE_CANDIDATES, repeats=2,
        velocity=velocity,
    )
    print(f"autotuned RSP vector_dim -> {result.winner}")


if __name__ == "__main__":
    main()
