"""Figure 2: CPU strong scaling (Melem/s vs workers) with turbo-bin kinks.

The machine-model curve reproduces the paper's figure for the dual Icelake;
a real multiprocessing measurement per assembly mode exercises the
trivially parallel element assembly on this machine.

Run:  pytest benchmarks/bench_fig2_cpu_scaling.py --benchmark-only -s
"""

import pytest

from repro.parallel import MultiprocessRunner

WORKERS = [1, 2, 4, 8, 16, 17, 18, 24, 32, 48, 60, 71]


def test_fig2_report(study, capsys):
    curves = study.cpu_scaling(worker_counts=WORKERS)
    with capsys.disabled():
        print()
        print("Figure 2 (machine model): Melem/s vs workers")
        print("workers " + " ".join(f"{w:>7d}" for w in WORKERS))
        for variant, rows in curves.items():
            print(
                f"{variant:>7s} "
                + " ".join(f"{r['melem_per_s']:7.0f}" for r in rows)
            )
        print("\nwall time (ms):")
        for variant, rows in curves.items():
            print(
                f"{variant:>7s} "
                + " ".join(f"{r['wall_ms']:7.1f}" for r in rows)
            )
        print("\nkinks after 17 and 24 workers/socket = turbo bins "
              "3.4 / 3.1 / 2.6 GHz (paper Fig. 2).")
    # shape assertions: ordering of variants at every worker count
    for i in range(len(WORKERS)):
        b = curves["B"][i]["melem_per_s"]
        rs = curves["RS"][i]["melem_per_s"]
        rsp = curves["RSP"][i]["melem_per_s"]
        assert b < rs < rsp
    # linear scaling inside the first turbo bin
    m = curves["RSP"]
    assert m[4]["melem_per_s"] / m[0]["melem_per_s"] == pytest.approx(
        16.0, rel=1e-6
    )
    # sub-linear across the kink: 71 workers less than 71x of 1 worker
    assert m[-1]["melem_per_s"] < 71 * m[0]["melem_per_s"]


def test_bench_scaling_curve(benchmark, study):
    benchmark(study.cpu_scaling, ["RSP"], WORKERS)


@pytest.mark.parametrize("assembly_mode", ["reference", "compiled", "codegen"])
def test_real_multiprocessing_point(
    bench_mesh, bench_params, capsys, assembly_mode
):
    """One real 2-process scaling measurement per assembly mode (kept tiny
    for CI): every rank runs the serial assembly of its chunk mesh."""
    runner = MultiprocessRunner(
        bench_mesh, bench_params, repeats=1, assembly_mode=assembly_mode
    )
    points = runner.measure([1, 2])
    with capsys.disabled():
        print()
        for p in points:
            print(
                f"real scaling [{assembly_mode}]: {p.workers} workers  "
                f"{p.wall_seconds*1e3:7.1f} ms  {p.melem_per_s:7.2f} Melem/s  "
                f"speedup {p.speedup:.2f}"
            )
    assert points[0].speedup == pytest.approx(1.0)
    assert points[1].wall_seconds > 0
