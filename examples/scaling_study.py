#!/usr/bin/env python3
"""Figure 2: CPU strong scaling, two ways.

1. The machine model's turbo-binned curve for the paper's dual Icelake
   (3.4 GHz up to 17 workers, then 3.1, then 2.6 -- the kinks in Fig. 2).
2. A real multiprocessing measurement of the trivially-parallel momentum
   assembly on *this* machine: every rank runs the serial assembly of its
   element chunk's sub-mesh, as Alya's MPI ranks do.

Run:  python examples/scaling_study.py [--real]
"""

import argparse
import os

from repro.core import OptimizationStudy
from repro.fem import box_tet_mesh
from repro.parallel import MultiprocessRunner
from repro.physics import AssemblyParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--real", action="store_true",
                    help="also run the multiprocessing measurement")
    args = ap.parse_args()

    study = OptimizationStudy()
    curves = study.cpu_scaling(worker_counts=[1, 2, 4, 8, 16, 17, 18, 24,
                                              32, 48, 60, 71])
    print("machine-model scaling (Fig. 2 analogue), Melem/s:")
    header = "workers: " + "  ".join(f"{r['workers']:>6d}"
                                     for r in curves["B"])
    print(header)
    for variant, rows in curves.items():
        line = "  ".join(f"{r['melem_per_s']:6.0f}" for r in rows)
        print(f"{variant:>7s}: {line}")
    print("\nnote the slope changes after 17 and 24 workers/socket: the "
          "turbo frequency drops 3.4 -> 3.1 -> 2.6 GHz, exactly the kinks "
          "the paper's Figure 2 shows.")

    if args.real:
        ncpu = os.cpu_count() or 2
        counts = sorted({1, 2, min(4, ncpu), min(ncpu, 8)})
        mesh = box_tet_mesh(16, 16, 16)
        runner = MultiprocessRunner(mesh, AssemblyParams(), repeats=2)
        print(f"\nreal multiprocessing scaling on this machine "
              f"({mesh.nelem} elements):")
        for p in runner.measure(list(counts)):
            print(
                f"  {p.workers:3d} workers: {p.wall_seconds*1e3:8.1f} ms, "
                f"{p.melem_per_s:7.1f} Melem/s, speedup {p.speedup:5.2f} "
                f"(eff {p.efficiency:.0%})"
            )


if __name__ == "__main__":
    main()
