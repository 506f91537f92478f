"""The two time-stepping workloads: ``les_bolund`` and ``campaign_b8``.

Each case builds its problem from a seed, takes its first step (set-up
ends there: it carries the lazy kernel record/compile and the AMG
set-up), and then steps on demand.  ``check`` is the correctness gate,
run outside every timed window.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.unified import UnifiedAssembler
from repro.fem import DirichletBC, classify_box_boundaries, meshgen
from repro.obs.metrics import get_registry
from repro.physics import AssemblyParams
from repro.physics.fractional_step import (
    BatchCampaign,
    FractionalStepSolver,
    cfl_time_step,
)
from repro.physics.momentum import assemble_momentum_rhs

#: max-norm relative tolerance of the DSL-kernel RHS against the
#: vectorized reference.  They sum in different orders; on a random field
#: they agree to ~1e-15, but on the Bolund state (measured 1e-9..3e-8 over
#: 300 steps) the near-uniform inflow makes the Vreman invariant tiny and
#: its square root amplifies the rounding difference.
RHS_RTOL = 1e-6

#: program counters the benchmark reads (exact counts and failures)
COUNTERS = (
    "plan.builds", "tape.records", "tape.batch_records", "tape.compiles",
    "tape.batch_compiles", "codegen.compiles", "tape.executions",
    "codegen.executions", "tape.batch_executions", "codegen.batch_executions",
    "resilience.rollbacks", "resilience.solver_escalations",
    "resilience.batch_isolations",
)


def counters() -> dict:
    registry = get_registry()
    return {name: int(registry.counter(name).value) for name in COUNTERS}


def bolund_bcs(mesh):
    """The boundary conditions of ``examples/bolund_les.py``: log-profile
    inflow, no-slip ground, slip top and sides.  Returns ``(bcs, inflow)``."""
    regions = classify_box_boundaries(mesh)
    u_ref, z_ref, z0 = 1.0, 2.0, 0.01

    def inflow(coords: np.ndarray) -> np.ndarray:
        z = np.maximum(coords[:, 2] - coords[:, 2].min() + z0, z0)
        u = u_ref * np.log(z / z0) / np.log(z_ref / z0)
        out = np.zeros((len(coords), 3))
        out[:, 0] = np.maximum(u, 0.0)
        return out

    bcs = [
        DirichletBC(regions["xmin"].nodes, inflow),
        DirichletBC(regions["zmin"].nodes, np.zeros(3)),
        DirichletBC(regions["zmax"].nodes, np.zeros(3), components=(2,)),
        DirichletBC(regions["ymin"].nodes, np.zeros(3), components=(1,)),
        DirichletBC(regions["ymax"].nodes, np.zeros(3), components=(1,)),
    ]
    return bcs, inflow


class LesBolund:
    """Single-scenario LES of the paper's Bolund case, codegen RSP kernel."""

    name = "les_bolund"
    scenarios = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        nx, ny, nz = (8, 6, 4) if tiny else (24, 16, 12)
        self.mesh = meshgen.bolund_like_mesh(nx=nx, ny=ny, nz=nz)
        self.params = AssemblyParams()
        bcs, inflow = bolund_bcs(self.mesh)
        self.solver = FractionalStepSolver(
            self.mesh, self.params, dirichlet=bcs, assemble="codegen:RSP"
        )
        rng = np.random.default_rng(seed)
        coords = self.mesh.coords
        self.solver.set_velocity(
            inflow(coords) + 0.01 * rng.standard_normal((len(coords), 3))
        )
        self.dt = cfl_time_step(self.mesh, self.solver.velocity, cfl=0.4)
        self.step()

    def step(self) -> None:
        self.solver.advance(self.dt)

    def pressure_iterations(self, last: int = 0) -> list:
        """Pressure iterations of every step, or of the ``last`` steps."""
        history = self.solver.history
        return [r.pressure_iterations for r in (history[-last:] if last else history)]

    def check(self) -> list:
        solver = self.solver
        u = solver.velocity
        rhs = solver.assemble(self.mesh, u, self.params)
        ref = assemble_momentum_rhs(self.mesh, u, self.params)
        rel = float(np.abs(rhs - ref).max() / np.abs(ref).max())
        problems = []
        if not np.isfinite(u).all() or not rel <= RHS_RTOL:
            problems.append(f"final-state RHS differs from the reference "
                            f"by {rel:.3e} (tolerance {RHS_RTOL:g})")
        return problems


class CampaignB8:
    """The README campaign: 8 viscosity/forcing scenarios in lockstep."""

    name = "campaign_b8"
    scenarios = 8
    dt = 1e-3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.mesh = meshgen.box_tet_mesh(*((4, 4, 4) if tiny else (12, 12, 16)))
        self.params = [
            AssemblyParams(
                viscosity=1e-3 * (1.0 + 0.5 * s) * (1.0 + 0.1 * rng.random()),
                body_force=(0.2 * rng.random(), 0.0, -0.1 * rng.random()),
            )
            for s in range(self.scenarios)
        ]
        self.u0 = 0.1 * rng.standard_normal((self.mesh.nnode, 3))
        self.campaign = BatchCampaign(
            self.mesh, self.params, variant="B", mode="compiled"
        )
        self.campaign.set_velocities(self.u0)
        self.step()

    def step(self) -> None:
        self.campaign.advance(self.dt)

    def pressure_iterations(self, last: int = 0) -> list:
        """Pressure iterations of every scenario-step, or of each
        scenario's ``last`` steps."""
        return [r.pressure_iterations for sv in self.campaign.solvers
                for r in (sv.history[-last:] if last else sv.history)]

    def check(self) -> list:
        """First and last scenarios bitwise equal to solo runs at the
        campaign's pinned vector_dim (the ``BatchCampaign`` contract)."""
        camp = self.campaign
        problems = []
        if camp.detached:
            problems.append(f"scenarios {camp.detached} detached")
        for s in (0, self.scenarios - 1):
            asm = UnifiedAssembler(
                self.mesh, self.params[s], mode="compiled",
                vector_dim=camp.vector_dim,
            )
            solo = FractionalStepSolver(
                self.mesh, self.params[s],
                assemble=lambda m, u, p, a=asm: a.assemble("B", u),
                pressure_solver=camp.pressure,
            )
            solo.set_velocity(self.u0)
            for _ in range(camp.solvers[s].step_count):
                solo.advance(self.dt)
            ours = camp.solvers[s]
            if not (np.array_equal(solo.velocity, ours.velocity)
                    and np.array_equal(solo.pressure_field, ours.pressure_field)):
                problems.append(f"scenario {s} differs from its solo run")
        return problems


CASES = {case.name: case for case in (LesBolund, CampaignB8)}


def timed_window(case, seconds: float) -> list:
    """Step until ``seconds`` have passed; returns per-step wall seconds."""
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        case.step()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= deadline:
            return times
