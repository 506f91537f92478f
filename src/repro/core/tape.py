"""Compiled kernel tapes: record-once DSL execution with buffer arenas.

The interpreted :class:`~repro.core.dsl.NumpyBackend` allocates a fresh
lane-width array for **every** DSL binop/unop -- hundreds of short-lived
arrays per element group, the exact overhead class the paper's
Privatization (P) transformation eliminates on the GPU.  This module is
the Python analogue of P:

* :class:`RecordingBackend` runs a variant kernel **once** (symbolically,
  no numerics beyond scalar constant folding) and captures a linear SSA
  tape of the vector operations the kernel would have executed.  Because
  the kernels are straight-line code whose control flow depends only on
  runtime *flags* (baked into the tape) and never on lane data, a single
  recording is valid for every element group of every assembly.
  :class:`BatchRecordingBackend` keeps the parameters that vary across a
  scenario batch symbolic instead of folding them.
* :func:`compile_batch_tape` dead-code-eliminates the tape backwards from
  its scatter calls, splits off the per-scenario parameter stage, runs a
  linear-scan liveness analysis and assigns every surviving intermediate
  to a small pool of preallocated lane-width buffers -- the numpy analog
  of registers.  The resulting :class:`TapeReport` reports "buffers
  live" the way :class:`~repro.core.dsl.TracingBackend` reports register
  pressure.
* :class:`BatchedTape` replays the tape for ``S`` scenarios over **all
  element groups** (lanes stacked, cache-sized chunks) with in-place
  ``out=`` ufunc calls into the arena, and ends with one ``bincount``
  flush in the order the deferred
  :class:`~repro.fem.plan.ScatterAccumulator` uses.  Single-scenario
  assembly is the ``S = 1`` batch: one kernel shape, like the paper's
  one vectorized code base whose CPU and GPU builds differ only in the
  length of the vector axis.
* The multiprocess runner's pool workers run the same kernel over the
  sub-mesh of their element chunk, so serial, batched and pool-worker
  assembly share one kernel shape.

Bit-identity contract
---------------------
The compiled tape must produce **bit-identical** RHS output to the
interpreted ``NumpyBackend`` path.  This holds because

* every DSL arithmetic op is an elementwise float64 ufunc, so evaluating
  all groups' lanes stacked in one array gives the same per-lane bits as
  per-group evaluation;
* scalar folding at record time uses the *same* numpy-scalar arithmetic
  ``NumpyBackend`` would have used (``np.float64`` throughout);
* gathers and ``select_gt`` are pure selection (no arithmetic), so CSE
  and predicated replay preserve bits; and
* scatter values are laid out ``(S, ngroups, ncalls, nlane)`` so that
  each scenario's C-order flattening reproduces the accumulator's
  group-major temporal order -- the same ``bincount`` input order, hence
  the same rounding.

Tapes are cached on the :class:`~repro.fem.plan.AssemblyPlan` keyed by
``(variant, vector_dim, permutation, batch shape and constants)``; plans
themselves are invalidated on mesh reorientation, so a tape can never
outlive the mesh version it was recorded against.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..fem.plan import batch_flush_indices, flush_batch, seed_flush_order
from ..obs.metrics import get_registry
from ..obs.profiler import NULL_PROFILER
from ..obs.spans import NULL_TRACER, get_tracer
from .dsl import Backend, KernelContext, Temp, Value
from .storage import Storage, TempSpec
from .variants import get_variant

__all__ = [
    "RecordingBackend",
    "BatchRecordingBackend",
    "TapeReport",
    "BatchTapeProgram",
    "BoundKernel",
    "BatchedTape",
    "record_batch_program",
    "batched_tape",
    "batch_tape_cache_key",
]

#: a tape operand: vector refs are ``int`` SSA ids, folded constants
#: ``np.float64`` scalars
Ref = Union[int, np.float64]

#: DSL op name -> numpy ufunc name (picklable; resolved at execution time)
_UFUNC_NAMES = {
    "add": "add",
    "sub": "subtract",
    "mul": "multiply",
    "div": "true_divide",
    "max": "maximum",
    "neg": "negative",
    "sqrt": "sqrt",
    "cbrt": "cbrt",
}


def _ufunc(name: str):
    return getattr(np, name)


def _is_scalar(ref) -> bool:
    """Folded ``np.float64`` scalar (vector refs are plain ``int`` ids)."""
    return type(ref) is not int


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class RecordingBackend(Backend):
    """Captures a variant kernel's op stream as a linear SSA tape.

    Values are symbolic: a :class:`~repro.core.dsl.Value` payload is either
    an SSA id (``int`` -- a lane-wide vector produced by a recorded op) or
    a folded ``np.float64`` scalar.  Temporaries are not allocated at all;
    stores bind ``(name, linear index)`` slots to refs and loads read the
    current binding (SSA renaming), which is exactly what the eager
    backend's store-then-load round trip computes.  Loading a never-stored
    slot yields the scalar ``0.0`` -- the ``np.zeros`` initialisation the
    execution backend guarantees for non-``write_before_read`` temps.

    Gathers are CSE'd (coordinates and fields are read-only during a
    sweep, so re-gathering the same ``(slot, component)`` -- which the
    RSPR kernel does -- is the same value).  Scalar arithmetic is folded
    at record time with the identical numpy-scalar operations the numpy
    backend would have executed, so folding cannot change a single bit.
    """

    def __init__(self, ctx: KernelContext) -> None:
        self.ctx = ctx
        self.nlane = ctx.nlane
        self.ops: List[tuple] = []
        self.scatter_calls: List[Tuple[int, int]] = []
        self.temps: Dict[str, TempSpec] = {}
        self._slots: Dict[Tuple[str, int], Ref] = {}
        self._gather_memo: Dict[tuple, int] = {}
        self._next_id = 0
        self.folded_scalars = 0
        self.gather_reuses = 0

    # -- SSA ids ---------------------------------------------------------
    def _emit(self, op: tuple) -> Value:
        """Append ``op`` (whose last element is the fresh out id)."""
        self.ops.append(op)
        return Value(self, op[-1])

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    # -- scalars ---------------------------------------------------------
    def const(self, x) -> Value:
        return Value(self, np.float64(x))

    def binop(self, op: str, a: Value, b: Value) -> Value:
        pa, pb = a.payload, b.payload
        if _is_scalar(pa) and _is_scalar(pb):
            # Fold with the same np.float64 arithmetic NumpyBackend uses.
            self.folded_scalars += 1
            return Value(self, _ufunc(_UFUNC_NAMES[op])(pa, pb))
        return self._emit(("bin", op, pa, pb, self._new_id()))

    def unop(self, op: str, a: Value) -> Value:
        pa = a.payload
        if _is_scalar(pa):
            self.folded_scalars += 1
            return Value(self, _ufunc(_UFUNC_NAMES[op])(pa))
        return self._emit(("un", op, pa, self._new_id()))

    def maximum(self, a: Value, b) -> Value:
        return self.binop("max", a, self._coerce(b))

    def select_gt(self, x: Value, thresh: float, a: Value, b) -> Value:
        bv = self._coerce(b)
        px, pa, pb = x.payload, a.payload, bv.payload
        if _is_scalar(px):
            # Pure selection on a uniform condition: the eager backend's
            # np.where would return (a copy of) one branch wholesale.
            self.folded_scalars += 1
            return Value(self, pa if px > thresh else pb)
        return self._emit(("sel", px, pa, pb, np.float64(thresh), self._new_id()))

    def _coerce(self, x) -> Value:
        return x if isinstance(x, Value) else self.const(x)

    # -- temporaries -----------------------------------------------------
    def temp(
        self,
        name: str,
        shape: Tuple[int, ...],
        storage: Storage,
        static: bool = False,
        write_before_read: bool = False,
    ) -> Temp:
        spec = TempSpec(
            name=name,
            shape=tuple(shape),
            storage=storage,
            static=static,
            write_before_read=write_before_read,
        )
        self.temps[name] = spec
        return Temp(spec=spec, data=None)

    def load(self, temp: Temp, idx: Tuple[int, ...]) -> Value:
        lin = temp.spec.linear_index(tuple(idx))
        return Value(self, self._slots.get((temp.spec.name, lin), np.float64(0.0)))

    def store(self, temp: Temp, idx: Tuple[int, ...], value: Value) -> None:
        lin = temp.spec.linear_index(tuple(idx))
        self._slots[(temp.spec.name, lin)] = value.payload

    # -- mesh / global data ----------------------------------------------
    def gather_coord(self, node_slot: int, component: int) -> Value:
        key = ("gc", int(node_slot), int(component))
        ref = self._gather_memo.get(key)
        if ref is not None:
            self.gather_reuses += 1
            return Value(self, ref)
        out = self._new_id()
        self._gather_memo[key] = out
        return self._emit(("gc", int(node_slot), int(component), out))

    def gather_field(self, field: str, node_slot: int, component: int) -> Value:
        key = ("gf", field, int(node_slot), int(component))
        ref = self._gather_memo.get(key)
        if ref is not None:
            self.gather_reuses += 1
            return Value(self, ref)
        out = self._new_id()
        self._gather_memo[key] = out
        return self._emit(("gf", field, int(node_slot), int(component), out))

    def scatter_add_rhs(self, node_slot: int, component: int, value: Value) -> None:
        self.scatter_calls.append((int(node_slot), int(component)))
        self.ops.append(("sc", int(node_slot), int(component), value.payload))

    # -- parameters ------------------------------------------------------
    def runtime_param(self, name: str) -> Value:
        return self.const(self.ctx.params[name])

    def runtime_flag(self, name: str) -> int:
        # Python-level control flow: the flag value specializes the tape,
        # which is why tapes are keyed on the full kernel-params dict.
        return int(self.ctx.params[name])

    def fence(self, label: str = "") -> None:
        pass

    def note_value_death(self) -> None:
        pass


class BatchRecordingBackend(RecordingBackend):
    """Recording backend for scenario-batched tapes.

    Identical to :class:`RecordingBackend` except that runtime parameters
    named in ``varying`` are *not* folded into scalar constants: they
    become symbolic ``("rp", name, out)`` ops (memoized, one per name)
    whose value at execution time is a per-scenario ``(S, 1)`` row.  Any
    op downstream of one is then computed for all ``S`` scenarios at
    once, while the (usually dominant) geometry/velocity chains stay at
    rank-1 and are computed once per batch.

    Parameters *not* in ``varying`` fold exactly as a serial recording
    folds them, and runtime *flags* still specialize Python control flow
    (which is why a batch must be flag-uniform).
    """

    def __init__(self, ctx: KernelContext, varying) -> None:
        super().__init__(ctx)
        self.varying = frozenset(varying)
        self._param_memo: Dict[str, int] = {}

    def runtime_param(self, name: str) -> Value:
        if name not in self.varying:
            return self.const(self.ctx.params[name])
        ref = self._param_memo.get(name)
        if ref is not None:
            return Value(self, ref)
        out = self._new_id()
        self._param_memo[name] = out
        return self._emit(("rp", name, out))


# ---------------------------------------------------------------------------
# Compilation: DCE + linear-scan buffer-arena allocation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TapeReport:
    """Static statistics of one compiled kernel tape.

    ``buffers_live`` is the size of the lane-width buffer arena -- the
    numpy analog of the register count :class:`TracingBackend` estimates
    with ``peak_live_values``.
    """

    variant: str
    ops_recorded: int
    ops_live: int
    dce_removed: int
    folded_scalars: int
    gather_reuses: int
    scatter_calls: int
    buffers_live: int
    binary_ops: int = 0
    unary_ops: int = 0
    select_ops: int = 0
    gather_ops: int = 0
    # codegen-only statistics (zero for replayed tapes): common
    # subexpressions merged, ops hoisted into the one-time setup, ops
    # inlined into fused expressions, and full-width pinned invariant
    # buffers.  ``buffers_live`` for a generated kernel counts the *slab*
    # rows surviving fusion -- directly comparable to (and smaller than)
    # the replay arena of the same variant.
    cse_removed: int = 0
    hoisted_ops: int = 0
    fused_ops: int = 0
    pinned_buffers: int = 0
    # batched-tape statistics (zero / 1 for worker tapes): ops evaluated
    # once per batch in the (S, 1) scenario-row stage, rank-1 lane ops
    # shared by all scenarios, full-rank (S, lanes) ops, and the batch
    # size.  vec_ops / full_ops is the work-retention ratio that carries
    # the batched throughput win.
    srow_ops: int = 0
    vec_ops: int = 0
    full_ops: int = 0
    scenarios: int = 1

    def arena_bytes(self, nlane: int) -> int:
        """Arena footprint for ``nlane`` stacked lanes (float64)."""
        return self.buffers_live * nlane * 8

    def predicted_bytes(self, nlane: int) -> float:
        """Predicted arena traffic of one execution over ``nlane`` lanes.

        Uniform all-vector-operand accounting (every binop reads two 8 B
        operands, every select three plus the byte-wide mask round trip,
        every gather an index+value pair, every scatter a vector source)
        -- an *upper bound* on what the op-level profiler measures, since
        folded-scalar operands cost no arena read at execution time.  The
        gap between this and the measured bytes is therefore exactly the
        scalar-operand share, which is what the predicted-vs-measured
        residual report attributes.
        """
        per_lane = (
            self.binary_ops * 24.0
            + self.unary_ops * 16.0
            + self.select_ops * 34.0
            + self.gather_ops * 24.0
            + self.scatter_calls * 16.0
        )
        return per_lane * nlane

    def predicted_flops(self, nlane: int) -> float:
        """Predicted Flops of one execution: 1 Flop/lane per arithmetic
        op, matching :data:`repro.core.dsl._FLOP_COST`."""
        return (self.binary_ops + self.unary_ops + self.select_ops) * float(nlane)

    def summary(self) -> str:
        return "\n".join(
            [
                f"variant                  : {self.variant}",
                f"ops recorded / live      : {self.ops_recorded} / {self.ops_live}",
                f"dead ops removed         : {self.dce_removed}",
                f"scalars folded           : {self.folded_scalars}",
                f"gathers CSE'd            : {self.gather_reuses}",
                f"scatter calls            : {self.scatter_calls}",
                f"buffers live (arena)     : {self.buffers_live}",
            ]
            + (
                [
                    f"cse removed              : {self.cse_removed}",
                    f"ops hoisted to setup     : {self.hoisted_ops}",
                    f"ops fused                : {self.fused_ops}",
                    f"pinned invariant buffers : {self.pinned_buffers}",
                ]
                if (self.cse_removed or self.hoisted_ops or self.fused_ops)
                else []
            )
        )


# ---------------------------------------------------------------------------
# Scenario-batched compilation and execution
# ---------------------------------------------------------------------------

#: rank lattice of a batched tape value, as bit masks so a join is an
#: ``or``: ``srow`` is a per-scenario ``(S, 1)`` parameter row, ``vec`` a
#: rank-1 ``(lanes,)`` vector shared by all scenarios, ``full`` a
#: per-scenario ``(S, lanes)`` matrix.  ``join(vec, srow) = full``;
#: scalars are rank-neutral.
_SROW, _VEC, _FULL = 1, 2, 4
_RANK_NAME = {1: "srow", 2: "vec", 3: "full", 4: "full", 5: "full",
              6: "full", 7: "full"}

#: operand positions of each op form (annotated scatters carry their
#: call index, so their source sits one slot later)
_INPUTS = {"bin": (2, 3), "un": (2,), "sel": (1, 2, 3), "sc": (3,),
           "gc": (), "gf": (), "rp": ()}


def _infer_ranks(ops, velocity_rank: str) -> Dict[int, str]:
    """Rank of every SSA value: ``srow`` / ``vec`` / ``full``.

    Accepts recorded and annotated op lists (scatters define no value).
    """
    vel = _VEC if velocity_rank == "vec" else _FULL
    mask: Dict[int, int] = {}
    for op in ops:
        tag = op[0]
        if tag == "sc":
            continue
        if tag == "gc":
            m = _VEC
        elif tag == "gf":
            m = vel
        elif tag == "rp":
            m = _SROW
        else:
            m = 0
            for k in _INPUTS[tag]:
                r = op[k]
                if type(r) is int:
                    m |= mask[r]
        mask[op[-1]] = m
    return {ref: _RANK_NAME[m] for ref, m in mask.items()}


@dataclasses.dataclass(frozen=True)
class BatchTapeProgram:
    """A compiled scenario-batched tape.

    The op stream is split by rank: ``param_ops`` is the tiny
    scenario-row stage (all-``srow`` chains, evaluated once per execute
    into ``nq`` persistent ``(S, 1)`` buffers ``Q``); ``ops`` is the
    lane-wide body.  Body operands are tagged: a folded ``np.float64``
    scalar, ``("q", k)`` for param row ``Q[k]``, ``("v", row)`` for a
    rank-1 arena row or ``("f", row)`` for an ``(S, lanes)`` arena row.

    Body op forms (last element is always the tagged output)::

        ("bin", ufunc_name, a, b, out)
        ("un",  ufunc_name, a, out)
        ("sel", x, a, b, thresh, out)
        ("gc",  node_slot, component, out)      # coordinate gather (vec)
        ("gf",  node_slot, component, out)      # velocity gather
        ("sc",  call, node_slot, component, src)

    Param-stage op forms (refs are ``np.float64`` scalars or ``Q``
    indices)::

        ("rp",  name, out)                      # refresh from the batch
        ("bin", ufunc_name, a, b, out)
        ("un",  ufunc_name, a, out)
        ("sel", x, a, b, thresh, out)
    """

    variant: str
    batch_key: tuple
    scenarios: int
    velocity_rank: str
    param_ops: Tuple[tuple, ...]
    nq: int
    ops: Tuple[tuple, ...]
    nbufs_vec: int
    nbufs_full: int
    scatter_calls: Tuple[Tuple[int, int], ...]
    report: TapeReport
    nnode_per_element: int = 4


def _eval_param_stage(program: BatchTapeProgram, param_rows, Q) -> None:
    """Evaluate the ``(S, 1)`` scenario-row stage in place.

    Elementwise ``np.float64`` ufuncs over per-scenario rows -- each row
    computes exactly the scalar chain a serial recording would have
    folded for that scenario, so batched results stay bit-identical.
    """
    for op in program.param_ops:
        tag = op[0]
        if tag == "rp":
            np.copyto(Q[op[2]], param_rows[op[1]])
        elif tag == "bin":
            _, uf, a, b, out = op
            _ufunc(uf)(
                a if _is_scalar(a) else Q[a],
                b if _is_scalar(b) else Q[b],
                out=Q[out],
            )
        elif tag == "un":
            _, uf, a, out = op
            _ufunc(uf)(a if _is_scalar(a) else Q[a], out=Q[out])
        else:  # sel: x is srow (scalar x folds at record time)
            _, x, a, b, thresh, out = op
            m = np.greater(Q[x], thresh)
            dst = Q[out]
            if _is_scalar(b):
                dst[...] = b
            else:
                dst[...] = Q[b]
            np.copyto(dst, a if _is_scalar(a) else Q[a], where=m)


def compile_batch_tape(
    recorder: BatchRecordingBackend,
    variant: str,
    batch_key: tuple,
    scenarios: int,
    velocity_rank: str = "vec",
) -> BatchTapeProgram:
    """Lower a batch-recorded tape: DCE, rank split, two-pool liveness.

    Vector refs are plain ``int`` SSA ids and folded scalars are
    ``np.float64``, so ``type(r) is int`` is the whole vector test in the
    passes below (they run on every cold kernel, so they stay tight).
    """
    if velocity_rank not in ("vec", "full"):
        raise ValueError(
            f"velocity_rank must be 'vec' or 'full', got {velocity_rank!r}"
        )
    ops = recorder.ops
    inputs = _INPUTS

    # -- DCE backwards from the scatter roots (rp has no inputs) ---------
    needed: set = set()
    live_rev: List[tuple] = []
    for op in reversed(ops):
        tag = op[0]
        if tag == "sc" or op[-1] in needed:
            live_rev.append(op)
            for k in inputs[tag]:
                r = op[k]
                if type(r) is int:
                    needed.add(r)
    live_ops = live_rev[::-1]
    rank = _infer_ranks(live_ops, velocity_rank)

    # -- split off the (S, 1) scenario-row stage -------------------------
    # srow ops are closed under their inputs (scalar/srow only), so the
    # whole stage is a tiny straight-line prefix evaluated once per
    # execute; every srow value gets its own persistent Q row.
    q_of: Dict[int, int] = {}
    param_ops: List[tuple] = []
    body: List[tuple] = []

    def qref(r):
        return q_of[r] if type(r) is int else r

    for op in live_ops:
        tag = op[0]
        if tag == "sc" or rank[op[-1]] != "srow":
            body.append(op)
            continue
        out = q_of[op[-1]] = len(q_of)
        if tag == "rp":
            param_ops.append(("rp", op[1], out))
        elif tag == "bin":
            param_ops.append(
                ("bin", _UFUNC_NAMES[op[1]], qref(op[2]), qref(op[3]), out)
            )
        elif tag == "un":
            param_ops.append(("un", _UFUNC_NAMES[op[1]], qref(op[2]), out))
        else:
            param_ops.append(
                ("sel", qref(op[1]), qref(op[2]), qref(op[3]), op[4], out)
            )

    # -- liveness over the body (srow refs are external, never freed) ----
    last_use: Dict[int, int] = {}
    for j, op in enumerate(body):
        for k in inputs[op[0]]:
            r = op[k]
            if type(r) is int:
                last_use[r] = j

    # -- two-pool linear-scan allocation, lowered in the same pass --------
    # Dying inputs release their buffer *before* the output is allocated,
    # so in-place ``out=`` aliasing happens naturally -- safe for every
    # elementwise ufunc.  The one exception is the select op: its
    # executor overwrites ``out`` with branch ``b`` before reading branch
    # ``a`` (mask-first order makes ``x``- and ``b``-aliasing safe), so
    # ``a``'s buffer is protected until after the output is placed.
    tagged: Dict[int, tuple] = {r: ("q", q) for r, q in q_of.items()}
    free = {"vec": [], "full": []}
    nbufs = {"vec": 0, "full": 0}
    lowered: List[tuple] = []
    call = 0
    nvec = nfull = 0

    def ref_of(r):
        return tagged[r] if type(r) is int else r

    for j, op in enumerate(body):
        tag = op[0]
        # lower the operands before any release/allocation below
        if tag == "bin":
            new = ["bin", _UFUNC_NAMES[op[1]], ref_of(op[2]), ref_of(op[3])]
        elif tag == "un":
            new = ["un", _UFUNC_NAMES[op[1]], ref_of(op[2])]
        elif tag == "sel":
            new = ["sel", ref_of(op[1]), ref_of(op[2]), ref_of(op[3]), op[4]]
        elif tag == "gc":
            new = ["gc", op[1], op[2]]
        elif tag == "gf":
            if op[1] != "velocity":
                raise ValueError(
                    f"batched tape gathers unknown field {op[1]!r}; the "
                    "batched executor only binds 'velocity'"
                )
            new = ["gf", op[2], op[3]]
        else:  # sc
            lowered.append(("sc", call, op[1], op[2], ref_of(op[3])))
            call += 1
        protected = op[2] if tag == "sel" else None
        deferred = None
        dying = {op[k] for k in inputs[tag]}
        for r in dying:
            if type(r) is not int or r in q_of or last_use[r] != j:
                continue
            if r == protected:
                deferred = r
            else:
                t = tagged[r]
                free["full" if t[0] == "f" else "vec"].append(t[1])
        if tag != "sc":
            out = op[-1]
            pool = rank[out]
            if free[pool]:
                row = free[pool].pop()
            else:
                row = nbufs[pool]
                nbufs[pool] += 1
            t = tagged[out] = ("f" if pool == "full" else "v", row)
            new.append(t)
            lowered.append(tuple(new))
            if pool == "full":
                nfull += 1
            else:
                nvec += 1
        if deferred is not None:
            t = tagged[deferred]
            free["full" if t[0] == "f" else "vec"].append(t[1])

    tags = [op[0] for op in lowered]
    report = TapeReport(
        variant=variant,
        ops_recorded=len(ops),
        ops_live=len(live_ops),
        dce_removed=len(ops) - len(live_ops),
        folded_scalars=recorder.folded_scalars,
        gather_reuses=recorder.gather_reuses,
        scatter_calls=len(recorder.scatter_calls),
        buffers_live=nbufs["vec"] + nbufs["full"],
        binary_ops=tags.count("bin"),
        unary_ops=tags.count("un"),
        select_ops=tags.count("sel"),
        gather_ops=tags.count("gc") + tags.count("gf"),
        srow_ops=len(param_ops),
        vec_ops=nvec,
        full_ops=nfull,
        scenarios=scenarios,
    )
    return BatchTapeProgram(
        variant=variant,
        batch_key=tuple(batch_key),
        scenarios=int(scenarios),
        velocity_rank=velocity_rank,
        param_ops=tuple(param_ops),
        nq=len(q_of),
        ops=tuple(lowered),
        nbufs_vec=nbufs["vec"],
        nbufs_full=nbufs["full"],
        scatter_calls=tuple(recorder.scatter_calls),
        report=report,
        nnode_per_element=recorder.ctx.nnode_per_element,
    )


def record_batch_program(
    variant_name: str,
    batch,
    velocity_rank: str = "vec",
    nnode_per_element: int = 4,
) -> BatchTapeProgram:
    """Record a variant once for a scenario batch and compile it.

    The recording runs against a dummy single-lane context: kernels are
    straight-line code whose only data-dependent control flow reads the
    runtime flags, so the captured tape is valid for any element group of
    any mesh.  Runtime parameters that vary across the batch stay
    symbolic (per-scenario rows) instead of folding.
    """
    variant = get_variant(variant_name)
    ctx = KernelContext(
        connectivity=np.zeros((1, nnode_per_element), dtype=np.int64),
        coords=np.zeros((1, 3)),
        fields={"velocity": np.zeros((1, 3))},
        rhs=np.zeros((1, 3)),
        params=dict(batch.recording_params()),
        nnode_per_element=nnode_per_element,
    )
    with get_tracer().span(
        "tape.record_batch", variant=variant.name, scenarios=batch.size
    ):
        recorder = BatchRecordingBackend(ctx, batch.varying)
        variant.kernel(recorder, ctx)
        program = compile_batch_tape(
            recorder, variant.name, batch.cache_key(), batch.size,
            velocity_rank,
        )
    registry = get_registry()
    registry.counter(_event("tape", "records", batch.size)).inc()
    registry.gauge(f"tape.batch_full_ops.{variant.name}").set(
        program.report.full_ops
    )
    return program


# ---------------------------------------------------------------------------
# Plan-bound batched execution
# ---------------------------------------------------------------------------


def _event(prefix: str, event: str, scenarios: int) -> str:
    """Counter name of a kernel event.

    Single-scenario (``S = 1``) kernels keep the historical
    ``<prefix>.<event>`` names (``tape.records``, ``codegen.compiles``,
    ``tape.executions``, ...); larger batches count under
    ``<prefix>.batch_<event>``.
    """
    if scenarios == 1:
        return f"{prefix}.{event}"
    return f"{prefix}.batch_{event}"


class BoundKernel:
    """Plan binding shared by the two batched executors.

    Owns everything a batched kernel needs from the
    :class:`~repro.fem.plan.AssemblyPlan` and its packing: per-slot
    gather indices over the stacked lane axis, coordinate columns, the
    velocity columns (``(3, nnode)`` shared or ``(3, S, nnode)``
    per-scenario), the plan-shared scatter pattern, the ``(S, ngroups,
    ncalls, vector_dim)`` deferred values buffer, the ``(S, 1)``
    parameter rows and the one-``bincount`` batched flush.  The scatter
    pattern is keyed ``(variant, vector_dim, permutation)`` -- the same
    key the interpreted :class:`~repro.fem.plan.ScatterAccumulator` uses
    -- so every mode and batch size of one configuration shares it.

    A single-scenario assembly is the ``S = 1`` case of the same binding.
    Subclasses supply ``_resolve_cg`` (chunk size), ``_build_closures``
    (per-slab chunk work), ``_slab_tasks`` (one callable per arena slab)
    and ``_profile`` (their profile slot).
    """

    #: target bytes per arena slab for the default chunk size
    TARGET_SLAB_BYTES = 8 << 20
    #: span and counter prefix of the concrete executor
    KIND = "tape"

    def __init__(
        self,
        program,
        plan,
        packing,
        perm_key=None,
        tracer=NULL_TRACER,
    ) -> None:
        self.program = program
        self.plan = plan
        self.packing = packing
        self.tracer = tracer
        self.profiler = NULL_PROFILER
        self.S = program.scenarios
        mesh = plan.mesh
        self.nnode = int(mesh.nnode)
        self.ncomp = 3
        groups = packing.groups()
        self.ngroups = len(groups)
        self.vector_dim = int(packing.vector_dim)
        vd = getattr(program, "vector_dim", self.vector_dim)
        if vd != self.vector_dim:
            raise ValueError(
                f"program generated for vector_dim={vd}, "
                f"packing has {self.vector_dim}"
            )
        self.nlane = self.ngroups * self.vector_dim
        nnpe = program.nnode_per_element

        conn3 = np.stack([g.connectivity for g in groups])  # (G, vd, nnpe)
        conn_all = conn3.reshape(self.nlane, nnpe)
        self._idx = [
            np.ascontiguousarray(conn_all[:, s], dtype=np.int64)
            for s in range(nnpe)
        ]
        self._ccols = [
            np.ascontiguousarray(mesh.coords[:, c]) for c in range(3)
        ]
        if program.velocity_rank == "full":
            self._vcols = np.empty((3, self.S, self.nnode))
        else:
            self._vcols = np.empty((3, self.nnode))

        ncalls = len(program.scatter_calls)
        key = (program.variant, self.vector_dim, perm_key)
        pattern = plan.scatter_pattern(key)
        registry = get_registry()
        if pattern is None:
            pattern = self._build_pattern(key, groups, conn3, ncalls)
            registry.counter("scatter.pattern_builds").inc()
        else:
            # every group of a sweep issues the same straight-line call
            # sequence, so the length and group 0's calls pin the pattern
            if len(pattern.signature) != self.ngroups * ncalls or (
                pattern.signature[:ncalls]
                != tuple((0, s, c) for s, c in program.scatter_calls)
            ):
                raise RuntimeError(
                    "scatter pattern mismatch: cached plan pattern does "
                    f"not match the {type(self).__name__}'s call order"
                )
            registry.counter("scatter.pattern_reuses").inc()
        self._pattern = pattern

        self._batch_indices = batch_flush_indices(
            pattern, self.S, self.nnode, self.ncomp
        )
        self._values = np.empty(
            (self.S, self.ngroups, ncalls, self.vector_dim)
        )
        self._values2d = self._values.reshape(self.S, -1)
        self._Q = [np.empty((self.S, 1)) for _ in range(program.nq)]
        #: current per-scenario parameter rows (name -> (S, 1) array);
        #: refreshed by the plan wrapper on every cache hit
        self.param_rows: Dict[str, np.ndarray] = {}
        #: (chunk_groups, nslabs) -> per-slab lists of prebound chunks
        self._chunk_cache: Dict[Tuple[int, int], list] = {}

    def _build_pattern(self, key, groups, conn3, ncalls):
        """Vectorized build of the sweep's scatter index pattern.

        Stores the same object the interpreted accumulator would have
        built call by call: same key, signature and flattened
        ``(group, call, lane)`` index order.
        """
        program = self.program
        mesh = self.plan.mesh
        vd = self.vector_dim
        trash = self.nnode * self.ncomp
        active3 = np.stack([g.active for g in groups])  # (G, vd)
        indices = np.empty((self.ngroups, ncalls, vd), dtype=np.int64)
        for c, (slot, comp) in enumerate(program.scatter_calls):
            icol = conn3[:, :, slot] * self.ncomp + comp
            np.copyto(indices[:, c, :], np.where(active3, icol, trash))
        order = None
        seed_ids = mesh.seed_element_ids
        if seed_ids is not None:
            lane_seed = np.concatenate(
                [seed_ids[g.element_ids] for g in groups]
            )
            order = seed_flush_order(
                lane_seed, active3.reshape(-1), ncalls, vd
            )
        signature = tuple(
            (g, slot, comp)
            for g in range(self.ngroups)
            for (slot, comp) in program.scatter_calls
        )
        return self.plan.store_scatter_pattern(
            key, indices.reshape(-1), signature, order=order
        )

    @property
    def report(self) -> TapeReport:
        return self.program.report

    def _default_chunk_groups(self, rows_vec: int, rows_full: int) -> int:
        """Largest chunk whose two arena slabs fit the byte target."""
        per_lane = 8 * (rows_vec + 1 + (rows_full + 1) * self.S)
        cg = self.TARGET_SLAB_BYTES // max(per_lane * self.vector_dim, 1)
        return max(1, min(int(cg), self.ngroups))

    def _chunks(self, cg: int) -> List[Tuple[int, int]]:
        bounds = list(range(0, self.ngroups, cg)) + [self.ngroups]
        return list(zip(bounds[:-1], bounds[1:]))

    def _closures(self, cg: int, nslabs: int) -> list:
        """The subclass's per-slab chunk lists, cached per (cg, nslabs)."""
        per_slab = self._chunk_cache.get((cg, nslabs))
        if per_slab is None:
            per_slab = self._build_closures(cg, nslabs)
            self._chunk_cache[(cg, nslabs)] = per_slab
        return per_slab

    def _check_velocity(self, velocity: np.ndarray) -> np.ndarray:
        velocity = np.asarray(velocity, dtype=np.float64)
        if self.program.velocity_rank == "full":
            want = (self.S, self.nnode, 3)
        else:
            want = (self.nnode, 3)
        if velocity.shape != want:
            raise ValueError(
                f"velocity must be {want} for velocity_rank="
                f"{self.program.velocity_rank!r}, got {velocity.shape}"
            )
        return velocity

    def _prepare(self, velocity: np.ndarray, rhs: Optional[np.ndarray]):
        """Validate inputs, refresh velocity columns and parameter rows."""
        velocity = self._check_velocity(velocity)
        if rhs is None:
            rhs = np.zeros((self.S, self.nnode, self.ncomp))
        if self.program.velocity_rank == "full":
            np.copyto(self._vcols, np.moveaxis(velocity, -1, 0))
        else:
            np.copyto(self._vcols, velocity.T)
        _eval_param_stage(self.program, self.param_rows, self._Q)
        return rhs

    def _flush(self, rhs: np.ndarray, profile=None) -> None:
        with self.tracer.span(
            "scatter.flush_batch",
            variant=self.program.variant,
            scenarios=self.S,
        ):
            t0 = time.perf_counter()
            flush_batch(
                self._pattern, self._batch_indices, self._values2d, rhs,
                self.nnode, self.ncomp,
            )
            if profile is not None:
                # values read + int64 index read + rhs accumulate traffic
                moved = 2.0 * self._values2d.nbytes + rhs.nbytes
                profile.record_flush(time.perf_counter() - t0, moved)

    # -- execution --------------------------------------------------------

    def execute(
        self,
        velocity: np.ndarray,
        rhs: Optional[np.ndarray] = None,
        chunk_groups: Optional[int] = None,
    ) -> np.ndarray:
        """Assemble all ``S`` scenario RHS vectors into ``rhs`` (``(S,
        nnode, 3)``, allocated when ``None``), chunk by chunk."""
        return self._run(velocity, rhs, 1, chunk_groups, "serial")

    def execute_chunked(
        self,
        velocity: np.ndarray,
        rhs: Optional[np.ndarray] = None,
        num_threads: Optional[int] = None,
        chunk_groups: Optional[int] = None,
    ) -> np.ndarray:
        """Threaded assembly; bitwise identical to :meth:`execute`.

        Chunks are striped over one arena slab per thread; they write
        disjoint slices of the shared values buffer and the
        offset-``bincount`` flush runs serially afterwards, so thread
        count and scheduling order cannot change a bit.
        """
        from ..parallel.threads import resolve_num_threads

        return self._run(
            velocity, rhs, resolve_num_threads(num_threads), chunk_groups,
            "threads",
        )

    def _run(self, velocity, rhs, nthreads: int, chunk_groups,
             executor: str) -> np.ndarray:
        from ..parallel.threads import get_thread_pool

        rhs = self._prepare(velocity, rhs)
        cg = self._resolve_cg(chunk_groups)
        nchunks = -(-self.ngroups // cg)
        threaded = nthreads > 1 and nchunks > 1
        with self.tracer.span(
            f"{self.KIND}.execute_batch",
            variant=self.program.variant,
            scenarios=self.S,
            vector_dim=self.vector_dim,
            chunks=nchunks,
            threads=nthreads,
            chunk_groups=cg,
        ):
            profile = self._profile(executor) if self.profiler.enabled else None
            tasks = self._slab_tasks(
                cg, min(nthreads, nchunks) if threaded else 1, profile
            )
            if not threaded:
                tasks[0]()
            else:
                pool = get_thread_pool(nthreads)
                for future in [pool.submit(task) for task in tasks]:
                    future.result()
            self._flush(rhs, profile)
            if profile is not None:
                profile.finish_execution()
        registry = get_registry()
        registry.counter(_event(self.KIND, "executions", self.S)).inc()
        if self.S > 1:
            registry.counter(f"{self.KIND}.batch_scenarios").inc(self.S)
        registry.counter(f"{self.KIND}.lanes_executed").inc(self.nlane)
        registry.counter("locality.chunks_executed").inc(nchunks)
        if threaded:
            registry.counter("locality.threaded_executions").inc()
        return rhs


class BatchedTape(BoundKernel):
    """Replay a :class:`BatchTapeProgram` over ``S`` scenarios at once.

    Rank-1 (``vec``) ops run once per batch over the stacked lane axis;
    only ``full`` ops -- chains downstream of a varying parameter or of
    per-scenario velocities -- run over ``(S, lanes)``.  Scatter values
    land in an ``(S, ngroups, ncalls, vector_dim)`` buffer flushed by
    **one** offset ``bincount`` (:func:`repro.fem.plan.flush_batch`),
    bit-identical per scenario to the interpreted flush.  At ``S = 1``
    every op is rank-1 and this is the single-scenario compiled kernel.

    Execution is chunked over element groups so the ``(S, lanes)`` arena
    stays cache-sized; every chunk's operand arrays are resolved once
    into prebound op tuples, cached per ``(chunk_groups, nslabs)``, so
    steady-state replay does no Python-level ref resolution.
    """

    def __init__(self, program: BatchTapeProgram, plan, packing,
                 perm_key=None, tracer=NULL_TRACER):
        super().__init__(program, plan, packing, perm_key, tracer)
        self._ufuncs = {name: _ufunc(name) for name in _UFUNC_NAMES.values()}
        #: per-op lane multiplier of the profiled replay
        self._lane_scale = [
            self.S if op[0] == "sc" or op[-1][0] == "f" else 1
            for op in program.ops
        ]

    # -- chunk planning ---------------------------------------------------

    def _resolve_cg(self, chunk_groups) -> int:
        if chunk_groups is None:
            chunk_groups = self.plan.tuned_chunk_groups(self.program.variant)
        if chunk_groups is not None:
            return max(1, min(int(chunk_groups), self.ngroups))
        return self._default_chunk_groups(
            self.program.nbufs_vec, self.program.nbufs_full
        )

    def _bind_chunk(self, g0: int, g1: int, slab) -> Tuple[list, int]:
        """Resolve one chunk's ops to prebound ``(code, arrays...)``.

        Returns the op list and the chunk's lane count ``n``.  Every
        arena row, parameter row and gather index slice is viewed once
        per chunk, then shared by all the ops that read it.
        """
        arena_v, arena_f_flat, mask_v, mask_f_flat, mask_q = slab
        program = self.program
        vd = self.vector_dim
        lo = g0 * vd
        n = (g1 - g0) * vd
        nrows = g1 - g0
        S = self.S
        views = {("v", r): arena_v[r, :n] for r in range(program.nbufs_vec)}
        views.update(
            (("f", r), arena_f_flat[r, : S * n].reshape(S, n))
            for r in range(program.nbufs_full)
        )
        views.update((("q", k), q) for k, q in enumerate(self._Q))
        idx = [col[lo:lo + n] for col in self._idx]
        masks = {"v": mask_v[:n], "f": mask_f_flat[: S * n].reshape(S, n),
                 "q": mask_q}
        ufuncs = self._ufuncs
        values = self._values
        gf_code = 4 if program.velocity_rank == "full" else 3

        # lowered operands are tagged tuples or folded np.float64 scalars
        def operand(ref):
            return views[ref] if type(ref) is tuple else ref

        ops: List[tuple] = []
        for op in program.ops:
            tag = op[0]
            if tag == "bin":
                ops.append((0, ufuncs[op[1]], operand(op[2]),
                            operand(op[3]), views[op[4]]))
            elif tag == "un":
                ops.append((1, ufuncs[op[1]], operand(op[2]), views[op[3]]))
            elif tag == "sel":
                x = op[1]
                m = masks[x[0]] if type(x) is tuple else mask_q
                ops.append((2, operand(x), operand(op[2]), operand(op[3]),
                            op[4], views[op[5]], m))
            elif tag == "gc":
                ops.append((3, self._ccols[op[2]], idx[op[1]], views[op[3]]))
            elif tag == "gf":
                ops.append((gf_code, self._vcols[op[2]], idx[op[1]],
                            views[op[3]]))
            else:  # sc
                _, call, slot, comp, src = op
                dst = values[:, g0:g1, call, :]
                if type(src) is not tuple:
                    ops.append((6, dst, src))
                elif src[0] == "q":
                    ops.append((5, dst, views[src].reshape(S, 1, 1)))
                elif src[0] == "f":
                    ops.append((5, dst, views[src].reshape(S, nrows, vd)))
                else:
                    ops.append((5, dst, views[src].reshape(nrows, vd)))
        return ops, n

    def _build_closures(self, cg: int, nslabs: int) -> list:
        """Per-slab lists of prebound chunks, one arena slab each."""
        chunks = self._chunks(cg)
        nslabs = max(1, min(nslabs, len(chunks)))
        cgw = cg * self.vector_dim
        S = self.S
        slabs = [
            (
                np.empty((max(self.program.nbufs_vec, 1), cgw)),
                np.empty((max(self.program.nbufs_full, 1), S * cgw)),
                np.empty(cgw, dtype=bool),
                np.empty(S * cgw, dtype=bool),
                np.empty((S, 1), dtype=bool),
            )
            for _ in range(nslabs)
        ]
        per_slab: List[list] = [[] for _ in range(nslabs)]
        for i, (g0, g1) in enumerate(chunks):
            per_slab[i % nslabs].append(self._bind_chunk(g0, g1, slabs[i % nslabs]))
        return per_slab

    # -- op execution -----------------------------------------------------

    @staticmethod
    def _run_ops(ops: list) -> None:
        for op in ops:
            code = op[0]
            if code == 0:
                op[1](op[2], op[3], out=op[4])
            elif code == 1:
                op[1](op[2], out=op[3])
            elif code == 2:
                _, x, a, b, thresh, out, m = op
                np.greater(x, thresh, out=m)
                out[...] = b
                np.copyto(out, a, where=m)
            elif code == 3:
                np.take(op[1], op[2], out=op[3])
            elif code == 4:
                np.take(op[1], op[2], axis=1, out=op[3])
            elif code == 5:
                np.copyto(op[1], op[2])
            else:  # code == 6
                op[1][...] = op[2]

    def _run_ops_timed(self, ops: list, n: int, profile) -> None:
        """Profiled twin of :meth:`_run_ops`: identical op stream, one
        clock read per op, honest lane counts (``n`` for rank-1 ops,
        ``S * n`` for full-rank ones and scatters)."""
        clock = time.perf_counter
        scale = self._lane_scale
        for i, op in enumerate(ops):
            code = op[0]
            t0 = clock()
            if code == 0:
                op[1](op[2], op[3], out=op[4])
            elif code == 1:
                op[1](op[2], out=op[3])
            elif code == 2:
                _, x, a, b, thresh, out, m = op
                np.greater(x, thresh, out=m)
                out[...] = b
                np.copyto(out, a, where=m)
            elif code == 3:
                np.take(op[1], op[2], out=op[3])
            elif code == 4:
                np.take(op[1], op[2], axis=1, out=op[3])
            elif code == 5:
                np.copyto(op[1], op[2])
            else:
                op[1][...] = op[2]
            profile.record(i, clock() - t0, scale[i] * n)

    def _run_slab(self, chunks: list, profile=None) -> None:
        if profile is None:
            for ops, _ in chunks:
                self._run_ops(ops)
        else:
            for ops, n in chunks:
                self._run_ops_timed(ops, n, profile)

    def _slab_tasks(self, cg: int, nslabs: int, profile) -> list:
        return [
            functools.partial(self._run_slab, chunks, profile)
            for chunks in self._closures(cg, nslabs)
        ]

    def _profile(self, executor: str):
        return self.profiler.for_batch_program(
            self.program, self.vector_dim, executor
        )


# ---------------------------------------------------------------------------
# Plan-level cache
# ---------------------------------------------------------------------------


def batch_tape_cache_key(
    variant_name: str,
    vector_dim: int,
    permutation: Optional[np.ndarray],
    batch,
    velocity_rank: str,
) -> tuple:
    perm_key = None if permutation is None else np.asarray(
        permutation, dtype=np.int64
    ).tobytes()
    return (
        variant_name.upper(),
        int(vector_dim),
        perm_key,
        "batch",
        batch.cache_key(),
        velocity_rank,
    )


def batched_tape(
    plan,
    variant_name: str,
    vector_dim: int,
    batch,
    permutation: Optional[np.ndarray] = None,
    velocity_rank: str = "vec",
    tracer=None,
    profiler=None,
) -> BatchedTape:
    """The plan-cached :class:`BatchedTape` for one batch configuration.

    Keyed on everything baked into the recording -- variant, group size,
    permutation, batch size, *which* parameters vary, every folded
    constant and flag, and the velocity rank.  The varying parameter
    *values* live outside the tape: they are refreshed from ``batch`` on
    every call, so sweeping a campaign over new values of the same
    parameters re-records nothing.  A one-scenario batch is the
    single-scenario compiled kernel.  Mesh reorientation invalidates the
    plan, and with it every cached tape.
    """
    key = batch_tape_cache_key(
        variant_name, vector_dim, permutation, batch, velocity_rank
    )
    tape = plan.cached_tape(key)
    registry = get_registry()
    if tape is None:
        with get_tracer().span(
            "tape.compile_batch",
            variant=key[0],
            vector_dim=int(vector_dim),
            scenarios=batch.size,
        ):
            program = record_batch_program(
                key[0], batch, velocity_rank=velocity_rank
            )
            packing = plan.packing(int(vector_dim), permutation=permutation)
            tape = BatchedTape(program, plan, packing, perm_key=key[2])
        plan.store_tape(key, tape)
        registry.counter(_event("tape", "compiles", batch.size)).inc()
    else:
        registry.counter(_event("tape", "cache_hits", batch.size)).inc()
    tape.param_rows = batch.param_rows()
    if tracer is not None:
        tape.tracer = tracer
    # Always (re)set the profiler: tapes are plan-cached and shared across
    # assemblers, so a stale profiler must never leak into an unprofiled
    # sweep (unlike the tracer, which is additive and harmless to keep).
    tape.profiler = profiler if profiler is not None else NULL_PROFILER
    return tape
