"""Tape-to-source code generation: fused, exec-compiled assembly kernels.

The compiled tapes of :mod:`repro.core.tape` eliminate per-op *allocation*
but still replay op-by-op through a Python loop -- thousands of ufunc
dispatch round trips per sweep, which the op-level profiler attributes as
pure dispatch overhead on short-lived ops.  This module removes that last
interpreter layer, the Python analogue of the paper's single fused OpenACC
kernel per variant: each recorded kernel tape is lowered to *generated
Python source* -- one module per ``(variant, vector_dim, scenario batch
shape)`` -- that is ``exec``-compiled once and cached on the
:class:`~repro.fem.plan.AssemblyPlan` next to the tape, so a sweep becomes
a single function call per chunk.  There is one mesh-wide lowering,
:func:`generate_batched_program`; single-scenario assembly runs its
``S = 1`` output, which carries no parameter stage and no per-scenario
rows.

Lowering pipeline (all passes operate on the recorder's SSA op list):

1. **DCE** backwards from the scatter roots (same algorithm as
   :func:`~repro.core.tape.compile_batch_tape`).
2. **CSE** with structural keys; scalar operands key on their exact
   ``float64`` bits (``tobytes``), never on Python ``float`` equality,
   so ``-0.0``/``0.0`` are not merged and bit-identity survives.
3. **Invariant hoisting**: ops depending only on coordinate gathers are
   loop-invariant across sweeps; they (and scatters of invariant values)
   move to a ``setup`` function executed once at bind time into pinned
   full-width buffers.
4. **DFS scheduling** from the scatter roots, shrinking producer-consumer
   distance so the liveness pass below needs far fewer slab rows than the
   recorded order.
5. **Single-use fusion**: a unary/binary/select op whose value is consumed
   exactly once is inlined into its consumer's expression (bounded depth),
   collapsing ufunc chains into single numpy expressions.  Selects are
   emitted as ``where(greater(x, t), a, b)`` expressions, which evaluate
   their arguments before the destination is written -- no aliasing
   protection needed anywhere.
6. **Statement liveness** assigns the surviving statement outputs to a
   small slab of reusable rows (LIFO free list, dying operands released
   before the output is placed so in-place ``out=`` aliasing happens
   naturally).

Bit-identity contract
---------------------
Generated code must match the interpreted backend *exactly*.  Every pass
preserves bits: DCE/CSE/scheduling only drop or reorder pure SSA value
definitions (each value is still computed by the identical ufunc over
identical operands); hoisting replays invariant ops once instead of every
sweep (same inputs, same bits); fusion feeds a ufunc the freshly computed
operand array instead of a stored copy of it; ``where`` is pure selection;
and scatter values land in the same per-scenario ``(group, call, lane)``
layout flushed by the same shared plan pattern as the compiled tape.  Scalar literals are
embedded via ``repr(float(x))`` -- shortest round-trip repr is exact for
float64 -- with non-finite values spelled ``float('inf')`` etc.

Generated source is fully deterministic (all set iterations are sorted),
so every plan that lowers the same kernel -- including each chunk mesh a
multiprocess worker builds -- emits byte-identical source, and the
module-level code cache (:data:`_CODE_CACHE`) guarantees a cache hit
never re-``compile``\\ s.

Set ``REPRO_CODEGEN_DUMP=<dir>`` to dump every generated module to
``<dir>/<variant>_vd<N>_S<S>.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs.metrics import get_registry
from ..obs.profiler import NULL_PROFILER
from ..obs.spans import NULL_TRACER, get_tracer
from .dsl import KernelContext
from .tape import (
    BatchRecordingBackend,
    BoundKernel,
    TapeReport,
    _UFUNC_NAMES,
    _event,
    _infer_ranks,
    _is_scalar,
    batch_tape_cache_key,
)
from .variants import get_variant

__all__ = [
    "MAX_FUSE_DEPTH",
    "BatchedCodegenProgram",
    "BatchedGeneratedKernel",
    "generate_batched_program",
    "batched_generated_kernel",
]

#: maximum fused-subtree depth inlined into one expression
MAX_FUSE_DEPTH = 10

#: names resolvable inside generated modules (picklable source resolves
#: ufuncs at exec time, exactly like the tape's _UFUNC_NAMES indirection)
_NAMESPACE: Dict[str, object] = {
    "take": np.take,
    "copyto": np.copyto,
    "where": np.where,
    "greater": np.greater,
}
for _name in sorted(set(_UFUNC_NAMES.values())):
    _NAMESPACE[_name] = getattr(np, _name)

#: source string -> compiled code object; a cache hit never re-compiles
_CODE_CACHE: Dict[str, object] = {}


# ---------------------------------------------------------------------------
# SSA passes
# ---------------------------------------------------------------------------


def _annotate(ops: Sequence[tuple]) -> List[tuple]:
    """Rewrite scatters ``(sc, slot, comp, src)`` to carry their call
    index: ``(sc, call, slot, comp, src)``.  The call index survives DCE
    (scatters are roots, never removed) and names the op's row in the
    deferred values buffer."""
    out: List[tuple] = []
    call = 0
    for op in ops:
        if op[0] == "sc":
            out.append(("sc", call, op[1], op[2], op[3]))
            call += 1
        else:
            out.append(op)
    return out


def _reads(op: tuple) -> Tuple:
    """Operand refs (vector ids or folded scalars) of an annotated op."""
    tag = op[0]
    if tag == "bin":
        return (op[2], op[3])
    if tag == "un":
        return (op[2],)
    if tag == "sel":
        return (op[1], op[2], op[3])
    if tag == "sc":
        return (op[4],)
    return ()  # gc / gf


def _dce(ops: List[tuple]) -> Tuple[List[tuple], int]:
    """Drop ops unreachable backwards from the scatter roots."""
    needed: Set[int] = set()
    keep = [False] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op[0] == "sc" or op[-1] in needed:
            keep[i] = True
            for r in _reads(op):
                if not _is_scalar(r):
                    needed.add(r)
    live = [op for op, k in zip(ops, keep) if k]
    return live, len(ops) - len(live)


def _scalar_key(x) -> bytes:
    """Exact-bits CSE key for a folded scalar.  ``tobytes`` distinguishes
    ``-0.0`` from ``0.0`` (Python ``float`` equality would merge them,
    changing bits at e.g. ``x + -0.0`` for ``x = -0.0``)."""
    return np.float64(x).tobytes()


def _cse(ops: List[tuple]) -> Tuple[List[tuple], int]:
    """Merge structurally identical value definitions.

    A duplicate's consumers are rewritten to the first occurrence as they
    stream through (SSA: operands always precede their uses), so no
    re-DCE is needed -- the canonical op keeps every producer alive that
    the duplicate kept alive.
    """
    rep: Dict[int, int] = {}
    table: Dict[tuple, int] = {}
    out_ops: List[tuple] = []
    removed = 0

    def res(r):
        return r if _is_scalar(r) else rep.get(r, r)

    def rkey(r):
        return ("s", _scalar_key(r)) if _is_scalar(r) else ("v", res(r))

    for op in ops:
        tag = op[0]
        if tag == "sc":
            out_ops.append(("sc", op[1], op[2], op[3], res(op[4])))
            continue
        if tag == "bin":
            key = ("bin", op[1], rkey(op[2]), rkey(op[3]))
            new = ("bin", op[1], res(op[2]), res(op[3]), op[4])
        elif tag == "un":
            key = ("un", op[1], rkey(op[2]))
            new = ("un", op[1], res(op[2]), op[3])
        elif tag == "sel":
            key = ("sel", rkey(op[1]), rkey(op[2]), rkey(op[3]),
                   _scalar_key(op[4]))
            new = ("sel", res(op[1]), res(op[2]), res(op[3]), op[4], op[5])
        elif tag == "gc":
            key = ("gc", op[1], op[2])
            new = op
        elif tag == "rp":
            # batched recordings only: one symbolic per-scenario row per
            # parameter name (the recorder memoizes, but keep CSE total)
            key = ("rp", op[1])
            new = op
        else:  # gf
            key = ("gf", op[1], op[2], op[3])
            new = op
        prev = table.get(key)
        if prev is not None:
            rep[op[-1]] = prev
            removed += 1
            continue
        table[key] = op[-1]
        out_ops.append(new)
    return out_ops, removed


def _invariants(ops: List[tuple]) -> Set[int]:
    """Value ids constant across sweeps: coordinate gathers and anything
    computed only from them (and folded scalars).  Field gathers read the
    per-sweep velocity, so they -- and everything downstream -- vary."""
    inv: Set[int] = set()
    for op in ops:
        tag = op[0]
        if tag == "gc":
            inv.add(op[-1])
        elif tag in ("bin", "un", "sel"):
            if all(_is_scalar(r) or r in inv for r in _reads(op)):
                inv.add(op[-1])
    return inv


def _schedule(
    ops: List[tuple], prod: Dict[int, tuple], extra_roots: Sequence[int] = ()
) -> List[tuple]:
    """Reorder one partition's compute ops depth-first from its scatter
    roots (then ``extra_roots`` -- pinned values not reachable from the
    partition's own scatters).  Scatters keep their original relative
    order, so the deferred values buffer is filled in call order.  Pure
    SSA value definitions commute, so reordering cannot change bits."""
    sched: List[tuple] = []
    emitted: Set[int] = set()
    opened: Set[int] = set()

    def visit(root: int) -> None:
        stack = [root]
        while stack:
            r = stack[-1]
            if r in emitted or r not in prod:
                stack.pop()
                continue
            op = prod[r]
            if r in opened:
                stack.pop()
                if r not in emitted:
                    emitted.add(r)
                    sched.append(op)
                continue
            opened.add(r)
            for q in reversed([x for x in _reads(op) if not _is_scalar(x)]):
                if q not in emitted and q in prod:
                    stack.append(q)

    for op in ops:
        if op[0] == "sc":
            src = op[4]
            if not _is_scalar(src):
                visit(src)
            sched.append(op)
    for r in extra_roots:
        visit(r)
    return sched


def _fuse(sched: List[tuple], exclude: Set[int]) -> Set[int]:
    """Ids of single-use arithmetic ops to inline into their consumer.

    Gathers stay statements (they need an ``out=`` target), as does any
    value consumed more than once (inlining would recompute it), any
    value read outside the partition (``exclude``), and any subtree
    deeper than :data:`MAX_FUSE_DEPTH`.  ``sched`` is topologically
    ordered, so fused depths are known when each op is visited.
    """
    uses: Dict[int, int] = {}
    for op in sched:
        for r in _reads(op):
            if not _is_scalar(r):
                uses[r] = uses.get(r, 0) + 1
    fused: Set[int] = set()
    fdepth: Dict[int, int] = {}
    for op in sched:
        if op[0] not in ("bin", "un", "sel"):
            continue
        out = op[-1]
        depth = 1
        for r in _reads(op):
            if not _is_scalar(r) and r in fused:
                depth = max(depth, 1 + fdepth[r])
        if (
            uses.get(out, 0) == 1
            and out not in exclude
            and depth <= MAX_FUSE_DEPTH
        ):
            fused.add(out)
            fdepth[out] = depth
    return fused


@dataclasses.dataclass
class _Stmt:
    """One emitted statement: a non-fused root op plus its inlined tree."""

    op: tuple
    leaves: List[int]  # non-fused vector refs actually read (w/ dups)
    tree: List[tuple]  # root + fused constituents (for cost accounting)


def _collect(
    op: tuple,
    prod: Dict[int, tuple],
    fused: Set[int],
    leaves: List[int],
    tree: List[tuple],
) -> None:
    tree.append(op)
    for r in _reads(op):
        if _is_scalar(r):
            continue
        if r in fused:
            _collect(prod[r], prod, fused, leaves, tree)
        else:
            leaves.append(r)


def _statements(
    sched: List[tuple], prod: Dict[int, tuple], fused: Set[int]
) -> List[_Stmt]:
    stmts: List[_Stmt] = []
    for op in sched:
        if op[0] != "sc" and op[-1] in fused:
            continue
        leaves: List[int] = []
        tree: List[tuple] = []
        _collect(op, prod, fused, leaves, tree)
        stmts.append(_Stmt(op=op, leaves=leaves, tree=tree))
    return stmts


def _assign_rows(
    stmts: List[_Stmt],
    is_external: Callable[[int], bool],
    rank_of: Callable[[int], str] = lambda r: "vec",
) -> Tuple[Dict[int, int], int, int]:
    """Statement-level linear-scan slab allocation (LIFO free lists).

    Dying operands release their row *before* the output is placed, so
    in-place ``out=`` aliasing happens naturally -- safe because every
    emitted form either is an elementwise ufunc over direct operands or
    (``where`` selects, fused sub-expressions) fully evaluates its
    arguments into temporaries before the destination is written.  There
    is one free list per rank pool -- rank-1 rows and ``(S, n)`` rows --
    so a released rank-1 row is never handed to a full-rank output and
    aliasing stays confined to same-shape rows.  Returns the row of every
    internal value and the two pools' row counts.
    """
    last: Dict[int, int] = {}
    for j, st in enumerate(stmts):
        for r in st.leaves:
            if not is_external(r):
                last[r] = j
    row_of: Dict[int, int] = {}
    free: Dict[str, List[int]] = {"vec": [], "full": []}
    nrows = {"vec": 0, "full": 0}
    for j, st in enumerate(stmts):
        for r in sorted(set(st.leaves)):
            if not is_external(r) and last.get(r) == j:
                free[rank_of(r)].append(row_of[r])
        if st.op[0] != "sc":
            out = st.op[-1]
            if not is_external(out):
                pool = rank_of(out)
                if free[pool]:
                    row_of[out] = free[pool].pop()
                else:
                    row_of[out] = nrows[pool]
                    nrows[pool] += 1
    return row_of, nrows["vec"], nrows["full"]


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


def _lit(x) -> str:
    """Exact float64 literal.  ``repr(float(x))`` is shortest-round-trip
    (bit-exact on parse); non-finite values need the ``float('...')``
    spelling to be valid source."""
    f = float(x)
    if math.isfinite(f):
        return repr(f)
    return f"float({str(f)!r})"


def _expr(
    r,
    prod: Dict[int, tuple],
    fused: Set[int],
    name_of: Callable[[int], str],
    rank_of: Optional[Callable[[int], str]] = None,
    scratch: Optional[Dict[str, int]] = None,
) -> str:
    """Render a ref as an expression, inlining fused producers.

    With ``scratch`` (per-pool counters), fused binary/unary nodes write
    into dedicated scratch rows via ``out=`` -- ufuncs return their
    ``out`` array, so the calls still compose as expressions but stop
    allocating a temporary per node.  Rows are drawn from the pool of the
    node's *own* rank (``tv*`` rank-1, ``tf*`` full), so a shared-geometry
    subtree inside a per-scenario statement still computes once per
    batch.  Scratch rows are unique within one statement (the counters
    reset per statement), so sibling subtrees can never clobber each
    other before the parent reads them; values are identical either way,
    so bit-identity is untouched.  Fused selects stay ``where(...)`` (no
    ``out=`` support; it allocates regardless).
    """
    if _is_scalar(r):
        return _lit(r)
    if r not in fused:
        return name_of(r)
    op = prod[r]
    tag = op[0]
    out = ""
    if scratch is not None and tag in ("bin", "un"):
        pool = rank_of(r)
        out = f", out={'tv' if pool == 'vec' else 'tf'}{scratch[pool]}"
        scratch[pool] += 1

    def ex(q):
        return _expr(q, prod, fused, name_of, rank_of, scratch)

    if tag == "bin":
        return f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}, {ex(op[3])}{out})"
    if tag == "un":
        return f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}{out})"
    # sel: pure selection, arguments evaluated before any write
    return (
        f"where(greater({ex(op[1])}, {_lit(op[4])}), "
        f"{ex(op[2])}, {ex(op[3])})"
    )


def _render_compute(
    op: tuple, ex: Callable[[object], str], name_of: Callable[[int], str]
) -> str:
    """One ``bin``/``un``/``sel`` statement writing ``name_of(out)``."""
    tag = op[0]
    if tag == "bin":
        return (
            f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}, {ex(op[3])}, "
            f"out={name_of(op[4])})"
        )
    if tag == "un":
        return f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}, out={name_of(op[3])})"
    return (
        f"copyto({name_of(op[5])}, where(greater({ex(op[1])}, "
        f"{_lit(op[4])}), {ex(op[2])}, {ex(op[3])}))"
    )


def _emit_block(
    lines: List[str],
    stmts: List[str],
    indent: str,
    lanevars: Optional[List[str]] = None,
) -> None:
    """Append ``stmts``; with ``lanevars`` each one is timed and recorded
    over its lane count (the profiled twin)."""
    if not stmts:
        lines.append(f"{indent}pass")
        return
    if lanevars is None:
        for s in stmts:
            lines.append(f"{indent}{s}")
        return
    # timer binding must not collide with scratch rows tv0, tf0, ...
    for i, (s, lv) in enumerate(zip(stmts, lanevars)):
        lines.append(f"{indent}_t = clock()")
        lines.append(f"{indent}{s}")
        lines.append(f"{indent}rec({i}, clock() - _t, {lv})")


_ROOT_KINDS = {"bin": "bin", "un": "un", "sel": "sel",
               "gc": "gather", "gf": "gather", "sc": "scatter"}


def _root_label(op: tuple) -> str:
    tag = op[0]
    if tag in ("bin", "un"):
        return _UFUNC_NAMES[op[1]]
    if tag == "sel":
        return "select"
    if tag == "gc":
        return f"coord[{op[1]},{op[2]}]"
    if tag == "gf":
        return f"{op[1]}[{op[2]},{op[3]}]"
    return f"rhs[{op[2]},{op[3]}]"


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _make_report(variant: str, recorder, ops: List[tuple], dce_removed: int,
                 cse_removed: int, hoisted: int, fused: int, nslab: int,
                 npinned: int) -> TapeReport:
    tags = [op[0] for op in ops]
    return TapeReport(
        variant=variant,
        ops_recorded=len(recorder.ops),
        ops_live=len(ops),
        dce_removed=dce_removed,
        folded_scalars=recorder.folded_scalars,
        gather_reuses=recorder.gather_reuses,
        scatter_calls=len(recorder.scatter_calls),
        buffers_live=nslab,
        binary_ops=tags.count("bin"),
        unary_ops=tags.count("un"),
        select_ops=tags.count("sel"),
        gather_ops=tags.count("gc") + tags.count("gf"),
        cse_removed=cse_removed,
        hoisted_ops=hoisted,
        fused_ops=fused,
        pinned_buffers=npinned,
    )


def _maybe_dump(filename: str, source: str) -> None:
    outdir = os.environ.get("REPRO_CODEGEN_DUMP")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(source)
    get_registry().counter("codegen.dumps").inc()


# ---------------------------------------------------------------------------
# exec-compilation (module-level source cache)
# ---------------------------------------------------------------------------


def _load(source: str, filename: str) -> Dict[str, object]:
    """Exec a generated module into a fresh namespace.

    The compiled code object is cached on the exact source string, so a
    plan-cache hit (or a fresh plan generating the identical kernel, as
    every chunk mesh of a multiprocess sweep does) never pays ``compile``
    twice in one process.
    """
    registry = get_registry()
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
        registry.counter("codegen.source_compiles").inc()
    else:
        registry.counter("codegen.source_reuses").inc()
    ns = dict(_NAMESPACE)
    exec(code, ns)
    return ns


# ---------------------------------------------------------------------------
# Scenario-batched codegen
# ---------------------------------------------------------------------------
#
# A batched recording (BatchRecordingBackend) keeps varying runtime
# parameters symbolic as ("rp", name, out) ops, giving every SSA value a
# rank on the lattice srow (S, 1) < {vec (lanes,), full (S, lanes)} (see
# repro.core.tape._infer_ranks).  Lowering runs the shared SSA pipeline --
# DCE, CSE, invariant hoisting, DFS scheduling, fusion -- with three
# rank-aware twists:
#
# * the all-srow prefix is peeled into a tiny Python-evaluated parameter
#   stage (same lowered format as BatchTapeProgram.param_ops, evaluated
#   by tape._eval_param_stage into persistent (S, 1) rows Q) instead of
#   being emitted as lane-wide statements;
# * slab rows are assigned from two pools -- rank-1 rows BV and (S, n)
#   rows BF -- by a rank-aware liveness scan, and fused scratch rows are
#   drawn per pool from the fused op's *own* rank, so shared geometry
#   arithmetic runs once per batch at rank-1;
# * scatters reshape by source rank: scalars fill, srow rows broadcast as
#   (S, 1, 1), vec sources broadcast a (cg, vd) block over all scenarios
#   and full sources land per scenario as (S, cg, vd).
#
# The hoisted setup is rank-1 (invariants are geometry-only); only the SV
# views handed to it are (S, G, vd) so its writes broadcast across
# scenarios once at bind time.  A single-scenario kernel is the S = 1
# case: nothing varies, so there is no parameter stage and no (S, n) row.


def _stmt_costs(
    stmts: List[_Stmt],
    rank: Dict[int, str],
    q_refs: Set[int],
    scenarios: int,
) -> Tuple[tuple, ...]:
    """Per-statement profiler cost slots in units of the *root's* lanes.

    The timed kernel records ``S * n`` lanes for full-rank statements and
    ``n`` for rank-1 ones; a rank-1 op fused inside a full-rank statement
    still executes only ``n`` lanes, so its per-lane contribution scales
    by ``1/S`` to keep total bytes honest.  Reads of ``(S, 1)`` parameter
    rows count zero bytes, like folded scalars (cache-resident).
    """

    def cheap(ref) -> bool:
        return _is_scalar(ref) or ref in q_refs

    costs: List[tuple] = []
    for st in stmts:
        root = st.op
        root_full = root[0] == "sc" or rank.get(root[-1]) == "full"
        rb = wb = fl = 0.0
        for op in st.tree:
            tag = op[0]
            if tag == "bin":
                nv = sum(1 for r in (op[2], op[3]) if not cheap(r))
                orb, owb, ofl = nv * 8.0, 8.0, 1.0
            elif tag == "un":
                orb = 0.0 if cheap(op[2]) else 8.0
                owb, ofl = 8.0, 1.0
            elif tag == "sel":
                nv = sum(1 for r in (op[1], op[2], op[3]) if not cheap(r))
                orb, owb, ofl = nv * 8.0 + 1.0, 9.0, 1.0
            elif tag in ("gc", "gf"):
                orb, owb, ofl = 16.0, 8.0, 0.0
            else:  # sc
                orb = 0.0 if cheap(op[4]) else 8.0
                owb, ofl = 8.0, 0.0
            scale = 1.0
            if root_full and tag != "sc" and rank.get(op[-1]) == "vec":
                scale = 1.0 / scenarios
            rb += orb * scale
            wb += owb * scale
            fl += ofl * scale
        label = _root_label(root)
        if len(st.tree) > 1:
            label += f"+{len(st.tree) - 1}"
        costs.append((_ROOT_KINDS[root[0]], label, rb, wb, fl))
    return tuple(costs)


@dataclasses.dataclass(frozen=True)
class BatchedCodegenProgram:
    """A generated, picklable scenario-batched kernel module.

    ``source`` defines ``setup(C, I, P, T, SV)`` (rank-1 invariants,
    writing broadcast ``(S, G, vd)`` views once at bind time),
    ``factory(VC, GI, P, Q, SV,
    BV, BF)`` and the profiled twin ``factory_timed(..., clock, rec, n,
    ns)`` where ``n``/``ns`` are the chunk's rank-1 / full lane counts.
    ``param_ops`` is the Python-evaluated ``(S, 1)`` scenario-row stage in
    the exact :class:`~repro.core.tape.BatchTapeProgram` format, refreshed
    every execute by :func:`~repro.core.tape._eval_param_stage`.
    """

    variant: str
    batch_key: tuple
    scenarios: int
    velocity_rank: str
    vector_dim: int
    nnode_per_element: int
    source: str
    param_ops: Tuple[tuple, ...]
    nq: int
    scatter_calls: Tuple[Tuple[int, int], ...]
    setup_calls: Tuple[int, ...]
    body_calls: Tuple[int, ...]
    gf_slots: Tuple[int, ...]
    vc_comps: Tuple[int, ...]
    npinned: int
    nsetup_tmp: int
    nslab_vec: int
    nslab_full: int
    stmt_costs: Tuple[tuple, ...]
    report: TapeReport


def generate_batched_program(
    variant_name: str,
    vector_dim: int,
    batch,
    velocity_rank: str = "vec",
    nnode_per_element: int = 4,
) -> BatchedCodegenProgram:
    """Lower one variant to a scenario-batched generated source module."""
    if velocity_rank not in ("vec", "full"):
        raise ValueError(
            f"velocity_rank must be 'vec' or 'full', got {velocity_rank!r}"
        )
    vd = int(vector_dim)
    S = int(batch.size)
    variant = get_variant(variant_name)
    with get_tracer().span(
        "codegen.generate_batch",
        variant=variant.name,
        vector_dim=vd,
        scenarios=S,
    ):
        ctx = KernelContext(
            connectivity=np.zeros((1, nnode_per_element), dtype=np.int64),
            coords=np.zeros((1, 3)),
            fields={"velocity": np.zeros((1, 3))},
            rhs=np.zeros((1, 3)),
            params=dict(batch.recording_params()),
            nnode_per_element=nnode_per_element,
        )
        recorder = BatchRecordingBackend(ctx, batch.varying)
        variant.kernel(recorder, ctx)
        for op in recorder.ops:
            if op[0] == "gf" and op[1] != "velocity":
                raise ValueError(
                    f"batched generated kernel gathers unknown field "
                    f"{op[1]!r}; the executor only binds 'velocity'"
                )
        ops = _annotate(recorder.ops)
        live, dce_removed = _dce(ops)
        ops, cse_removed = _cse(live)
        rank = _infer_ranks(ops, velocity_rank)
        inv = _invariants(ops)

        # -- three-way partition: param stage / setup / body -------------
        q_of: Dict[int, int] = {}
        param_ops: List[tuple] = []
        setup_ops: List[tuple] = []
        body_ops: List[tuple] = []
        setup_calls: List[int] = []
        body_calls: List[int] = []
        for op in ops:
            tag = op[0]
            if tag == "sc":
                src = op[4]
                if _is_scalar(src) or src in inv:
                    setup_ops.append(op)
                    setup_calls.append(op[1])
                else:
                    body_ops.append(op)
                    body_calls.append(op[1])
                continue
            out = op[-1]
            if tag == "rp" or rank[out] == "srow":
                q_of[out] = len(q_of)

                def qref(r):
                    return r if _is_scalar(r) else q_of[r]

                if tag == "rp":
                    param_ops.append(("rp", op[1], q_of[out]))
                elif tag == "bin":
                    param_ops.append((
                        "bin", _UFUNC_NAMES[op[1]], qref(op[2]),
                        qref(op[3]), q_of[out],
                    ))
                elif tag == "un":
                    param_ops.append((
                        "un", _UFUNC_NAMES[op[1]], qref(op[2]), q_of[out],
                    ))
                else:  # sel (x is srow: scalar x folds at record time)
                    param_ops.append((
                        "sel", qref(op[1]), qref(op[2]), qref(op[3]),
                        op[4], q_of[out],
                    ))
            elif out in inv:
                setup_ops.append(op)
            else:
                body_ops.append(op)

        prod: Dict[int, tuple] = {
            op[-1]: op for op in ops if op[0] != "sc"
        }
        setup_prod = {op[-1]: op for op in setup_ops if op[0] != "sc"}
        body_prod = {op[-1]: op for op in body_ops if op[0] != "sc"}
        pinned = sorted({
            r
            for op in body_ops
            for r in _reads(op)
            if not _is_scalar(r) and r in inv
        })
        pinned_set = set(pinned)
        pin_index = {r: k for k, r in enumerate(pinned)}
        q_refs = set(q_of)

        def is_external(r: int) -> bool:
            return r in pinned_set or r in q_refs

        setup_sched = _schedule(setup_ops, setup_prod, extra_roots=pinned)
        body_sched = _schedule(body_ops, body_prod)
        setup_fused = _fuse(setup_sched, exclude=pinned_set)
        body_fused = _fuse(body_sched, exclude=set())
        setup_stmts = _statements(setup_sched, prod, setup_fused)
        body_stmts = _statements(body_sched, prod, body_fused)

        setup_rows, nsetup_tmp, _ = _assign_rows(
            setup_stmts, lambda r: r in pinned_set
        )
        body_rows, nslab_v, nslab_f = _assign_rows(
            body_stmts, is_external, lambda r: rank[r]
        )

        def setup_name(r: int) -> str:
            if r in pinned_set:
                return f"P[{pin_index[r]}]"
            return f"T[{setup_rows[r]}]"

        def body_name(r: int) -> str:
            if r in pinned_set:
                return f"p{pin_index[r]}"
            if r in q_refs:
                return f"q{q_of[r]}"
            if rank[r] == "vec":
                return f"bv{body_rows[r]}"
            return f"bf{body_rows[r]}"

        spos = {call: j for j, call in enumerate(setup_calls)}
        bpos = {call: j for j, call in enumerate(body_calls)}
        gf_slots = sorted({op[2] for op in body_ops if op[0] == "gf"})
        gi_index = {slot: k for k, slot in enumerate(gf_slots)}
        vc_comps = sorted({op[3] for op in body_ops if op[0] == "gf"})

        def scatter(dst: str, src, ex) -> str:
            """Scatter statement, reshaped by the source's rank."""
            if _is_scalar(src):
                return f"{dst}[...] = {_lit(src)}"
            if src in q_refs:
                return f"copyto({dst}, q{q_of[src]}.reshape({S}, 1, 1))"
            if rank[src] == "full":
                return f"copyto({dst}, {ex(src)}.reshape({S}, -1, {vd}))"
            return f"copyto({dst}, {ex(src)}.reshape(-1, {vd}))"

        # -- setup: rank-1 geometry, shared by every scenario --------------
        def setup_ex(r):
            return _expr(r, prod, setup_fused, setup_name)

        setup_lines: List[str] = []
        for st in setup_stmts:
            op = st.op
            if op[0] == "gc":
                line = f"take(C[{op[2]}], I[{op[1]}], out={setup_name(op[3])})"
            elif op[0] == "sc":
                line = scatter(f"SV[{spos[op[1]]}]", op[4], setup_ex)
            else:
                line = _render_compute(op, setup_ex, setup_name)
            setup_lines.append(line)

        # -- body: rank-aware emission ------------------------------------
        gather = "take(vc{c}, gi{k}, axis=1, out={dst})" \
            if velocity_rank == "full" else "take(vc{c}, gi{k}, out={dst})"
        body_lines: List[str] = []
        lanevars: List[str] = []
        nscratch = {"vec": 0, "full": 0}
        for st in body_stmts:
            op = st.op
            tag = op[0]
            ctr = {"vec": 0, "full": 0}

            def ex(r):
                return _expr(
                    r, prod, body_fused, body_name, lambda v: rank[v], ctr
                )

            if tag == "gf":
                line = gather.format(
                    c=op[3], k=gi_index[op[2]], dst=body_name(op[4])
                )
            elif tag == "sc":
                line = scatter(f"s{bpos[op[1]]}", op[4], ex)
            else:
                line = _render_compute(op, ex, body_name)
            body_lines.append(line)
            if tag == "sc" or rank.get(op[-1]) == "full":
                lanevars.append("ns")
            else:
                lanevars.append("n")
            nscratch["vec"] = max(nscratch["vec"], ctr["vec"])
            nscratch["full"] = max(nscratch["full"], ctr["full"])

        nslab_vec = nslab_v + nscratch["vec"]
        nslab_full = nslab_f + nscratch["full"]

        prologue = (
            [f"vc{c} = VC[{c}]" for c in vc_comps]
            + [f"gi{k} = GI[{k}]" for k in range(len(gf_slots))]
            + [f"p{k} = P[{k}]" for k in range(len(pinned))]
            + [f"q{k} = Q[{k}]" for k in range(len(q_of))]
            + [f"s{j} = SV[{j}]" for j in range(len(body_calls))]
            + [f"bv{r} = BV[{r}]" for r in range(nslab_v)]
            + [f"tv{k} = BV[{nslab_v + k}]" for k in range(nscratch["vec"])]
            + [f"bf{r} = BF[{r}]" for r in range(nslab_f)]
            + [f"tf{k} = BF[{nslab_f + k}]" for k in range(nscratch["full"])]
        )

        lines: List[str] = [
            "# generated by repro.core.codegen -- do not edit",
            f"# variant={variant.name} vector_dim={vd} scenarios={S} "
            f"velocity_rank={velocity_rank} stmts={len(body_stmts)} "
            f"rows_vec={nslab_vec} rows_full={nslab_full} "
            f"param_ops={len(param_ops)} pinned={len(pinned)} "
            f"fused={len(setup_fused) + len(body_fused)}",
            "",
            "",
            "def setup(C, I, P, T, SV):",
        ]
        _emit_block(lines, setup_lines, "    ")
        lines += ["", "", "def factory(VC, GI, P, Q, SV, BV, BF):"]
        for p in prologue:
            lines.append(f"    {p}")
        lines.append("")
        lines.append("    def kernel():")
        _emit_block(lines, body_lines, "        ")
        lines.append("")
        lines.append("    return kernel")
        lines += [
            "", "",
            "def factory_timed(VC, GI, P, Q, SV, BV, BF, clock, rec, n, ns):",
        ]
        for p in prologue:
            lines.append(f"    {p}")
        lines.append("")
        lines.append("    def kernel():")
        _emit_block(lines, body_lines, "        ", lanevars)
        lines.append("")
        lines.append("    return kernel")
        source = "\n".join(lines) + "\n"

        nvec_ops = sum(
            1 for op in body_ops
            if op[0] != "sc" and rank.get(op[-1]) == "vec"
        )
        nfull_ops = sum(
            1 for op in body_ops
            if op[0] != "sc" and rank.get(op[-1]) == "full"
        )
        report = dataclasses.replace(
            _make_report(
                variant.name, recorder, ops, dce_removed, cse_removed,
                hoisted=len(setup_sched),
                fused=len(setup_fused) + len(body_fused),
                nslab=nslab_vec + nslab_full,
                npinned=len(pinned),
            ),
            srow_ops=len(param_ops),
            vec_ops=nvec_ops,
            full_ops=nfull_ops,
            scenarios=S,
        )
        program = BatchedCodegenProgram(
            variant=variant.name,
            batch_key=tuple(batch.cache_key()),
            scenarios=S,
            velocity_rank=velocity_rank,
            vector_dim=vd,
            nnode_per_element=nnode_per_element,
            source=source,
            param_ops=tuple(param_ops),
            nq=len(q_of),
            scatter_calls=tuple(recorder.scatter_calls),
            setup_calls=tuple(setup_calls),
            body_calls=tuple(body_calls),
            gf_slots=tuple(gf_slots),
            vc_comps=tuple(vc_comps),
            npinned=len(pinned),
            nsetup_tmp=nsetup_tmp,
            nslab_vec=nslab_vec,
            nslab_full=nslab_full,
            stmt_costs=_stmt_costs(body_stmts, rank, q_refs, S),
            report=report,
        )
    registry = get_registry()
    registry.counter("codegen.generates").inc()
    registry.gauge(f"codegen.batch_full_rows.{variant.name}").set(nslab_full)
    _maybe_dump(f"{variant.name}_vd{vd}_S{S}.py", source)
    return program


class BatchedGeneratedKernel(BoundKernel):
    """Executable batched generated module bound to one plan/packing pair.

    Shares :class:`~repro.core.tape.BatchedTape`'s binding
    (:class:`~repro.core.tape.BoundKernel`: gather index layout, plan
    scatter pattern, ``(S, 1)`` parameter rows refreshed from
    :attr:`param_rows` every execute, one batched flush) and runs one
    prebound zero-argument kernel per chunk, slab-striped across threads.
    ``setup`` runs once here at full lane width.  At ``S = 1`` this is
    the single-scenario generated kernel.
    """

    KIND = "codegen"

    #: lane cap on the default chunk.  Few slab rows let the slab rule
    #: pick ~20k-lane chunks at small S; 4096-lane chunks are measurably
    #: faster there (the ufunc bandwidth sweet spot on cache-resident
    #: slabs), and at S = 1 the cap is what sets the chunk.
    MAX_CHUNK_LANES = 4096

    def __init__(
        self,
        program: BatchedCodegenProgram,
        plan,
        packing,
        perm_key=None,
        tracer=NULL_TRACER,
    ) -> None:
        super().__init__(program, plan, packing, perm_key, tracer)
        self._pinned = np.empty((max(program.npinned, 1), self.nlane))
        ns = _load(
            program.source,
            f"<codegen:{program.variant}:vd{self.vector_dim}:S{self.S}>",
        )
        self._factory = ns["factory"]
        self._factory_timed = ns["factory_timed"]

        # run the hoisted setup once: rank-1 geometry at full lane width,
        # writes broadcasting over the (S, G, vd) scatter-value views.
        T = np.empty((max(program.nsetup_tmp, 1), self.nlane))
        SV = [self._values[:, :, c, :] for c in program.setup_calls]
        ns["setup"](self._ccols, self._idx, self._pinned, T, SV)
        del T

    # -- chunk closures ---------------------------------------------------
    def _resolve_cg(self, chunk_groups: Optional[int]) -> int:
        if chunk_groups is not None:
            return max(1, min(int(chunk_groups), self.ngroups))
        cg = self._default_chunk_groups(
            self.program.nslab_vec, self.program.nslab_full
        )
        return max(1, min(cg, self.MAX_CHUNK_LANES // self.vector_dim))

    def _build_closures(
        self, cg: int, nslabs: int, profile=None
    ) -> List[list]:
        """Bind one closure per chunk; chunk ``i`` runs on slab
        ``i % nslabs``, and each slab's chunks run sequentially in one
        pool task, so concurrent slabs never share scratch rows."""
        vd = self.vector_dim
        S = self.S
        program = self.program
        chunks = self._chunks(cg)
        nslabs = max(1, min(nslabs, len(chunks)))
        slabs_v = np.empty(
            (nslabs, max(program.nslab_vec, 1), cg * vd)
        )
        slabs_f = np.empty(
            (nslabs, max(program.nslab_full, 1), S * cg * vd)
        )
        per_slab: List[list] = [[] for _ in range(nslabs)]
        factory = self._factory if profile is None else self._factory_timed
        for i, (g0, g1) in enumerate(chunks):
            s = i % nslabs
            lo = g0 * vd
            n = (g1 - g0) * vd
            GI = [self._idx[slot][lo:lo + n] for slot in program.gf_slots]
            P = [self._pinned[k, lo:lo + n] for k in range(program.npinned)]
            SV = [self._values[:, g0:g1, c, :] for c in program.body_calls]
            BV = [slabs_v[s, r, :n] for r in range(program.nslab_vec)]
            BF = [
                slabs_f[s, r, :S * n].reshape(S, n)
                for r in range(program.nslab_full)
            ]
            if profile is None:
                kern = factory(self._vcols, GI, P, self._Q, SV, BV, BF)
            else:
                kern = factory(
                    self._vcols, GI, P, self._Q, SV, BV, BF,
                    time.perf_counter, profile.record, n, S * n,
                )
            per_slab[s].append(kern)
        return per_slab

    # -- execution --------------------------------------------------------
    @staticmethod
    def _run_slab(kerns: list) -> None:
        for kern in kerns:
            kern()

    def _slab_tasks(self, cg: int, nslabs: int, profile) -> list:
        if profile is None:
            per_slab = self._closures(cg, nslabs)
        else:
            per_slab = self._build_closures(cg, nslabs, profile=profile)
        return [functools.partial(self._run_slab, kerns) for kerns in per_slab]

    def _profile(self, executor: str):
        return self.profiler.for_batch_codegen(
            self.program, self.vector_dim, executor
        )


def batched_generated_kernel(
    plan,
    variant_name: str,
    vector_dim: int,
    batch,
    permutation: Optional[np.ndarray] = None,
    velocity_rank: str = "vec",
    tracer=None,
    profiler=None,
) -> BatchedGeneratedKernel:
    """The plan-cached :class:`BatchedGeneratedKernel` for one batch.

    Keyed like :func:`~repro.core.tape.batched_tape` (variant, group
    size, permutation, batch shape/constants/flags, velocity rank) but in
    the plan's codegen store.  The varying parameter *values* live
    outside the kernel: they are refreshed from ``batch`` on every call,
    so sweeping a campaign over new values re-generates nothing.  A
    one-scenario batch is the single-scenario generated kernel; mesh
    reorientation invalidates the plan and every kernel bound to it.
    """
    key = batch_tape_cache_key(
        variant_name, vector_dim, permutation, batch, velocity_rank
    )
    kern = plan.cached_codegen(key)
    registry = get_registry()
    if kern is None:
        with get_tracer().span(
            "codegen.compile_batch",
            variant=key[0],
            vector_dim=int(vector_dim),
            scenarios=batch.size,
        ):
            program = generate_batched_program(
                key[0], int(vector_dim), batch, velocity_rank=velocity_rank
            )
            packing = plan.packing(int(vector_dim), permutation=permutation)
            kern = BatchedGeneratedKernel(
                program, plan, packing, perm_key=key[2]
            )
        plan.store_codegen(key, kern)
        registry.counter(_event("codegen", "compiles", batch.size)).inc()
    else:
        registry.counter(_event("codegen", "cache_hits", batch.size)).inc()
    kern.param_rows = batch.param_rows()
    if tracer is not None:
        kern.tracer = tracer
    kern.profiler = profiler if profiler is not None else NULL_PROFILER
    return kern
