"""Batched lockstep execution of independent same-shaped solves.

Fault-injection campaigns run thousands of *independent* scenarios that
share one operator and vector length and differ only in right-hand
side, fault stream and policy knobs.  Solving them one at a time leaves
almost all of the wall-clock in Python interpreter overhead: at the
campaign's typical ``n`` (a few thousand), one Arnoldi iteration is a
handful of microsecond-scale BLAS calls wrapped in hundreds of
microseconds of bookkeeping.  This module advances ``S`` scenarios in
lockstep instead: the inner-loop kernels (operator application,
Gram-Schmidt, the Givens QR recurrence) run once per *step* on stacked
``(S, n)`` arrays, while everything observable stays per-lane.

Bit-parity contract
-------------------
A batched lane produces byte-identical results to the corresponding
sequential solve (``tests/test_batch_parity.py`` pins this across the
solver x fault x preconditioner x policy matrix).  The design rules
that make this hold:

* Only operations with verified batched bit-identity are vectorized:
  stacked ``np.matmul`` against the per-lane gemv (NOT ``np.einsum``),
  the row-at-a-time stacked ``(L, 1, r) @ (L, r, 1)`` dot of
  :func:`~repro.linalg.blas.back_substitution_many` against the
  per-lane row ``ddot``, elementwise arithmetic,
  :meth:`~repro.linalg.csr.CsrMatrix.matvec_block` (``np.add.reduceat``
  over gathered products), and the mask-chained
  :func:`~repro.linalg.blas.givens_rotation_many`.
* Only the inner step is this module's own.  The layer above builds
  each lane from the engine its solver function builds
  (``gmres_engine``, ``cg_engine``) and hands the lanes in; a lane
  steps the attempt that engine begins
  (:class:`~repro.krylov.engine.core.ArnoldiAttempt`,
  :class:`~repro.krylov.engine.cg.CgAttempt`), so the cycle head and
  tail, the event a policy sees, the result and every preconditioner
  application are the sequential engine's functions, with its charges.
* Lanes never join a cycle midway: a restart cycle is the lockstep
  unit.  Lanes are grouped into *cohorts* keyed by the cycle dimension
  ``m`` from :func:`~repro.krylov.engine.core.cycle_dimension`, and a
  lane that converges, breaks down, is abandoned by a failed check or
  exhausts its budget simply leaves its cohort; the survivors keep
  going.
* Per-lane fault hooks and resilience policies observe exactly the
  sequential per-iteration events, against live views of the stacked
  arrays, so injected faults land in the real solver state.  An
  observer that declares the one iteration it can act at
  (``ResiliencePolicy.fire_at``) is called at that iteration only.

Cost shape: a lockstep step is its stacked kernels plus array
bookkeeping.  Per-lane Python runs only on events -- an observer that
is due or watches every step, a lane's check that fails or is due
(orthogonality, consistency), a lane leaving -- and a lane reads its
step count, residual history, kernel seconds and check counters
back from the cohort arrays when it leaves.  The cycle boundary enters
the sequential engine's functions once per lane, but hands them the
stacked true residuals (head and tail) and least-squares solves (tail).

Kernel counters: batched spans (the stacked matvec and the
orthogonalization block) are measured once per step and split evenly
across the active lanes; every lane enters a cycle at step 0, so what a
lane is charged when it leaves is the running sum of those shares with
its step count as the call count.  Call counts match the sequential
solver exactly and only the attributed seconds are approximate; parity
gates therefore compare everything except ``seconds``.

A lane class may name a ``cohort`` class for its checks: a lockstep
cohort holding such lanes builds one over them and their slots of the
step-major table, calls its ``sweep`` every step (it returns the lanes
whose cycle a check abandoned) and tells it when a lane leaves.  Such a
lane drives its own attempt loop at the cycle boundaries, so an
abandoned cycle restarts its solve from the last valid iterate.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.orthogonalize import HAPPY_BREAKDOWN_TOL, orthogonalize_many
from repro.krylov.engine.resilience import IterationEvent
from repro.krylov.result import SolveResult
from repro.linalg.blas import back_substitution, back_substitution_many, givens_rotation_many
from repro.linalg.csr import CsrMatrix

__all__ = [
    "ArnoldiLane",
    "run_arnoldi_batch",
    "run_cg_batch",
    "batched_matvec",
]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _basis_view(rows: np.ndarray):
    """A :class:`~repro.krylov.ops._DenseKrylovBasis` over lane storage.

    ``rows`` is the lane's ``(m+1, n)`` slice of the cohort's stacked
    basis array; the adapter makes it a real ``KrylovBasis`` so fault
    hooks, reconstruct closures and the orthogonality check operate on
    live solver state exactly as in the sequential path.
    """
    adapter = ops._DenseKrylovBasis.__new__(ops._DenseKrylovBasis)
    adapter._rows = rows
    adapter.n_columns = 0
    return adapter


class _LaneLsq:
    """View-backed stand-in for :class:`~repro.linalg.blas.HessenbergLsq`.

    The rotations run vectorized across the cohort; this object only
    exposes the per-lane ``hessenberg`` array and rotated right-hand
    side ``g`` (both views into the cohort stacks) with the ``solve``
    the reconstruct closures and cycle-end updates call, which hands
    back ``y``, the cycle tail's stacked solve, when it has one.
    """

    __slots__ = ("hessenberg", "_g", "size", "y")

    def __init__(self, hessenberg: np.ndarray, g: np.ndarray):
        self.hessenberg = hessenberg
        self._g = g
        self.size = 0
        self.y = None

    def solve(self, k: Optional[int] = None) -> np.ndarray:
        k = self.size if k is None else int(k)
        if self.y is not None and self.y.size == k:
            return self.y
        return back_substitution(self.hessenberg[:k, :k], self._g[:k])


def batched_matvec(operator, X: np.ndarray) -> np.ndarray:
    """Apply ``operator`` to every row of ``X`` (shape ``(S, n)``).

    :class:`~repro.linalg.csr.CsrMatrix` operators use the bit-parity
    :meth:`~repro.linalg.csr.CsrMatrix.matvec_block` kernel; anything
    else (dense ndarray, callable) is applied per row through
    :func:`repro.krylov.ops.matvec` -- broadcast dense gemm is NOT
    bit-identical to per-vector gemv, so it is deliberately not used.
    """
    X = np.asarray(X, dtype=np.float64)
    if isinstance(operator, CsrMatrix):
        return operator.matvec_block(X)
    if X.shape[0] == 0:
        return np.zeros_like(X)
    return np.array(
        [np.asarray(ops.matvec(operator, x), dtype=np.float64) for x in X]
    )


def _matvec_rows(lanes, Z: np.ndarray, shared: bool) -> np.ndarray:
    """Operator application for one lockstep step.

    When every lane of the cohort shares one operator object
    (``shared``) the batched kernel runs; lanes with private operators
    (per-scenario fault-injecting wrappers) are applied row by row with
    their own operator, keeping each lane's fault stream draw-for-draw
    sequential.
    """
    if shared:
        return batched_matvec(lanes[0].attempt.operator, Z)
    return np.array(
        [
            np.asarray(ops.matvec(lane.attempt.operator, Z[i]), dtype=np.float64)
            for i, lane in enumerate(lanes)
        ]
    )


# ---------------------------------------------------------------------------
# The Arnoldi lockstep machinery
# ---------------------------------------------------------------------------


class ArnoldiLane:
    """A plain/guarded GMRES scenario: the engine ``gmres_engine`` built
    for it, its one attempt stepped by the cohort instead of ``engine.solve``.

    Any lane :func:`run_arnoldi_batch` takes has this protocol: ``b``,
    ``cohort`` (the class of its checks, or ``None``), ``attempt``,
    ``slot``, ``abandoned`` and ``result``, and :meth:`head`,
    :meth:`begin_cycle` and :meth:`tail_begin`.
    """

    cohort = None

    def __init__(self, engine, b, x0=None):
        self.engine = engine
        self.b = np.asarray(b, dtype=np.float64)
        self.attempt = engine.begin(self.b, x0)
        self.slot = -1
        self.abandoned = False
        self.result: Optional[SolveResult] = None

    def head(self):
        """The attempt whose cycle head is next, when it forms a residual."""
        a = self.attempt
        return a if self.result is None and not a.done else None

    def begin_cycle(self, r=None):
        """Run the cycle head (on ``r``, the residual :meth:`head` asked
        for, when it was stacked); return its cycle dimension (the cohort
        key), ``None`` when solved."""
        if self.result is None:
            m = self.attempt.begin_cycle(r)
            if m is not None:
                return m
            self.result = self.engine.finish(self.attempt.result())
        return None

    def tail_begin(self):
        """The attempt whose cycle tail remains; ``None`` when a check
        abandoned the cycle (never, for this lane)."""
        return self.attempt


def _advance(lane, steps: int, res: np.ndarray) -> None:
    """Bring a lane's attempt up to ``steps`` steps of this cycle.

    :func:`_run_cohort` keeps the step count and the residuals in
    cohort arrays (``res[j, slot]`` is the residual entering step
    ``j``); the attempt reads them back here, when someone can see its
    fields -- before an observer is called and when the lane leaves.
    """
    a = lane.attempt
    a.residual_norms.extend(res[a.inner_used + 1 : steps + 1, lane.slot].tolist())
    a.total_iteration += steps - a.inner_used
    a.inner_used = a.lsq.size = steps
    a.basis.n_columns = steps + 1


def _swap_slots(order, s: int, t: int, basis, hess, table, g) -> None:
    """Swap two lanes' slots in the cohort stacks.

    Both lanes keep their own data -- the rows (columns of the
    step-major ``table``) are exchanged and each attempt's views (basis,
    least-squares Hessenberg and rotated right-hand side, a column of
    ``g``) are re-pointed at its new slot, so the cycle tail and the
    reconstruct closures keep seeing live state.
    """
    for stack in (basis, hess):
        tmp = stack[s].copy()
        stack[s] = stack[t]
        stack[t] = tmp
    table[:, [s, t]] = table[:, [t, s]]
    a, b = order[s], order[t]
    order[s], order[t] = b, a
    for lane, slot in ((a, t), (b, s)):
        lane.slot = slot
        lane.attempt.basis._rows = basis[slot]
        lane.attempt.lsq.hessenberg = hess[slot]
        lane.attempt.lsq._g = g[:, slot]


def _run_cohort(lanes, m: int, n: int):
    """Advance one restart cycle of a cohort of lanes in lockstep; return
    the Hessenberg stack and the rotated right-hand sides ``g`` (step-major)
    the cycle tail solves.

    All lanes share the cycle dimension ``m``; each occupies one slot of
    the stacked basis ``(G, m+1, n)`` and Hessenberg ``(G, m+1, m)``
    arrays and one column of a step-major ``table`` holding everything a
    step reads as a ``(k,)`` vector (Givens rotations, rotated
    right-hand side, residuals, targets), so those operands are
    contiguous rows.  Lanes leave the active set on convergence, happy
    breakdown, non-finite residual or a check abandoning its cycle;
    survivors proceed.  (The budget needs no test: ``m`` never exceeds a
    lane's remaining iterations, so it can only run out at the last
    step, where the cycle ends anyway.)

    Per-lane Python runs only on events (module docstring, "Cost
    shape"); a lane reads its step count, residuals and kernel seconds
    back when it leaves -- every lane enters at step 0, so its seconds
    are the running even shares and its call count is its step count.
    """
    G = len(lanes)
    checked = next((lane.cohort for lane in lanes if lane.cohort is not None), None)
    basis = np.zeros((G, m + 1, n), dtype=np.float64)
    hess = np.zeros((G, m + 1, m), dtype=np.float64)
    # (+ the checked lanes' rows of their cohort, so a slot swap carries them)
    table = np.zeros((4 * m + 3 + (checked.ROWS if checked else 0), G), dtype=np.float64)
    giv_c, giv_s, g = table[:m], table[m : 2 * m], table[2 * m : 3 * m + 1]
    res = table[3 * m + 1 : 4 * m + 2]  # res[j]: the residual entering step j
    targets = table[4 * m + 2]
    col = np.empty((m + 1, G), dtype=np.float64)
    buf = np.empty((2 * m + 1, G), dtype=np.float64)

    order = list(lanes)
    every = []  # lanes whose observer watches every step
    due = {}  # step -> lanes whose observer can act only there
    for slot, lane in enumerate(order):
        a = lane.attempt
        lane.slot = slot
        res[0, slot] = g[0, slot] = a.cycle_residual
        targets[slot] = a.target
        a.start_cycle(_basis_view(basis[slot]), _LaneLsq(hess[slot], g[:, slot]), m)
        if a.fire_at is None:
            every.append(lane)
        else:
            due.setdefault(a.fire_at - a.total_iteration - 1, []).append(lane)
    if checked:
        pairs = [(lane, lane.slot) for lane in order if lane.cohort is not None]
        checked = checked(pairs, table[4 * m + 3 :], res)
    no_precond = all(lane.attempt.preconditioner.preconditioner is None for lane in order)
    shared_operator = all(lane.attempt.operator is order[0].attempt.operator for lane in order)
    mv_sec = ortho_sec = 0.0
    steps = 0
    k = G

    def leave(lane):
        _advance(lane, steps, res)
        if lane.cohort is not None:
            checked.leave(lane, steps)
        kernels = lane.attempt.kernels
        kernels.add("matvec", mv_sec, calls=steps)
        kernels.add("orthogonalization", ortho_sec, calls=steps)

    for j in range(m):
        if k == 0:
            break
        steps = j + 1
        # Active lanes always occupy the leading slots (exited lanes
        # are swapped to the tail, see below), so every step indexes
        # the stacks with basic slices -- views, never gather/scatter
        # copies.  Values are identical either way.
        idx = slice(None) if k == G else slice(0, k)
        acts = order[:k] if k < G else order

        # Candidate directions: per-lane preconditioner (charged through
        # the sequential strategy), batched operator application.
        if no_precond:
            Z = basis[idx, j, :]
        else:
            Z = np.empty((k, n), dtype=np.float64)
            for i, lane in enumerate(acts):
                a = lane.attempt
                Z[i] = a.preconditioner.preconditioned_vector(a, a.basis, j)
        t0 = time.perf_counter()
        W = _matvec_rows(acts, Z, shared_operator)
        t1 = time.perf_counter()
        mv_sec += (t1 - t0) / k

        # Orthogonalization span (Gram-Schmidt, norm, happy test,
        # append), batched; one charged call per lane as sequentially.
        W1, coeffs = orthogonalize_many(basis[idx, : j + 1, :], W)
        h_next = np.sqrt(np.matmul(W1[:, None, :], W1[:, :, None])[:, 0, 0])
        happy = h_next <= HAPPY_BREAKDOWN_TOL * np.maximum(res[j, :k], 1.0)
        any_happy = happy.any()
        # Reciprocal-then-multiply, matching append(w, scale=1/h).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if any_happy:
                not_happy = ~happy
                out = np.zeros_like(W1)
                out[not_happy] = (1.0 / h_next[not_happy])[:, None] * W1[not_happy]
                basis[idx, j + 1, :] = out
            else:
                np.multiply((1.0 / h_next)[:, None], W1, out=basis[idx, j + 1, :])
        ortho_sec += (time.perf_counter() - t1) / k

        # Incremental QR of the Hessenberg columns, vectorized over the
        # cohort (uncharged, as in the sequential loop).  The column is
        # held step-major: ``col[i, :k]`` is entry i of every lane.
        col[: j + 1, :k] = coeffs.T
        col[j + 1, :k] = h_next
        head, tail = col[:j, :k], col[1 : j + 1, :k]
        c_tail = np.multiply(giv_c[:j, :k], tail, out=buf[:j, :k])
        s_tail = np.multiply(giv_s[:j, :k], tail, out=buf[m : m + j, :k])
        # The earlier rotations, (a, b) <- (c*a + s*b, c*b - s*a) down
        # the column.  Only the b's chain -- entry i+1 becomes
        # c_i*h_{i+1} - s_i*(entry i) -- so the loop is two calls per
        # rotation and the a's follow in one sweep.
        top = col[0, :k]
        s_top = buf[2 * m, :k]
        for s_i, c_low, low in zip(giv_s[:j, :k], c_tail, tail):
            np.multiply(s_i, top, out=s_top)
            np.subtract(c_low, s_top, out=low)
            top = low
        np.multiply(giv_c[:j, :k], head, out=c_tail)
        np.add(c_tail, s_tail, out=head)
        low = col[j + 1, :k]
        c, s = givens_rotation_many(top, low)
        giv_c[j, :k] = c
        giv_s[j, :k] = s
        new_a = c * top + s * low
        np.subtract(c * low, s * top, out=low)
        top[:] = new_a
        ga, gb = g[j, :k], g[j + 1, :k]
        new_gj = c * ga + s * gb
        np.subtract(c * gb, s * ga, out=gb)
        ga[:] = new_gj
        hess[idx, : j + 2, j] = col[: j + 2, :k].T
        now = np.abs(gb, out=res[j + 1, :k])

        # Events: observers that can act at this step, the checked
        # lanes' sweep, lanes leaving (abandoned -> non-finite -> converged or
        # happy, the sequential loop's order of precedence).
        watchers = due[j] + every if j in due else every
        for lane in watchers:
            if lane.slot < k:  # still in the cohort
                _advance(lane, steps, res)
                a = lane.attempt
                a.observe(j, a.total_iteration, a.residual_norms[-1])
        abandoned = checked.sweep(j, basis, hess, now.tolist()) if checked else ()
        stay = ~(now <= targets[:k]) & (now < np.inf)  # not met, and finite
        if any_happy:
            stay &= ~happy
        if abandoned or not stay.all():
            survive = stay.tolist()
            for lane in abandoned:
                lane.abandoned = True
                survive[lane.slot] = False
            for lane, keep in zip(acts, survive):
                if not keep:
                    leave(lane)
                    a = lane.attempt
                    if not lane.abandoned and not math.isfinite(a.residual_norms[-1]):
                        a.breakdown = True
            # Compact survivors into the leading slots: each exited lane
            # below the new watermark swaps stack rows (and re-points its
            # views) with a survivor above it.  One (m+1)-row copy per
            # exit event instead of per-step gather copies.
            new_k = sum(survive)
            lows = [i for i in range(new_k) if not survive[i]]
            highs = [i for i in range(new_k, k) if survive[i]]
            for s_low, t_high in zip(lows, highs):
                _swap_slots(order, s_low, t_high, basis, hess, table, g)
            k = new_k
            if checked:
                checked.pairs = [(lane, lane.slot) for lane in order[:k] if lane.cohort is not None]
    for lane in order[:k]:
        leave(lane)
    return hess, g


def run_arnoldi_batch(lanes: Sequence) -> List[SolveResult]:
    """Solve ``S`` independent GMRES-family lanes in lockstep.

    ``lanes`` are :class:`ArnoldiLane` objects, or anything with their
    protocol (a lane with a ``cohort`` class brings its checks); all
    right-hand sides must share one length.  Returns one
    :class:`~repro.krylov.result.SolveResult` per lane, in order,
    bit-identical to the sequential solver's.

    The cycle heads' residuals are formed first, for all lanes at once
    (:func:`_stacked_residuals`), and handed to their ``begin_cycle``.
    """
    n = lanes[0].b.size if lanes else 0
    if any(lane.b.size != n for lane in lanes):
        raise ValueError("all lanes of a batch must share one vector length")
    pool = list(lanes)
    while pool:
        heads = [lane for lane in pool if lane.head() is not None]
        stacked = _stacked_residuals([lane.attempt for lane in heads])
        residuals = dict(zip(heads, stacked)) if stacked is not None else {}
        cohorts = {}
        for lane in pool:
            key = lane.begin_cycle(residuals.get(lane))
            if key is not None:
                cohorts.setdefault(key, []).append(lane)
        pool = []
        for m, members in cohorts.items():
            _batched_cycle_tail(members, *_run_cohort(members, m, n))
            pool.extend(members)
    return [lane.result for lane in lanes]


#: Stack the cycle boundary's residual matvecs only while the cohort's
#: total row count (``S * n`` = the number of ``reduceat`` segments)
#: stays in the interpreter-bound regime; above this the per-segment
#: cost of the axis-1 ``reduceat`` outweighs the saved per-lane dispatch
#: (measured: 2.6x faster at n=64/S=256, 3x *slower* at n=1024/S=64).
_TAIL_STACK_MAX_SEGMENTS = 16_384


def _stacked_residuals(attempts) -> Optional[np.ndarray]:
    """``b - A x`` of every attempt, as the rows of one ``matvec_block``,
    each charged one matvec with an even share of the span; ``None`` (each
    forms its own) unless two or more share one :class:`CsrMatrix` and
    ``S * n`` is within the gate.  The rows are bit-identical to the
    per-lane ``1.0*b + (-1.0)*Ax``, so the gate is a pure time heuristic;
    private operators (fault-injecting wrappers) keep their own matvec,
    so fault streams match draw for draw.
    """
    op0 = attempts[0].operator if attempts else None
    if not (
        len(attempts) > 1
        and isinstance(op0, CsrMatrix)
        and len(attempts) * op0.shape[0] <= _TAIL_STACK_MAX_SEGMENTS
        and all(a.operator is op0 for a in attempts)
    ):
        return None
    t0 = time.perf_counter()
    X = np.array([a.x for a in attempts], dtype=np.float64)
    R = np.array([a.b for a in attempts], dtype=np.float64) - op0.matvec_block(X)
    share = (time.perf_counter() - t0) / len(attempts)
    for a in attempts:
        a.kernels.add("matvec", share, calls=1)
    return R


def _batched_cycle_tail(members, hess: np.ndarray, g: np.ndarray) -> None:
    """The cycle tail across one cohort, its solves and residuals stacked.

    Lanes with equal step counts ``k`` share one
    :func:`~repro.linalg.blas.back_substitution_many` over their slots of
    ``hess`` and ``g``; :meth:`ArnoldiAttempt.update_solution`, when it
    updates, gets each ``y`` through the lane's :class:`_LaneLsq`.  A
    group of one, or one with a bad pivot (the kernel raises), keeps the
    per-lane solve and its ``LinAlgError`` breakdown path.  Then
    :func:`_stacked_residuals`.
    """
    acts = [lane for lane in members if lane.tail_begin() is not None]
    groups = {}
    for lane in acts:
        groups.setdefault(lane.attempt.inner_used, []).append(lane)
    for k, group in groups.items():
        if k and len(group) > 1:
            slots = [lane.slot for lane in group]
            try:
                ys = back_substitution_many(hess[slots, :k, :k], g[:k, slots].T)
            except np.linalg.LinAlgError:
                continue
            for lane, y in zip(group, ys):
                lane.attempt.lsq.y = y
    attempts = [lane.attempt for lane in acts]
    for a in attempts:
        a.update_solution()
    R = _stacked_residuals(attempts)
    if R is None:
        for a in attempts:
            a.close_cycle(ops.norm(a.residual()))
        return
    norms = np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])
    for a, true_residual in zip(attempts, norms.tolist()):
        a.close_cycle(true_residual)


# ---------------------------------------------------------------------------
# Batched CG
# ---------------------------------------------------------------------------

#: Fewest lanes for which a lockstep CG step pays: below it a batch's
#: lanes are handed to the sequential step (:meth:`CgScheme.run` resumes
#: their attempts), and the registry sends a smaller batch there whole.
#: ``batch_solve("cg", ...)`` relative to as many ``solve`` calls
#: (n = 64, PERFORMANCE.md, "Lockstep engine"): 0.76x at 2 lanes, 1.09x
#: at 3, 1.38x at 4.
_CG_MIN_LANES = 3


def run_cg_batch(lanes: Sequence, *, trace=None) -> List[SolveResult]:
    """Solve ``S`` independent CG scenarios in lockstep.

    Each lane is an ``(engine, b, x0)`` triple: the engine ``cg_engine``
    built for it, and what it solves.  This loop steps the attempts
    those engines begin instead of running them.

    Per-scenario convergence masks freeze finished lanes: a converged
    (or broken-down, or budget-exhausted) lane's rows of the stacked
    iterate/residual arrays are never touched again, while active lanes
    continue -- :meth:`ConvergenceTest.is_met_many` drives the mask.

    A step is stacked kernels, masks over the active lane ids and one
    ``tolist`` per recorded quantity; a lane is visited when it leaves
    (every lane enters at step 0, so its matvec seconds are the running
    even shares and its counts follow from the step it left at), when
    it has a preconditioner to apply, or when its policy observes.

    Once fewer than :data:`_CG_MIN_LANES` lanes are active, the rest are
    handed to the sequential step: each attempt gets its rows of the
    stacks back and :meth:`~repro.krylov.engine.cg.CgScheme.run` resumes
    it where the lockstep loop left it, with the same arithmetic.

    ``trace(step, advanced_lane_ids, X, R)``, when given, is called
    after every lockstep step with the (read-only by convention)
    stacked iterate and residual arrays; the property-based freeze
    tests hook it.
    """
    engines = [engine for engine, _, _ in lanes]
    # From here on a lane is the attempt its engine begins.
    lanes = [engine.begin(np.asarray(b, dtype=np.float64), x0) for engine, b, x0 in lanes]
    if not lanes:
        return []
    n = lanes[0].x.size
    for lane in lanes:
        if lane.x.size != n:
            raise ValueError("all lanes of a batch must share one vector length")
    X = np.stack([lane.x for lane in lanes])
    R = np.stack([lane.r for lane in lanes])
    P = np.stack([lane.p for lane in lanes])
    rz = np.array([lane.rz for lane in lanes], dtype=np.float64)
    targets = np.array([lane.target for lane in lanes], dtype=np.float64)
    maxiters = np.array([lane.maxiter for lane in lanes], dtype=np.intp)
    tester = ConvergenceTest()
    shared_operator = all(lane.operator is lanes[0].operator for lane in lanes)
    preconditioned = any(lane.preconditioner is not None for lane in lanes)
    observed = any(lane.fire_at != 0 for lane in lanes)
    mv_sec = 0.0
    step = 0

    def leave(ids, iterations: int, applications: int, matvecs: Optional[int] = None):
        # The lanes left during step ``step`` (after its matvec unless
        # ``matvecs`` says otherwise), ``iterations`` updates and
        # ``applications`` in-loop preconditioner applications done.
        for i in ids:
            lane = lanes[i]
            lane.iteration = iterations
            lane.kernels.add("matvec", mv_sec, calls=step + 1 if matvecs is None else matvecs)
            if lane.preconditioner is None:  # applied as a plain alias, below
                lane.kernels.add("preconditioner", 0.0, calls=applications)

    gi = np.flatnonzero([not lane.converged for lane in lanes])
    rest = ()  # the lanes handed to the sequential step
    while gi.size:
        if gi.size < _CG_MIN_LANES:
            rest = set(gi.tolist())
            leave(rest, step, step, matvecs=step)
            break
        Pg = P[gi]
        t0 = time.perf_counter()
        if shared_operator:
            AP = batched_matvec(lanes[0].operator, Pg)
        else:
            AP = np.array(
                [
                    np.asarray(ops.matvec(lanes[i].operator, p), dtype=np.float64)
                    for i, p in zip(gi.tolist(), Pg)
                ]
            )
        mv_sec += (time.perf_counter() - t0) / gi.size
        p_ap = np.matmul(Pg[:, None, :], AP[:, :, None])[:, 0, 0]
        # Loss of positive definiteness (p_ap <= 0 or not finite; a NaN
        # fails the first test): breakdown before any update.
        ok = (p_ap > 0.0) & (p_ap < np.inf)
        if not ok.all():
            out = gi[~ok].tolist()
            for i in out:
                lanes[i].breakdown = True
            leave(out, step, step)
            gi, Pg, AP, p_ap = gi[ok], Pg[ok], AP[ok], p_ap[ok]
        ids = gi.tolist()
        alpha = rz[gi] / p_ap
        X[gi] = X[gi] + alpha[:, None] * Pg
        Rg = R[gi] + (-alpha)[:, None] * AP
        R[gi] = Rg
        sq = np.matmul(Rg[:, None, :], Rg[:, :, None])[:, 0, 0]
        res = np.sqrt(sq)
        residuals = res.tolist()
        for i, value, residual in zip(ids, alpha.tolist(), residuals):
            lanes[i].alphas.append(value)
            lanes[i].residual_norms.append(residual)
        if observed:
            for i, residual in zip(ids, residuals):
                lane = lanes[i]
                if lane.fire_at is None or lane.fire_at == step + 1:
                    lane.policy.observe(
                        IterationEvent(total_iteration=step + 1, residual_norm=residual)
                    )
        finite = res < np.inf
        alive = finite & ~tester.is_met_many(res, targets[gi])
        if not alive.all():
            gone = ~alive
            out = gi[gone].tolist()
            for i, is_finite in zip(out, finite[gone].tolist()):
                if is_finite:
                    lanes[i].converged = True  # freeze: rows of X/R never touched again
                else:
                    lanes[i].breakdown = True
            leave(out, step + 1, step)
            gi, Rg, sq = gi[alive], Rg[alive], sq[alive]
        # z = M^{-1} r: the residual rows themselves (nothing below
        # writes to them) except where a lane has a preconditioner.
        # Without one, (r, z) is the squared norm ``res`` is the root of.
        Z = Rg
        rz_next = sq
        if preconditioned:
            Z = Rg.copy()
            for row, i in enumerate(gi.tolist()):
                lane = lanes[i]
                if lane.preconditioner is not None:
                    t0 = lane.kernels.tick()
                    Z[row] = ops.apply_preconditioner(lane.preconditioner, Rg[row])
                    lane.kernels.charge("preconditioner", t0)
            rz_next = np.matmul(Rg[:, None, :], Z[:, :, None])[:, 0, 0]
        good = np.isfinite(rz_next)
        if not good.all():
            out = gi[~good].tolist()
            for i in out:
                lanes[i].breakdown = True
            leave(out, step + 1, step + 1)
            gi, Z, rz_next = gi[good], Z[good], rz_next[good]
        beta = rz_next / rz[gi]
        for i, value in zip(gi.tolist(), beta.tolist()):
            lanes[i].betas.append(value)
        rz[gi] = rz_next
        P[gi] = Z + beta[:, None] * P[gi]
        spent = maxiters[gi] <= step + 1
        if spent.any():
            leave(gi[spent].tolist(), step + 1, step + 1)
            gi = gi[~spent]
        if trace is not None:
            trace(step, ids, X, R)
        step += 1

    results = []
    for i, (engine, lane) in enumerate(zip(engines, lanes)):
        lane.x = np.array(X[i], dtype=np.float64, copy=True)
        if i in rest:
            lane.r, lane.p, lane.rz = R[i].copy(), P[i].copy(), float(rz[i])
            engine.scheme.run(lane)
        results.append(engine.finish(lane.result()))
    return results
