"""SDC-detecting GMRES (skeptical GMRES).

The concrete algorithm the paper holds up as an SkP exemplar (§III-A)
is a GMRES "that detects and, optionally, corrects single bit flips
very inexpensively as part of the Arnoldi process" (Elliott & Hoemmen).
This module provides that solver: restarted GMRES whose Arnoldi steps
are checked by one default check set, :class:`SdcChecks`,

* a finiteness check of the newest basis vector and Hessenberg column
  (O(n) -- catches exponent-bit flips),
* the Hessenberg-bound check ``|h_ij| <= safety * ||A||`` (O(j) --
  catches large mantissa/exponent flips in the projection
  coefficients),
* a residual-monotonicity check over the attempt's history,
* a periodic orthogonality check of the basis (O(n j^2) -- catches
  subtler corruption), and
* a periodic residual-consistency check (recurrence vs true residual,
  one extra matvec).

The per-lane decisions are written once, as the methods of
:class:`SdcChecks`, and both engines run them: the sequential solve
through :class:`SdcPolicy`, which walks one lane on plain views
(:meth:`SdcChecks.walk`), the lockstep engine
(:mod:`repro.krylov.engine.batch`) through :meth:`SdcCohort.sweep`,
which feeds them stacked reductions over its cohort.  The functions of
:mod:`repro.skeptical.checks` are its reference; they build the
:class:`~repro.skeptical.checks.CheckResult` of a failing check, and
only then.  On detection, the configured response applies: the default
``restart`` abandons the corrupted Krylov cycle
(:class:`~repro.krylov.engine.resilience.CycleAbandoned`) and
:class:`SdcAttempts` restarts GMRES from the current iterate, which is
cheap and sufficient because GMRES restarts are already part of the
algorithm (the "rolling back to a previous valid state" response of
§II-A); ``abort`` raises :class:`~repro.skeptical.checks.SkepticalAbort`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.core import canonical_kernel_counters
from repro.krylov.engine.resilience import (
    CycleAbandoned,
    ResiliencePolicy,
    compose_policy,
    cycle_start_true_residual,
)
from repro.krylov.gmres import GmresState, gmres_engine
from repro.krylov.result import SolveResult
from repro.skeptical.checks import (
    SkepticalAbort,
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
)
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "sdc_detecting_gmres",
    "SdcAttempts",
    "SdcChecks",
    "SdcCohort",
    "SdcLane",
    "SdcPolicy",
    "estimate_operator_norm",
    "check_sdc_arguments",
]


def check_sdc_arguments(tol, restart, maxiter, check_period, operator_norm, policy) -> None:
    """Validate the skeptical solver's arguments.

    :class:`SdcAttempts` runs it before anything else -- before the
    operator is touched -- so both engines refuse the same input with
    the same message (names as in the checks that would fail later).
    """
    check_integer(check_period, "check_period")
    check_positive(tol, "tol")
    if check_period <= 0:
        raise ValueError("period must be positive")
    if restart <= 0:
        raise ValueError("restart must be positive")
    if maxiter <= 0:
        raise ValueError("maxiter must be positive")
    if operator_norm is not None:
        check_positive(operator_norm, "operator_norm_estimate")
    if policy not in ("restart", "abort"):
        raise ValueError("policy must be 'restart' or 'abort'")


def estimate_operator_norm(operator, probe: np.ndarray) -> float:
    """Cheap randomized lower-bound estimate of ||A||_2.

    Four matvecs on random unit vectors give a (slight under-)estimate
    that the Hessenberg-bound check then loosens with its safety
    factor.  Only ``probe``'s size is read.
    """
    rng = np.random.default_rng(12345)
    estimate = 0.0
    size = probe.size
    for _ in range(4):
        v = rng.standard_normal(size)
        v /= np.linalg.norm(v)
        av = ops.matvec(operator, v)
        estimate = max(estimate, float(np.linalg.norm(av)))
    return max(estimate, np.finfo(float).tiny)


def _slot_rows(pairs):
    """Index of the slots of ``pairs``: a slice when they are the leading
    slots in order (views, no gather copies -- the all-lanes-due common
    case), else an index array."""
    slots = [slot for _, slot in pairs]
    if slots == list(range(len(slots))):
        return slice(0, len(slots))
    return np.asarray(slots, dtype=np.intp)


def _cheap_flops(n: int, j: int, ran: int) -> float:
    """Flops of the first ``ran`` cheap checks after step ``j``: the newest
    basis row (``n``), Hessenberg column (``j + 2``) and window (``(j +
    2)(j + 1)``); monotonicity is free."""
    return float(n + (0, j + 2, (j + 2) ** 2, (j + 2) ** 2)[ran - 1])


class SdcChecks:
    """The default SDC check set of one skeptical solve, and its counters.

    Holds the cheap checks' period (``check_period``, E1's ablation
    knob) and Hessenberg threshold, the counters (observations, checks
    run, check flops and detections -- at most one per observation, each
    a detection restart) and the residual history of the current
    attempt.  The other periods and thresholds are the class constants
    below, the same for every solve.

    The per-lane decisions are :meth:`cheap`, :meth:`orthogonality` and
    :meth:`consistency`: each books what ran and returns the failing
    check's builder (``build()`` is its
    :class:`~repro.skeptical.checks.CheckResult` as its
    :mod:`~repro.skeptical.checks` function gives it on the state as it
    is now) or ``None``.  :meth:`walk` runs them for one sequential lane
    on plain views, :meth:`SdcCohort.sweep` for a lockstep cohort on
    stacked reductions.  (``check_flops`` only ever adds integer-valued
    floats, so folding passed checks into one add is exact.)
    """

    ORTHOGONALITY_PERIOD = 5
    RESIDUAL_CHECK_PERIOD = 10
    HESSENBERG_SAFETY = 4.0
    ORTHOGONALITY_TOL = 1e-6

    def __init__(self, norm_estimate: float, *, check_period: int):
        self.check_period = int(check_period)
        self.norm_estimate = norm_estimate
        self.hessenberg_threshold = self.HESSENBERG_SAFETY * norm_estimate
        self.observations = 0
        self.checks_run = 0
        self.check_flops = 0.0
        self.detections = 0
        self.residual_history: list = []

    def walk(self, lane, j: int, basis: np.ndarray, hess: np.ndarray, residual: float):
        """One observation of the default check set for one lane.

        Runs the default check set in order -- finite basis, finite
        Hessenberg column, Hessenberg bound, residual monotonicity (all
        at ``check_period``), then orthogonality and residual
        consistency at their own periods -- counting the failing check
        and skipping the rest.  ``basis`` and ``hess`` are the lane's
        ``(m+1, n)`` rows and ``(m+1, m)`` Hessenberg after step ``j``,
        ``residual`` this step's; ``lane.true_residual(j, residual)`` is
        the consistency check's truth.
        """
        self.observations = obs = self.observations + 1
        self.residual_history.append(residual)
        build = None
        if obs % self.check_period == 0:
            build = self.cheap(  # a count: ndarray.all() costs a Python-level wrapper
                j, np.count_nonzero(np.isfinite(basis[j + 1])) == basis.shape[1],
                np.abs(hess[: j + 2, : j + 1]).max(), self.residual_history, basis, hess,
            )
        if build is None and obs % self.ORTHOGONALITY_PERIOD == 0:
            rows = basis[: j + 2]
            gram = rows.dot(rows.T)
            gram.flat[:: j + 3] -= 1.0
            build = self.orthogonality(np.abs(gram).max(), rows)
        if build is None and obs % self.RESIDUAL_CHECK_PERIOD == 0:
            build = self.consistency(residual, lane.true_residual(j, residual))
        return build

    def cheap(self, j: int, finite, max_entry, history, basis, hess):
        """The four cheap checks after step ``j``, given the newest basis
        row's finiteness and the Hessenberg window's largest magnitude
        (NaN propagates through the maximum and inf is one, so the bound
        test also fails on a non-finite entry).  ``history`` is what
        monotonicity reads, ``None`` when it is known to pass; ``basis``
        and ``hess`` are read only to build a failing check."""
        if not finite:
            ran, build = 1, functools.partial(finite_check, basis[j + 1], name="finite_basis")
        elif not (math.isfinite(max_entry) and max_entry <= self.hessenberg_threshold):
            # The bound failed; the check before it (finite newest
            # column, part of the same window) may have failed first.
            column = hess[: j + 2, j]
            if np.isfinite(column).all():
                ran, build = 3, functools.partial(
                    hessenberg_bound_check, hess, self.norm_estimate,
                    n_columns=j + 1, safety=self.HESSENBERG_SAFETY,
                )
            else:
                ran, build = 2, functools.partial(finite_check, column, name="finite_hessenberg")
        else:
            # All three passed; the fourth is monotonicity_check
            # (history[-4:], default window/allowed_increase, zero
            # cost_flops), inlined.
            ran, build = 4, None
            recent = () if history is None else history[-4:]
            if len(recent) >= 2:
                reference = min(recent[:-1])
                if not (all(map(math.isfinite, recent))
                        and (reference <= 0.0 or recent[-1] / reference <= 1.5)):
                    build = functools.partial(monotonicity_check, history)
        self.checks_run += ran
        self.check_flops += _cheap_flops(basis.shape[1], j, ran)
        self.detections += build is not None
        return build

    def orthogonality(self, defect, rows: np.ndarray):
        """The orthogonality check of the ``k`` basis vectors ``rows``, given
        the defect ``max |V^T V - I|`` (inf or NaN on a non-finite Gram
        entry: it fails)."""
        k, n = rows.shape
        self.checks_run += 1
        self.check_flops += 2.0 * n * k * k
        if math.isfinite(defect) and defect <= self.ORTHOGONALITY_TOL:
            return None
        self.detections += 1
        return functools.partial(orthogonality_check, rows.T, tol=self.ORTHOGONALITY_TOL)

    def consistency(self, residual: float, true_residual: float):
        """The residual-consistency check of the recurrence ``residual``."""
        check = residual_consistency_check(residual, true_residual)
        self.checks_run += 1
        self.check_flops += check.cost_flops
        if check.passed:
            return None
        self.detections += 1
        return functools.partial(residual_consistency_check, residual, true_residual)


class SdcCohort:
    """The skeptical lanes of a lockstep cohort, and their :meth:`sweep`.

    An observation stays out of a lane's :class:`SdcChecks` until
    :meth:`leave` folds it in: its count is the lane's step count, its
    history the lane's column of the cohort's residual rows ``res``, and
    a step every lane passed is booked once for all (each lane is in the
    cohort from step 0).  The :attr:`ROWS` rows it is given of the
    cohort's step-major ``table`` (a slot swap carries them) hold each
    lane's Hessenberg threshold, clamped to the largest float so ``<=``
    fails on inf and NaN, and the last three entries of its earlier
    history (vacant: :data:`_VACANT`; non-finite: NaN).
    """

    ROWS = 4

    def __init__(self, pairs, table: np.ndarray, res: np.ndarray):
        self.table, self.res, self.pairs = table, res, pairs
        self.runs, self.flops = 0, 0.0
        self._left = set()
        self._every = all(lane.checks.check_period == 1 for lane, _ in pairs)
        m = res.shape[0] - 1
        self._due = [[] for _ in range(3 * m)]  # kind * m + j -> the lanes due at step j
        for lane, slot in pairs:
            checks = lane.checks
            recent = [r if math.isfinite(r) else math.nan for r in checks.residual_history[-3:]]
            table[:, slot] = (
                min(checks.hessenberg_threshold, _VACANT), *[_VACANT] * (3 - len(recent)), *recent
            )
            periods = (checks.check_period, SdcChecks.ORTHOGONALITY_PERIOD,
                       SdcChecks.RESIDUAL_CHECK_PERIOD)
            for kind, period in enumerate(periods):
                if kind or not self._every:  # due where observations + j + 1 is a multiple
                    for j in range(period - 1 - checks.observations % period, m, period):
                        self._due[kind * m + j].append(lane)

    def __len__(self) -> int:
        return len(self.pairs)

    def sweep(self, j: int, basis: np.ndarray, hess: np.ndarray, residuals) -> dict:
        """One observation of the default check set for every lane at step ``j``.

        The checks and their order are :meth:`SdcChecks.walk`'s; the
        three cheap array checks and the orthogonality defect are stacked
        reductions over the due lanes (no ``abs`` copy of the Hessenberg
        window; the Grams of the leading slots, ``- I`` in place), so per-lane
        Python runs only on events (a failing check, a due orthogonality
        or consistency check).  ``basis`` and ``hess`` are the cohort's
        ``(G, m+1, n)`` and ``(G, m+1, m)`` stacks after step ``j``,
        ``residuals`` this step's residual per slot.  Returns ``{lane:
        build}`` for the lanes a check failed on.
        """
        failed = {}
        due, ortho, consistency = self.observe(j)
        if due:
            rows = _slot_rows(due)
            fb_pass = np.isfinite(basis[rows, j + 1, :]).all(axis=1)
            window = hess[rows, : j + 2, : j + 1]  # max |h|; NaN and +-inf still fail
            max_entry = np.maximum(window.max(axis=(1, 2)), -window.min(axis=(1, 2)))
            histories = self.book(due, rows, j, fb_pass, max_entry,
                                  _cheap_flops(basis.shape[2], j, 4))
            if histories is not None:  # else every lane passed: booked at once
                fb_pass, max_entry = fb_pass.tolist(), max_entry.tolist()
                for i, (lane, slot) in enumerate(due):
                    build = lane.checks.cheap(
                        j, fb_pass[i], max_entry[i], histories[i], basis[slot], hess[slot]
                    )
                    if build is not None:
                        failed[lane] = build
        if failed:
            ortho = [pair for pair in ortho if pair[0] not in failed]
        if ortho:  # Grams of the slots up to the last due one: the per-lane
            k = j + 2  # ``v.T @ v`` of orthogonality_check bit for bit, - I in place
            V = basis[: max(slot for _, slot in ortho) + 1, :k, :]
            grams = np.matmul(V, V.transpose(0, 2, 1))
            grams.reshape(len(V), -1)[:, :: k + 1] -= 1.0
            defect = np.abs(grams, out=grams).max(axis=(1, 2)).tolist()
            for lane, slot in ortho:
                build = lane.checks.orthogonality(defect[slot], basis[slot, :k])
                if build is not None:
                    failed[lane] = build
        for lane, slot in consistency:
            if lane not in failed:
                residual = residuals[slot]
                build = lane.checks.consistency(residual, lane.true_residual(j, residual))
                if build is not None:
                    failed[lane] = build
        return failed

    def observe(self, j: int):
        """The pairs due for the cheap, orthogonality and consistency checks at step ``j``."""
        due = [
            [(lane, lane.slot) for lane in lanes if lane not in self._left]
            for lanes in self._due[j :: self.res.shape[0] - 1]
        ]
        return (self.pairs if self._every else due[0]), due[1], due[2]

    def book(self, due, rows, j: int, fb_pass, max_entry, cost: float) -> Optional[list]:
        """Book step ``j`` once, at ``cost`` flops, when every lane is due
        and passed (and return ``None``); else return, per due lane, the
        history monotonicity reads, or ``None`` when it passes here: the
        newest residual is no larger than the three before it, which are
        finite (a lane leaves at a non-finite residual), so the ratio is at
        most 1.
        """
        window = (
            self.res[j - 2 : j + 2, rows] if j >= 3
            else np.concatenate((self.table[1 + j :, rows], self.res[1 : j + 2, rows]))
        )
        ok = window[3] <= window[:3].min(axis=0)
        ok &= fb_pass
        ok &= max_entry <= self.table[0, rows]
        if np.count_nonzero(ok) == len(ok) == len(self.pairs):
            self.runs += 4
            self.flops += cost
            return None
        return [
            None if passed else lane.checks.residual_history + self.res[1 : j + 2, slot].tolist()
            for (lane, slot), passed in zip(due, ok.tolist())
        ]

    def leave(self, lane, steps: int) -> None:
        """Fold a leaving lane's ``steps`` observations into its counters."""
        checks = lane.checks
        checks.observations += steps
        checks.residual_history.extend(self.res[1 : steps + 1, lane.slot].tolist())
        checks.checks_run += self.runs
        checks.check_flops += self.flops
        self._left.add(lane)


#: A vacant entry of the carried history: finite, and the largest, so it
#: is never the minimum of a window that holds a real entry.
_VACANT = float(np.finfo(np.float64).max)


class SdcPolicy(ResiliencePolicy):
    """The engine policy of a sequential skeptical solve: :meth:`SdcChecks.walk`
    over the event's basis rows and Hessenberg.

    A detection raises :class:`~repro.krylov.engine.resilience.CycleAbandoned`
    (``response="restart"``) or
    :class:`~repro.skeptical.checks.SkepticalAbort` carrying the
    failing check's result (``response="abort"``).
    """

    name = "skeptical"

    def __init__(self, checks: SdcChecks, operator, b, response: str):
        self.checks = checks
        self.operator = operator
        self.b = b
        self.response = response
        self._event = None

    def observe(self, event) -> None:
        self._event = event
        build = self.checks.walk(
            self, event.inner, event.basis._rows, event.hessenberg, event.residual_norm
        )
        if build is not None:
            if self.response == "abort":
                raise SkepticalAbort(build())
            raise CycleAbandoned()

    def true_residual(self, j: int, residual: float) -> float:
        return cycle_start_true_residual(
            self.operator, self.b, j, residual, self._event.reconstruct_iterate
        )


class SdcAttempts:
    """The attempt loop of :func:`sdc_detecting_gmres`, one decision at a time.

    Owns what surrounds the GMRES attempts of one skeptical solve: the
    argument check, the norm estimate, the check set and its counters
    (:attr:`checks`), the budget (detection restarts and iterations
    left: at most :attr:`MAX_RESTARTS_ON_DETECTION` detection restarts),
    what an abandoned cycle costs, what a completed attempt hands over,
    and the final result.  Its keywords, and their defaults, are all of
    :func:`sdc_detecting_gmres`'s but ``iteration_hook``.  Both
    engines drive it -- :func:`sdc_detecting_gmres` with a
    ``try/except CycleAbandoned`` loop around ``engine.solve``, an
    :class:`SdcLane` of the lockstep engine at its cycle boundaries --
    and differ only in who steps the engine :meth:`next_engine` returns.
    """

    MAX_RESTARTS_ON_DETECTION = 5

    def __init__(
        self,
        operator,
        b,
        x0=None,
        *,
        tol: float = 1e-8,
        atol: float = 0.0,
        restart: int = 30,
        maxiter: int = 1000,
        preconditioner=None,
        check_period: int = 1,
        policy: str = "restart",
        operator_norm: Optional[float] = None,
    ):
        check_sdc_arguments(tol, restart, maxiter, check_period, operator_norm, policy)
        self.operator = operator
        self.policy = policy
        self.b = np.asarray(b, dtype=np.float64)
        self.norm_estimate = (
            float(operator_norm) if operator_norm is not None
            else estimate_operator_norm(operator, self.b)
        )
        self.checks = SdcChecks(self.norm_estimate, check_period=check_period)
        self.x = (
            np.array(x0, dtype=np.float64, copy=True) if x0 is not None
            else np.zeros_like(self.b)
        )
        self._gmres_options = dict(
            tol=tol, atol=atol, restart=restart, preconditioner=preconditioner
        )
        self.maxiter = maxiter
        self.attempts = 0
        self.total_iterations = 0
        self.residual_norms: list = []
        self.converged = False
        self.breakdown = False
        self.kernels = canonical_kernel_counters()
        self.target = None

    def next_engine(self, policy):
        """The GMRES engine of the next attempt, restarting from the last
        valid iterate :attr:`x` with an empty residual history; ``None``
        when the solve is over."""
        remaining = self.maxiter - self.total_iterations
        if (
            self.converged
            or self.breakdown
            or self.attempts > self.MAX_RESTARTS_ON_DETECTION
            or remaining <= 0
        ):
            return None
        self.attempts += 1
        self.checks.residual_history = []
        return gmres_engine(
            self.operator, maxiter=remaining, policy=policy, **self._gmres_options
        )

    def abandon(self, kernels: Optional[dict]) -> None:
        """A detection discarded the attempt's cycle.  The iterate is
        still valid (it was formed before the corruption), so the next
        attempt simply starts from it; the abandoned attempt's kernel
        work and one iteration tick stay in the accounting."""
        if kernels:
            self.kernels.merge_dict(kernels)
        self.total_iterations += 1

    def complete(self, result: SolveResult) -> None:
        """An attempt ran to its end: take over its iterate and history."""
        self.total_iterations += result.iterations
        self.residual_norms.extend(result.residual_norms)
        self.kernels.merge_dict(result.info["kernels"])
        self.target = result.info["target"]
        self.x = np.asarray(result.x)
        self.converged = result.converged
        self.breakdown = result.breakdown

    def result(self) -> SolveResult:
        checks = self.checks
        return SolveResult(
            x=self.x,
            converged=self.converged,
            iterations=self.total_iterations,
            residual_norms=self.residual_norms,
            breakdown=self.breakdown,
            detected_faults=checks.detections,
            info={
                "detection_restarts": checks.detections,
                "checks_run": float(checks.checks_run),
                "check_flops": float(checks.check_flops),
                "policy": self.policy,
                "operator_norm_estimate": self.norm_estimate,
                "target": self.target,
                "kernels": self.kernels.as_dict(),
            },
        )


class SdcLane:
    """A lockstep lane of :func:`sdc_detecting_gmres` (the ``"restart"``
    response; an ``"abort"`` would have to kill its sibling lanes):
    :class:`SdcAttempts` driven at the cycle boundaries.

    ``SdcAttempts`` hands out one GMRES engine per attempt, exactly as it
    does to :func:`sdc_detecting_gmres`; here the cohort steps it, and
    its :attr:`cohort` class, :class:`SdcCohort`, enters the check set
    (:attr:`checks`) with the stacked arrays, so the engine's policy is
    the iteration hook alone.  The lane protocol is that of
    :class:`repro.krylov.engine.batch.ArnoldiLane`.
    """

    cohort = SdcCohort

    def __init__(self, operator, b, x0=None, *, iteration_hook=None, **options):
        if options.get("policy", "restart") != "restart":
            raise ValueError("a lockstep lane has the 'restart' response only")
        self.driver = SdcAttempts(operator, b, x0, **options)
        self.policy = compose_policy(None, iteration_hook)
        self.b = self.driver.b
        self.checks = self.driver.checks
        self.engine = None
        self.attempt = None
        self.slot = -1
        self.abandoned = False
        self.result: Optional[SolveResult] = None

    def _next(self):
        """The attempt whose cycle is next, the driver's next one when
        there is none; ``None`` (the result set) when the solve is over."""
        if self.attempt is None and self.result is None:
            self.engine = self.driver.next_engine(self.policy)
            if self.engine is None:
                self.result = self.driver.result()
            else:
                self.attempt = self.engine.begin(self.b, self.driver.x)
        return self.attempt

    def head(self):
        a = self._next()
        return a if a is not None and not a.done else None

    def begin_cycle(self, r=None):
        while (a := self._next()) is not None:
            m = a.begin_cycle(r)
            if m is not None:
                return m
            self.driver.complete(self.engine.finish(a.result()))
            self.attempt = r = None
        return None

    def true_residual(self, j: int, residual: float) -> float:
        """The residual-consistency check's truth after step ``j`` (the
        reconstruct step charges the attempt as the sequential closure does)."""
        a = self.attempt
        return cycle_start_true_residual(
            a.operator, a.b, j, residual, functools.partial(a.reconstruct_iterate, j)
        )

    def tail_begin(self):
        """The attempt whose cycle tail remains; ``None`` when the sweep
        abandoned the cycle (the driver restarts from the old iterate)."""
        if self.abandoned:
            self.driver.abandon(self.attempt.kernels.as_dict())
            self.attempt = None
            self.abandoned = False
            return None
        return self.attempt


def sdc_detecting_gmres(
    operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    iteration_hook: Optional[Callable[[GmresState], None]] = None,
    **options,
) -> SolveResult:
    """Restarted GMRES with skeptical SDC detection in the Arnoldi process.

    The check set is the standard one (:class:`SdcChecks`).

    Parameters
    ----------
    operator, b, x0:
        As for :func:`repro.krylov.gmres.gmres` (sequential NumPy
        vectors only -- the checks need the basis as a dense array).
    iteration_hook:
        Optional callable run *before* the checks each iteration with
        the :class:`~repro.krylov.gmres.GmresState`; fault-injection
        campaigns use it to corrupt the solver state exactly where a
        bit flip would land.

    The other keywords, ``options``, are :class:`SdcAttempts`'s
    (defaults there):

    tol, atol, restart, maxiter, preconditioner:
        As for :func:`repro.krylov.gmres.gmres`.
    check_period:
        Run the cheap (finite / Hessenberg-bound / monotonicity) checks
        every ``check_period`` iterations.  The two more expensive
        checks run every :attr:`SdcChecks.ORTHOGONALITY_PERIOD` (5) and
        :attr:`SdcChecks.RESIDUAL_CHECK_PERIOD` (10) iterations; the
        Hessenberg bound's safety factor is
        :attr:`SdcChecks.HESSENBERG_SAFETY` (4.0) and the orthogonality
        tolerance :attr:`SdcChecks.ORTHOGONALITY_TOL` (1e-6).
    policy:
        ``"restart"`` (default) -- on detection, abandon the current
        Krylov cycle and restart from the current iterate;
        ``"abort"`` -- raise
        :class:`~repro.skeptical.checks.SkepticalAbort`.
    operator_norm:
        Trusted ``||A||`` estimate for the Hessenberg-bound check.  By
        default it is probed from ``operator`` with a few matvecs;
        supply it explicitly when the operator itself is unreliable
        (fault-injection campaigns), so the *setup* of the checks runs
        in reliable mode as the SkP model assumes.

    Returns
    -------
    SolveResult
        ``detected_faults`` counts failed checks;
        ``info["detection_restarts"]`` counts detection-triggered
        restarts (at most
        :attr:`SdcAttempts.MAX_RESTARTS_ON_DETECTION`, 5, before it
        gives up), ``info["check_flops"]`` the total checking cost and
        ``info["checks_run"]`` how many check evaluations were made.
    """
    attempts = SdcAttempts(operator, b, x0, **options)
    skeptical = SdcPolicy(attempts.checks, operator, attempts.b, attempts.policy)
    engine_policy = compose_policy(skeptical, iteration_hook)

    while (engine := attempts.next_engine(engine_policy)) is not None:
        try:
            result = engine.solve(attempts.b, attempts.x)
        except CycleAbandoned as abandoned:
            attempts.abandon(abandoned.kernels)
        else:
            attempts.complete(result)

    return attempts.result()
