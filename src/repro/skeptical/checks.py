"""Invariant checks for skeptical programming.

Each check is a plain function returning a :class:`CheckResult`.  The
estimated ``cost_flops`` lets the experiments report the overhead of
skepticism relative to the computation being protected, backing the
paper's claim that "the cost can be very low".
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.utils.validation import check_integer, check_non_negative, check_positive

__all__ = [
    "CheckResult",
    "SkepticalAbort",
    "finite_check",
    "orthogonality_check",
    "hessenberg_bound_check",
    "residual_consistency_check",
    "monotonicity_check",
]


class CheckResult(NamedTuple):
    """Outcome of one invariant check (immutable).

    A named tuple rather than a frozen dataclass: a tuple builds in
    well under half the time.

    Attributes
    ----------
    name:
        The check that produced the result.
    passed:
        ``True`` when the invariant holds to within its tolerance.
    measure:
        The scalar the check computed (e.g. the orthogonality defect);
        useful for tables and for calibrating thresholds.
    threshold:
        The tolerance against which ``measure`` was compared.
    cost_flops:
        Estimated floating-point cost of evaluating the check.
    details:
        Optional extra fields (offending index, etc.).
    """

    name: str
    passed: bool
    measure: float
    threshold: float
    cost_flops: float = 0.0
    details: Mapping = MappingProxyType({})

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


class SkepticalAbort(RuntimeError):
    """Raised by the skeptical GMRES's ``"abort"`` response: the
    fail-stop answer to a failed check (paper §II-A)."""

    def __init__(self, check: CheckResult):
        super().__init__(
            f"skeptical check '{check.name}' failed: measure {check.measure:.3e} "
            f"exceeds threshold {check.threshold:.3e}"
        )
        self.check = check


def finite_check(array: np.ndarray, name: str = "finite") -> CheckResult:
    """All entries are finite (no NaN/inf).

    The cheapest skeptical check there is, and the one that catches
    exponent-bit flips almost immediately.
    """
    arr = np.asarray(array)
    n_bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
    return CheckResult(
        name=name,
        passed=n_bad == 0,
        measure=float(n_bad),
        threshold=0.0,
        cost_flops=float(arr.size),
    )


def orthogonality_check(
    basis: np.ndarray,
    n_vectors: Optional[int] = None,
    *,
    tol: float = 1e-8,
    name: str = "orthogonality",
) -> CheckResult:
    """Orthonormality defect ``max |V^T V - I|`` of a Krylov basis.

    The full check costs ``O(n k^2)`` flops; GMRES implicitly assumes
    the property, so checking it occasionally detects corruption of the
    basis that would otherwise silently degrade the computed solution.
    """
    check_positive(tol, "tol")
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D array with basis vectors as columns")
    k = basis.shape[1]
    if n_vectors is not None:
        k = min(k, check_integer(n_vectors, "n_vectors"))
        if k < 0:
            raise ValueError(f"n_vectors must be non-negative, got {n_vectors}")
    if k == 0:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=tol)
    v = basis[:, :k]
    gram = v.T @ v
    # G - I in place on the fresh Gram; a NaN or inf anywhere in it
    # surfaces in the maximum, so one scan decides both questions.
    gram.flat[:: k + 1] -= 1.0
    defect = float(np.abs(gram).max())
    finite = math.isfinite(defect)
    return CheckResult(
        name=name,
        passed=bool(finite and defect <= tol),
        measure=defect if finite else math.inf,
        threshold=tol,
        cost_flops=2.0 * basis.shape[0] * k * k,
    )


def hessenberg_bound_check(
    hessenberg: np.ndarray,
    operator_norm_estimate: float,
    n_columns: Optional[int] = None,
    *,
    safety: float = 2.0,
    name: str = "hessenberg_bound",
) -> CheckResult:
    """Hessenberg entries must be bounded by the operator norm.

    In exact arithmetic every entry of the Arnoldi Hessenberg matrix
    satisfies ``|h_ij| <= ||A||_2``; Elliott & Hoemmen use (a refinement
    of) this bound to flag bit flips in the Arnoldi process.  Each call
    scans, and charges ``cost_flops`` for, the whole ``(k+1) x k``
    window of the first ``k`` columns -- O(k^2) per call, not O(1):
    small beside the O(n k) orthogonalization of the step it guards,
    and a corrupted entry keeps failing on every later observation of
    the cycle.  A non-finite entry anywhere in the window reports
    ``measure = inf``.  ``safety`` loosens the bound to allow for the
    looseness of the norm estimate.
    """
    check_positive(operator_norm_estimate, "operator_norm_estimate")
    check_positive(safety, "safety")
    h = np.asarray(hessenberg, dtype=np.float64)
    k = h.shape[1] if n_columns is None else int(n_columns)
    k = min(k, h.shape[1])
    threshold = safety * operator_norm_estimate
    window = h[: k + 1, :k]
    if window.size == 0:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=threshold)
    # NaN propagates through the maximum and inf is one, so a single
    # scan yields the bound's measure and the all-finite verdict.
    max_entry = float(np.abs(window).max())
    finite = math.isfinite(max_entry)
    return CheckResult(
        name=name,
        passed=bool(finite and max_entry <= threshold),
        measure=max_entry if finite else math.inf,
        threshold=threshold,
        cost_flops=float(window.size),
    )


def residual_consistency_check(
    recurrence_residual: float,
    true_residual: float,
    *,
    rtol: float = 1e-4,
    atol: float = 1e-12,
    name: str = "residual_consistency",
) -> CheckResult:
    """Recurrence-based and explicitly computed residual norms must agree.

    GMRES and CG update a cheap residual estimate by recurrence; silent
    corruption makes the estimate drift away from the truth.  The check
    costs one extra matvec when invoked, so it is typically run every
    ``k`` iterations rather than every iteration.
    """
    check_non_negative(rtol, "rtol")
    if not math.isfinite(recurrence_residual) or not math.isfinite(true_residual):
        return CheckResult(name=name, passed=False, measure=float("inf"),
                           threshold=rtol)
    scale = max(abs(true_residual), abs(recurrence_residual), atol)
    gap = abs(recurrence_residual - true_residual) / scale
    return CheckResult(name=name, passed=bool(gap <= rtol), measure=float(gap),
                       threshold=rtol)


def monotonicity_check(
    history: Sequence[float],
    *,
    allowed_increase: float = 1.5,
    window: int = 3,
    name: str = "monotonicity",
) -> CheckResult:
    """Residual histories of minimal-residual methods must not jump up.

    GMRES residual norms are non-increasing in exact arithmetic; a jump
    by more than ``allowed_increase`` over the recent ``window`` values
    is a strong SDC indicator.  (CG residuals oscillate, so use a larger
    ``allowed_increase`` there.)
    """
    check_positive(allowed_increase, "allowed_increase")
    window = check_integer(window, "window")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    n = len(history)
    if n < 2:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=allowed_increase)
    # Only the window is read: the caller appends to one history per
    # solve and asks again every iteration.
    recent = [float(history[i]) for i in range(max(0, n - window - 1), n)]
    if not all(map(math.isfinite, recent)):
        return CheckResult(name=name, passed=False, measure=float("inf"),
                           threshold=allowed_increase)
    reference = min(recent[:-1])
    if reference <= 0.0:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=allowed_increase)
    ratio = recent[-1] / reference
    return CheckResult(name=name, passed=bool(ratio <= allowed_increase),
                       measure=float(ratio), threshold=allowed_increase)
