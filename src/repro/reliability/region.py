"""Selective reliability, written once: the :class:`Region`.

The paper's SRP model (§II-D, §III-D) is one idea: a region of data and
compute that runs cheaply -- unreliably, at reduced precision, or both
-- under a reliable outer layer that vets whatever comes out of it.  A
:class:`Region` is that idea as one object, defined by

* an injector or none (what may corrupt the region's results),
* a precision spec or fp64 (what the region rounds to), and
* a :class:`~repro.reliability.cost.ReliabilityCostModel` (what running
  the same work reliably would cost).

It wraps the pieces that run inside it -- an operator, a preconditioner
``M^{-1} v`` or a whole FGMRES inner solve -- and keeps one timestamp
(:attr:`Region.now`, handed to the fault schedule) and one set of
counters (applications, flops, faults injected).  A wrapped apply
rounds its input to the region's precision, runs, rounds its result
and widens it back to float64; only then may the injector corrupt it,
so a fault lands on the value the reliable caller receives.

The usual regions::

    from repro import reliability

    with reliability.unreliable("bitflip:p=1e-3,bits=52..62", seed=7) as region:
        op = region.operator(A.matvec, flops_per_call=2 * A.nnz)
        result = gmres(op, b)          # any registered solver works
        print(region.faults_injected())

    region = reliability.Region(precision="fp32")
    result = gmres(region.operator(A), b)   # fp32 matvec, fp64 outside

    reliability.reliable()             # never corrupts, never rounds

:meth:`~repro.reliability.models.FaultModel.environment` builds the
region a fault model's selective-reliability solvers run in (E3, E6,
E8, E9).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.linalg.csr import CsrMatrix
from repro.reliability.cost import ReliabilityCostModel
from repro.reliability.precision import cast_operator, parse_precision

__all__ = ["Region", "RegionStage", "unreliable", "reliable"]


def _copy(vector) -> np.ndarray:
    """The identity preconditioner: a float64 copy of its input."""
    return np.array(vector, dtype=np.float64, copy=True)


class RegionStage:
    """One apply running inside a :class:`Region`.

    Callable as an operator and, through ``apply``, a
    :class:`~repro.linalg.precond.Preconditioner`, so it slots into
    every registered solver's operator or ``precond=`` argument.
    """

    def __init__(self, region: "Region", apply: Callable, flops_per_call: float):
        self.region = region
        self._apply = apply
        self.flops_per_call = float(flops_per_call)

    def __call__(self, x):
        region = self.region
        result = region._rounded(self._apply, x)
        region.applications += 1
        region.flops += self.flops_per_call
        if region.injector is None:
            return result
        arr = np.asarray(result)
        if arr.dtype != np.float32:
            # float32 data passes through natively so the injector flips
            # 32-bit patterns instead of silently upcasting.
            arr = np.asarray(arr, dtype=np.float64)
        return region.injector.maybe_inject(arr, now=region.now)

    apply = __call__


class Region:
    """A cheap region of data and compute under a reliable outer layer.

    Parameters
    ----------
    injector:
        Anything with the :class:`~repro.reliability.injector.ArrayInjector`
        interface, or ``None`` for a region that never corrupts.
    precision:
        Anything :func:`~repro.reliability.precision.parse_precision`
        accepts; ``None``/``"fp64"`` never rounds.
    cost_model:
        Prices the region's work against an all-reliable run in
        :meth:`cost_summary`.

    Attributes
    ----------
    now:
        Logical timestamp handed to the fault schedule on every
        application; :meth:`inner_solve` advances it by one per call.
    applications, flops:
        Applications of, and flops charged by, the region's stages.
    """

    def __init__(self, injector=None, precision=None, cost_model=None):
        self.injector = injector
        self.precision = parse_precision(precision)
        self._low = None if self.precision.is_default else self.precision.compute_dtype
        self.cost_model = cost_model if cost_model is not None else ReliabilityCostModel()
        self.now = 0.0
        self.applications = 0
        self.flops = 0.0

    def __enter__(self) -> "Region":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def _rounded(self, apply: Callable, x):
        """``apply(x)`` at the region's precision, widened back to float64."""
        low = self._low
        if low is None:
            return apply(x)
        result = apply(np.asarray(x, dtype=low))
        return np.asarray(np.asarray(result, dtype=low), dtype=np.float64)

    # -- what runs inside ----------------------------------------------
    def operator(self, operator, *, flops_per_call: float = 0.0) -> RegionStage:
        """Wrap an operator (callable, :class:`CsrMatrix` or ndarray).

        At reduced precision a matrix is converted natively (the
        memory-traffic win); a callable's results are rounded.
        """
        low = cast_operator(operator, self.precision)
        if isinstance(low, CsrMatrix):
            apply = low.matvec
        elif isinstance(low, np.ndarray):
            apply = low.__matmul__
        else:
            apply = low
        return RegionStage(self, apply, flops_per_call)

    def preconditioner(self, preconditioner=None, *,
                       flops_per_call: float = 0.0) -> RegionStage:
        """Wrap ``M^{-1} v``: an object with ``apply``, a bare callable, or
        ``None`` (the identity).

        Handed to a flexible solver whose outer iteration stays
        reliable, this is the paper's selective-reliability FGMRES: a
        corrupted ``M^{-1} v`` can slow convergence but never corrupt a
        converged answer.
        """
        if preconditioner is None:
            apply = _copy
        else:
            apply = getattr(preconditioner, "apply", preconditioner)
        return RegionStage(self, apply, flops_per_call)

    def inner_solve(self, solve: Callable) -> Callable:
        """Wrap ``solve`` (``v -> ~A^{-1} v``) for FGMRES's ``inner_solve=``.

        Each call is one phase of the region: :attr:`now` advances by
        one first, so a fault schedule sees one timestamp per inner
        solve.  The solve runs at the region's precision; its faults
        come from the region's :meth:`operator` inside it, not from its
        result.
        """

        def phase(v):
            self.now += 1.0
            return self._rounded(solve, v)

        return phase

    # -- accounting ----------------------------------------------------
    def faults_injected(self) -> int:
        """Faults the region's injector has injected so far."""
        return self.injector.n_injected if self.injector is not None else 0

    def summary(self, reliable_flops: float = 0.0) -> Dict[str, float]:
        """The work split between this region and ``reliable_flops`` done
        reliably outside it, plus the faults injected."""
        total = reliable_flops + self.flops
        return {
            "reliable_flops": reliable_flops,
            "unreliable_flops": self.flops,
            "reliable_fraction_flops": reliable_flops / total if total else 0.0,
            "faults_injected": float(self.faults_injected()),
        }

    def cost_summary(self, reliable_flops: float = 0.0) -> Dict[str, float]:
        """Estimated cost of that split vs an all-reliable execution."""
        model = self.cost_model
        return {
            "selective_cost": model.execution_cost(reliable_flops, self.flops),
            "all_reliable_cost": model.execution_cost(reliable_flops + self.flops, 0.0),
            "savings_factor": model.speedup_vs_all_reliable(reliable_flops, self.flops),
        }


def reliable() -> Region:
    """A reliable region: never corrupted, never rounded."""
    return Region()
