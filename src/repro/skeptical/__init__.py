"""Skeptical Programming (SkP) -- paper §II-A and §III-A.

"Almost all algorithm developers assume that their software will
execute reliably or fail obviously by halting."  The SkP model replaces
that assumption with cheap, occasional validation of mathematical
properties the algorithm already implies: orthogonality of a Krylov
basis, bounds on Hessenberg entries, conservation of mass/energy in a
PDE step, monotone residual histories, checksum identities.

This subpackage provides:

* :mod:`repro.skeptical.checks` -- a library of invariant checks, each
  returning a :class:`CheckResult` with a verdict and an estimated
  cost, so experiments can report overhead, and
  :class:`SkepticalAbort`, the fail-stop response to a failed check.
* :mod:`repro.skeptical.gmres_sdc` -- the SDC-detecting GMRES in the
  spirit of Elliott & Hoemmen's bit-flip-resilient GMRES, whose default
  check set (:class:`~repro.skeptical.gmres_sdc.SdcChecks`) both Krylov
  engines run; its responses to a detection are the cycle restart
  (roll back) and the abort.
"""

from repro.skeptical.checks import (
    CheckResult,
    SkepticalAbort,
    orthogonality_check,
    hessenberg_bound_check,
    residual_consistency_check,
    finite_check,
    monotonicity_check,
)
from repro.skeptical.gmres_sdc import sdc_detecting_gmres

__all__ = [
    "CheckResult",
    "orthogonality_check",
    "hessenberg_bound_check",
    "residual_consistency_check",
    "finite_check",
    "monotonicity_check",
    "SkepticalAbort",
    "sdc_detecting_gmres",
]
