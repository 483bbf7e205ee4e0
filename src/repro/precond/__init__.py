"""The declarative preconditioning layer: the third sweepable axis.

The paper's central claim -- *selective reliability* -- is that the
preconditioner is exactly the part of a flexible Krylov solve that can
run unreliably: a corrupted ``M^{-1} v`` only slows convergence, it
never corrupts a converged answer, because the reliable outer
iteration vets and, at worst, discards what the preconditioner returns
(Heroux, HPDC'13, the FT-GMRES inner/outer argument).  This subpackage
makes that axis first-class, mirroring :mod:`repro.krylov.registry`
(solvers) and :mod:`repro.reliability` (faults): one serializable
:class:`PrecondSpec` model, one named registry, and one resolution
entry point (:func:`resolve_preconds`) consumed uniformly by every
registered solver's ``precond=`` parameter, the campaign layer and the
experiment drivers -- so preconditioners are named, serializable and
sweepable exactly like solvers and fault models.

Quick tour::

    from repro import precond
    from repro.krylov.registry import default_solver_registry
    from repro.linalg import poisson_2d

    A = poisson_2d(10)
    M = precond.resolve_preconds("ssor:omega=1.2", matrix=A)

    # ... or let any registered solver resolve the spec itself:
    solver = default_solver_registry().get("fgmres")
    result = solver.solve(A, b, precond="bjacobi:bs=8")

    # selective reliability: only M^{-1} v runs unreliably
    from repro import reliability
    with reliability.unreliable("bitflip:p=1e-4", seed=7) as region:
        result = solver.solve(A, b, precond=region.preconditioner(M))

Module map:

* :mod:`~repro.precond.spec` -- declarative, serializable
  :class:`PrecondSpec` (compact-string / dict round-trip, validated
  kinds and parameter names).
* :mod:`~repro.precond.registry` -- named preconditioners,
  :func:`parse_precond` / :func:`resolve_preconds` /
  :func:`build_preconditioner`.

The concrete preconditioner classes (Jacobi, SSOR, Neumann polynomial,
block Jacobi) stay in :mod:`repro.linalg.precond`; this layer only
names, serializes and builds them.
"""

from repro.precond.spec import PRECOND_KINDS, PrecondSpec
from repro.precond.registry import (
    PrecondRegistry,
    build_preconditioner,
    default_precond_registry,
    parse_precond,
    precond_names,
    resolve_preconds,
)

__all__ = [
    "PrecondSpec",
    "PRECOND_KINDS",
    "PrecondRegistry",
    "default_precond_registry",
    "precond_names",
    "parse_precond",
    "resolve_preconds",
    "build_preconditioner",
]
