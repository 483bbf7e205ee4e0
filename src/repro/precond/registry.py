"""Named preconditioner registry: the preconditioner axis campaigns sweep.

Mirrors :mod:`repro.krylov.registry` and
:mod:`repro.reliability.registry`: each entry names one declarative
:class:`~repro.precond.spec.PrecondSpec` under a stable key, so
drivers, campaigns and the CLI resolve preconditioners *by name* -- or
by inline spec string -- and sweep solver x preconditioner x fault
grids without constructing :class:`~repro.linalg.precond.Preconditioner`
objects by hand.

Two resolution entry points exist:

* :func:`parse_precond` -- anything precond-shaped to a
  :class:`PrecondSpec` (no matrix needed; what campaigns and scenario
  keys use);
* :func:`resolve_preconds` -- anything precond-shaped to a *built*
  preconditioner for a concrete matrix (what solvers call).  Already-
  built preconditioner objects pass through untouched, so a fault-
  injecting :meth:`repro.reliability.Region.preconditioner` can be
  handed to any registered solver's ``precond=`` parameter.

Build failures are actionable: parameter validation errors raised by
the underlying preconditioner classes are re-raised naming the
offending spec string (``invalid preconditioner spec 'ssor:omega=2.5':
omega must lie in (0, 2) for SSOR``), so a bad sweep value points at
the sweep axis, not at a bare ``ValueError`` deep in ``linalg``.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Union

from repro.linalg.precond import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
    NeumannPolynomialPreconditioner,
    Preconditioner,
    SsorPreconditioner,
)
from repro.precond.spec import PrecondSpec
from repro.spec import Axis, RegisteredSpec, Registry

__all__ = [
    "PrecondRegistry",
    "default_precond_registry",
    "precond_names",
    "parse_precond",
    "resolve_preconds",
    "build_preconditioner",
    "AXIS",
]


def build_preconditioner(
    spec: Union[str, Mapping, PrecondSpec], matrix
) -> Optional[Preconditioner]:
    """Instantiate the preconditioner a spec describes, for ``matrix``.

    ``"none"`` builds ``None`` (the exact no-preconditioner solver
    path, with no identity-apply overhead).  Parameter validation
    errors are re-raised naming the offending spec string.
    """
    spec = PrecondSpec.parse(spec)
    if spec.kind == "none":
        return None
    if matrix is None or not hasattr(matrix, "diagonal_values"):
        raise ValueError(
            f"building preconditioner spec {spec.to_string()!r} needs a "
            f"CsrMatrix (got {type(matrix).__name__}); pass the clean "
            f"matrix via precond_matrix= when the operator is wrapped"
        )
    try:
        if spec.kind == "jacobi":
            return JacobiPreconditioner(matrix)
        if spec.kind == "ssor":
            return SsorPreconditioner(matrix, omega=float(spec.get("omega", 1.0)))
        if spec.kind == "poly":
            return NeumannPolynomialPreconditioner(
                matrix, degree=int(spec.get("k", 2))
            )
        # spec.kind == "bjacobi" (PrecondSpec already validated the kind)
        block_size = int(spec.get("bs", 8))
        if block_size < 1:
            raise ValueError("bs (rows per block) must be >= 1")
        n_blocks = min(
            matrix.n_rows, max(1, math.ceil(matrix.n_rows / block_size))
        )
        return BlockJacobiPreconditioner(matrix, n_blocks)
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"invalid preconditioner spec {spec.to_string()!r}: {exc}"
        ) from exc


def _builtin_preconds() -> List[RegisteredSpec]:
    spec = PrecondSpec.parse

    return [
        RegisteredSpec(
            name="none",
            spec=spec("none"),
            title="No preconditioning (M = I)",
        ),
        RegisteredSpec(
            name="jacobi",
            spec=spec("jacobi"),
            title="Diagonal (Jacobi) scaling",
        ),
        RegisteredSpec(
            name="ssor",
            spec=spec("ssor:omega=1.0"),
            title="Symmetric SOR, one forward + one backward sweep",
        ),
        RegisteredSpec(
            name="ssor_over",
            spec=spec("ssor:omega=1.2"),
            title="Over-relaxed symmetric SOR (omega = 1.2)",
        ),
        RegisteredSpec(
            name="poly2",
            spec=spec("poly:k=2"),
            title="Neumann-series polynomial, degree 2 (inner-product-free)",
        ),
        RegisteredSpec(
            name="poly4",
            spec=spec("poly:k=4"),
            title="Neumann-series polynomial, degree 4 (inner-product-free)",
        ),
        RegisteredSpec(
            name="bjacobi8",
            spec=spec("bjacobi:bs=8"),
            title="Block Jacobi, 8-row blocks (per-subdomain solves)",
        ),
    ]


class PrecondRegistry(Registry[RegisteredSpec]):
    """Index of named preconditioner configurations."""

    NOUN = "preconditioner"
    COLUMNS = ("precond", "spec", "title")
    builtin = staticmethod(_builtin_preconds)


#: The process-wide registry of named preconditioners.
default_precond_registry = PrecondRegistry.default


def precond_names() -> List[str]:
    """Sorted names of all registered preconditioners."""
    return default_precond_registry().names()


def parse_precond(
    value: Union[None, str, Mapping, PrecondSpec]
) -> PrecondSpec:
    """Resolve anything precond-shaped into a :class:`PrecondSpec`.

    ``None`` resolves to the ``"none"`` spec, a registered name to its
    entry's spec, anything else through :meth:`repro.spec.Axis.parse`.
    Already-built preconditioner objects are *not* accepted here (they
    have no declarative form); use :func:`resolve_preconds` when
    proxies or instances may appear.
    """
    return AXIS.parse(value)


def resolve_preconds(
    value,
    matrix=None,
    **overrides,
) -> Optional[Preconditioner]:
    """Resolve anything precond-shaped into a built preconditioner.

    ``None`` and ``"none"`` resolve to ``None`` (the no-preconditioner
    solver path).  Already-built preconditioner objects -- anything
    with an ``apply`` method, or a bare callable -- pass through
    untouched (overrides are rejected there, since there is no spec to
    override).  Strings are looked up in the registry first; anything
    else is parsed as a compact spec string and built against
    ``matrix``.  ``overrides`` merge into the spec's parameters
    (``None`` values are ignored).
    """
    if value is not None and (hasattr(value, "apply") or callable(value)):
        if overrides:
            raise ValueError(
                "parameter overrides require a spec-shaped preconditioner, "
                f"not an already-built {type(value).__name__}"
            )
        return value
    spec = parse_precond(value)
    if overrides:
        spec = spec.with_params(**overrides)
    return build_preconditioner(spec, matrix)


AXIS = Axis(
    name="precond",
    spec=PrecondSpec,
    registry=default_precond_registry,
    resolve=parse_precond,
    entry_points=(resolve_preconds, build_preconditioner),
    keywords=("precond", "preconds"),
    identity="none",
)
