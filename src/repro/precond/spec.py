"""Declarative, serializable preconditioner specifications.

A :class:`PrecondSpec` names one preconditioner *kind* plus its
parameters, and is the unit of the preconditioning layer's declarative
API -- the third sweepable axis, after solvers and faults
(:func:`repro.axes.declared_axes` lists them all).  Every registered solver's ``precond=`` parameter, every campaign
preconditioner axis and every :mod:`repro.precond.registry` entry is a
``PrecondSpec`` (or something :meth:`PrecondSpec.parse` can turn into
one).

Three interchangeable wire forms exist (the shared
:class:`repro.spec.KindSpec` ones):

* **compact strings** -- ``"ssor:omega=1.2"`` -- the form campaigns
  sweep and humans type;
* **dicts** -- ``{"kind": "ssor", "params": {"omega": 1.2}}`` -- the
  form the JSONL result store persists;
* **PrecondSpec objects** -- what the builders consume.

String grammar (the single-kind form of :mod:`repro.spec`'s; see
CAMPAIGNS.md for the full manual)::

    SPEC   := KIND [ ":" PARAM ("," PARAM)* ]
    PARAM  := NAME "=" VALUE
    VALUE  := int | float | bool | "none" | NAME

Kinds and their parameters:

==========  ==============================  ===========================
kind        parameters (defaults)           builds
==========  ==============================  ===========================
``none``    --                              no preconditioning (M = I)
``jacobi``  --                              diagonal (Jacobi) scaling
``ssor``    ``omega=1.0`` in (0, 2)         symmetric SOR sweeps
``poly``    ``k=2`` (degree, >= 0)          Neumann-series polynomial
``bjacobi`` ``bs=8`` (rows per block, >=1)  block Jacobi
==========  ==============================  ===========================

Examples: ``"none"``, ``"jacobi"``, ``"ssor:omega=1.2"``,
``"poly:k=4"``, ``"bjacobi:bs=8"``.

Parsing and formatting round-trip exactly (floats use ``repr``, the
same canonicalization as fault specs), which makes preconditioner
specs usable as campaign scenario-key material.  Unknown kinds and
unknown parameter names are rejected at construction time, so a typo
in a sweep axis fails before any scenario runs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.spec import KindSpec

__all__ = ["PrecondSpec", "PRECOND_KINDS"]

# kind -> the parameter names its builder understands.
PRECOND_KINDS: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "jacobi": (),
    "ssor": ("omega",),
    "poly": ("k",),
    "bjacobi": ("bs",),
}


class PrecondSpec(KindSpec):
    """One declarative preconditioner configuration.

    Attributes
    ----------
    kind:
        Preconditioner kind (``"none"``, ``"jacobi"``, ``"ssor"``,
        ``"poly"``, ``"bjacobi"``), one of :data:`PRECOND_KINDS`.
    params:
        Builder parameters (scalars); their values are validated by the
        preconditioner classes when the spec is built.
    """

    NOUN = "preconditioner"
    KINDS = PRECOND_KINDS
