"""Declarative mixed-precision layer: the fourth sweepable axis.

The paper's selective-reliability argument -- bounded-error work in the
*inner* solve only slows convergence, it cannot corrupt the answer --
applies verbatim to reduced precision: a float32 matvec is a bounded
(~2^-24) perturbation of the float64 one.  This module makes precision
a first-class, serializable axis exactly like faults
(:class:`~repro.reliability.spec.FaultSpec`) and preconditioners
(:class:`~repro.precond.spec.PrecondSpec`):

* :class:`PrecisionSpec` -- one precision configuration with the three
  interchangeable wire forms (compact string / dict / object);
* a named registry (:func:`default_precision_registry`,
  :func:`parse_precision`) so campaigns sweep ``"fp32"`` by name;
* :func:`cast_operator` / :func:`cast_vector`, which the solver
  registry's ``precision=`` and a reduced-precision
  :class:`~repro.reliability.region.Region` share.

String grammar (single-kind, like preconditioner specs)::

    SPEC   := KIND [ ":" PARAM ("," PARAM)* ]
    PARAM  := NAME "=" VALUE

Kinds and their parameters:

==========  ==========================  ===============================
kind        parameters (defaults)       meaning
==========  ==========================  ===============================
``fp64``    ``storage`` (= kind)        full double precision (default)
``fp32``    ``storage`` (= kind)        single-precision compute
==========  ==========================  ===============================

``storage`` narrows the dtype *matrix entries are stored in* without
changing the compute dtype -- ``"fp32:storage=fp16"`` streams a
half-precision matrix through single-precision accumulation, halving
matrix memory traffic again.  Storage wider than the compute dtype is
rejected (it could only waste bandwidth).

``precision="fp64"`` is the identity configuration: the solver registry
skips every cast and runs the exact default code path, bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.linalg.csr import CsrMatrix
from repro.spec import Axis, KindSpec, RegisteredSpec, Registry

__all__ = [
    "PrecisionSpec",
    "PRECISION_KINDS",
    "PrecisionRegistry",
    "default_precision_registry",
    "parse_precision",
    "cast_operator",
    "cast_vector",
    "AXIS",
]

# kind -> the parameter names it understands.
PRECISION_KINDS: Dict[str, Tuple[str, ...]] = {
    "fp64": ("storage",),
    "fp32": ("storage",),
}

#: Compute dtype each kind names.
_COMPUTE_DTYPES: Dict[str, np.dtype] = {
    "fp64": np.dtype(np.float64),
    "fp32": np.dtype(np.float32),
}

#: Dtypes the ``storage`` parameter may name.
_STORAGE_DTYPES: Dict[str, np.dtype] = {
    "fp16": np.dtype(np.float16),
    "fp32": np.dtype(np.float32),
    "fp64": np.dtype(np.float64),
}


class PrecisionSpec(KindSpec):
    """One declarative precision configuration.

    Attributes
    ----------
    kind:
        Compute precision (``"fp64"`` or ``"fp32"``), one of
        :data:`PRECISION_KINDS`.
    params:
        Optional parameters; currently just ``storage`` (a dtype name
        from ``fp16``/``fp32``/``fp64``, no wider than the compute
        dtype).
    """

    NOUN = "precision"
    KINDS = PRECISION_KINDS

    def _check_values(self, params: Dict[str, Any]) -> None:
        if "storage" not in params:
            return
        storage = params["storage"]
        storage = storage.lower() if isinstance(storage, str) else storage
        if storage not in _STORAGE_DTYPES:
            raise ValueError(
                f"unknown storage dtype {params['storage']!r} "
                f"(known: {sorted(_STORAGE_DTYPES)})"
            )
        if _STORAGE_DTYPES[storage].itemsize > _COMPUTE_DTYPES[self.kind].itemsize:
            raise ValueError(
                f"storage dtype {storage!r} is wider than the "
                f"compute dtype of kind {self.kind!r}"
            )
        params["storage"] = storage

    # -- dtype surface -------------------------------------------------
    @property
    def compute_dtype(self) -> np.dtype:
        """NumPy dtype vectors are computed (and accumulated) in."""
        return _COMPUTE_DTYPES[self.kind]

    @property
    def storage_dtype(self) -> np.dtype:
        """NumPy dtype matrix entries are stored in."""
        storage = self.params.get("storage")
        if storage is None:
            return self.compute_dtype
        return _STORAGE_DTYPES[storage]

    @property
    def is_default(self) -> bool:
        """Whether this spec names the exact default (all-fp64) path."""
        return (
            self.kind == "fp64"
            and self.storage_dtype == _COMPUTE_DTYPES["fp64"]
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _builtin_precisions() -> List[RegisteredSpec]:
    spec = PrecisionSpec.parse

    return [
        RegisteredSpec(
            name="fp64",
            spec=spec("fp64"),
            title="Full double precision (the default path, bit for bit)",
        ),
        RegisteredSpec(
            name="fp32",
            spec=spec("fp32"),
            title="Single-precision compute (half the memory traffic)",
        ),
        RegisteredSpec(
            name="fp32_fp16",
            spec=spec("fp32:storage=fp16"),
            title="Single-precision compute over half-precision matrix storage",
        ),
    ]


class PrecisionRegistry(Registry[RegisteredSpec]):
    """Index of named precision configurations."""

    NOUN = "precision"
    COLUMNS = ("precision", "spec", "title")
    builtin = staticmethod(_builtin_precisions)


#: The process-wide registry of named precision configurations.
default_precision_registry = PrecisionRegistry.default


def parse_precision(
    value: Union[None, str, Mapping, "PrecisionSpec"]
) -> PrecisionSpec:
    """Resolve anything precision-shaped into a :class:`PrecisionSpec`.

    ``None`` resolves to the ``"fp64"`` (identity) spec, a registered
    name to its entry's spec, anything else through
    :meth:`repro.spec.Axis.parse`.
    """
    return AXIS.parse(value)


AXIS = Axis(
    name="precision",
    spec=PrecisionSpec,
    registry=default_precision_registry,
    resolve=parse_precision,
    keywords=("precision", "precisions"),
    identity="fp64",
)


# ----------------------------------------------------------------------
# Casting helpers (used by the solver registry's precision= threading)
# ----------------------------------------------------------------------
def cast_vector(x, spec: PrecisionSpec) -> np.ndarray:
    """Coerce a vector to the spec's compute dtype (no-op when it fits)."""
    return np.asarray(x, dtype=spec.compute_dtype)


class _CallableOperatorCast:
    """Wrap a callable operator so its results land in the compute dtype.

    The wrapped callable (a region's operator, a lambda over a dense
    array, ...) keeps
    computing in whatever precision it was built with; input is widened
    to float64 so fault injectors with float64-only bit patterns keep
    working, and the result is rounded to the compute dtype on the way
    out -- the same bounded-error contract as a native reduced-precision
    apply.
    """

    def __init__(self, operator, dtype: np.dtype):
        self._operator = operator
        self._dtype = dtype

    def __call__(self, x: np.ndarray) -> np.ndarray:
        result = self._operator(np.asarray(x, dtype=np.float64))
        return np.asarray(result, dtype=self._dtype)

    def __getattr__(self, name):
        return getattr(self._operator, name)


def cast_operator(operator, spec: PrecisionSpec):
    """Return ``operator`` converted to the spec's compute/storage dtype.

    * :class:`~repro.linalg.csr.CsrMatrix` converts natively (the real
      memory-traffic win: matvec gathers, multiplies and reduces at the
      reduced dtype);
    * dense ndarrays convert via ``astype``;
    * callables are wrapped so their *results* are rounded to the
      compute dtype (their internals are opaque);
    * the identity spec returns the operator untouched.
    """
    if spec.is_default:
        return operator
    if isinstance(operator, CsrMatrix):
        if (
            operator.dtype == spec.compute_dtype
            and operator.data.dtype == spec.storage_dtype
        ):
            return operator
        return operator.astype(spec.compute_dtype, storage=spec.storage_dtype)
    if isinstance(operator, np.ndarray):
        return operator.astype(spec.storage_dtype)
    if callable(operator):
        return _CallableOperatorCast(operator, spec.compute_dtype)
    raise TypeError(
        f"cannot cast operator of type {type(operator).__name__} "
        f"to precision {spec.to_string()!r}"
    )
