"""Orthogonalization strategies of the solver engine.

One Arnoldi step must orthogonalize the candidate vector ``w = A z``
against the current Krylov basis and append the normalized result.  The
two families in the toolkit differ in their *communication pattern*,
not their algebra:

* :class:`BlockedOrthogonalizer` -- the baseline blocking kernel:
  :meth:`~repro.krylov.ops.KrylovBasis.orthogonalize` (CGS2) followed
  by an explicit norm.  Two fused reductions per step on the simulated
  runtime.
* :class:`PipelinedOrthogonalizer` -- the latency-reduced kernel of
  p(l)-GMRES: each of its two waves is ONE fused non-blocking
  reduction carrying all projection coefficients plus ``|w|^2``, and
  the strategy counts its reduction waves for the E3 synchronization
  comparison.

Both return ``(coefficients, h_next, happy)`` and leave the basis with
the new vector appended, so the engine core loop is identical either
way.
"""

from __future__ import annotations

import math

import numpy as np

from repro.krylov import ops

__all__ = [
    "Orthogonalizer",
    "BlockedOrthogonalizer",
    "PipelinedOrthogonalizer",
    "HAPPY_BREAKDOWN_TOL",
    "orthogonalize_many",
]

# Happy-breakdown threshold of the blocking kernel, relative to the
# cycle residual: shared with the batched lockstep path so both decide
# breakdown on exactly the same comparison.
HAPPY_BREAKDOWN_TOL = 1e-14


def orthogonalize_many(rows: np.ndarray, w: np.ndarray):
    """One CGS2 step for a stack of independent lanes.

    ``rows`` is ``(G, k, n)`` (lane ``g``'s first ``k`` basis vectors as
    rows) and ``w`` is ``(G, n)``.  Returns ``(w_orth, coefficients)``
    of shapes ``(G, n)`` and ``(G, k)``.

    Bit-parity contract: per lane this computes exactly what
    ``_DenseKrylovBasis.orthogonalize`` computes -- ``np.matmul`` with
    one stacked batch dimension reduces each lane with the same gemv
    kernel as the sequential ``rows.dot(w)`` / ``coefficients.dot(rows)``
    calls, so the floats are identical
    (``tests/test_block_kernels.py::TestDispatchParity`` pins it;
    ``np.einsum`` is NOT, and must not be substituted here).
    """
    coefficients = np.matmul(rows, w[:, :, None])[:, :, 0]
    w = w - np.matmul(coefficients[:, None, :], rows)[:, 0, :]
    correction = np.matmul(rows, w[:, :, None])[:, :, 0]
    w -= np.matmul(correction[:, None, :], rows)[:, 0, :]
    return w, coefficients + correction


class Orthogonalizer:
    """Strategy interface: one Arnoldi orthogonalization step."""

    def step(self, engine, basis, w, j: int, cycle_residual: float):
        """Orthogonalize ``w`` against ``basis[:j+1]`` and append.

        Returns ``(coefficients, h_next, happy)`` where ``coefficients``
        is the new Hessenberg column (without the subdiagonal entry),
        ``h_next`` the norm of the orthogonalized vector and ``happy``
        whether a happy breakdown occurred (basis exhausted).
        """
        raise NotImplementedError

    def contribute_info(self, info: dict) -> None:
        """Add strategy-specific entries to ``SolveResult.info``."""


class BlockedOrthogonalizer(Orthogonalizer):
    """Blocking CGS2 via the :class:`~repro.krylov.ops.KrylovBasis` kernels."""

    def step(self, engine, basis, w, j: int, cycle_residual: float):
        kernels = engine.kernels
        t0 = kernels.tick()
        w, coefficients = basis.orthogonalize(w, k=j + 1)
        h_next = ops.norm(w)
        happy = h_next <= HAPPY_BREAKDOWN_TOL * max(cycle_residual, 1.0)
        if not happy:
            basis.append(w, scale=1.0 / h_next)
        else:
            basis.append_zero()
        kernels.charge("orthogonalization", t0)
        return coefficients, h_next, happy


class PipelinedOrthogonalizer(Orthogonalizer):
    """Fused-wave orthogonalization of p(l)-GMRES.

    Two fused waves, each one non-blocking reduction of the projection
    coefficients and the candidate's squared norm: together they are
    exactly CGS2.  The instance accumulates :attr:`reduction_waves` and
    :attr:`mgs_equivalent` (what one-coefficient-at-a-time MGS would
    have cost) across the solve.
    """

    def __init__(self):
        self.reduction_waves = 0
        self.mgs_equivalent = 0

    def step(self, engine, basis, w, j: int, cycle_residual: float):
        kernels = engine.kernels
        t0 = kernels.tick()
        projection = basis.fused_projection(w, k=j + 1)
        self.reduction_waves += 1
        self.mgs_equivalent += j + 2
        payload = projection.wait()
        coefficients = np.asarray(payload[: j + 1], dtype=np.float64)
        w_norm_sq = float(payload[j + 1])
        # Form the orthogonalized vector locally (one gemv).
        w = basis.block_axpy(coefficients, w, k=j + 1)
        projection2 = basis.fused_projection(w, k=j + 1)
        self.reduction_waves += 1
        payload2 = projection2.wait()
        corrections = np.asarray(payload2[: j + 1], dtype=np.float64)
        w = basis.block_axpy(corrections, w, k=j + 1)
        coefficients = coefficients + corrections
        h_next = ops.norm(w)
        happy = h_next <= 1e-12 * max(math.sqrt(max(w_norm_sq, 0.0)), 1.0)
        if not happy:
            basis.append(w, scale=1.0 / h_next)
        else:
            basis.append_zero()
        kernels.charge("orthogonalization", t0)
        return coefficients, h_next, happy

    def contribute_info(self, info: dict) -> None:
        info["reduction_waves"] = self.reduction_waves
        info["mgs_equivalent_reductions"] = self.mgs_equivalent
