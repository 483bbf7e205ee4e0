"""Preconditioning strategies of the solver engine.

The strategy decides how the Arnoldi candidate direction is produced
from the newest basis vector and how the cycle's correction is mapped
back onto the iterate:

* :class:`RightPreconditioner` -- classic fixed right preconditioning
  ``A M^{-1}``: the candidate is ``A (M^{-1} v_j)`` and the restart
  correction ``V_k y`` is pushed through ``M^{-1}`` once.  With
  ``preconditioner=None`` this degenerates to plain GMRES.
* :class:`FlexiblePreconditioner` -- FGMRES: the preconditioner may
  change every iteration (``z_j = M_j^{-1} v_j``, typically an inner
  iterative solve), the preconditioned vectors are stored in a second
  :class:`~repro.krylov.ops.KrylovBasis` block and the update is formed
  from them directly.  This strategy also implements the paper's
  *reliable outer iteration* contract (Heroux §III-D): the inner
  solve's output is analyzed and -- when non-finite or absurdly scaled
  -- discarded in favour of the unpreconditioned vector, so a faulty
  inner solver can waste an iteration but never poison the reliable
  outer state.  FT-GMRES is exactly the engine with this strategy and
  an unreliable inner solver.
"""

from __future__ import annotations

import numpy as np

from repro.krylov import ops

__all__ = [
    "PreconditionerStrategy",
    "RightPreconditioner",
    "FlexiblePreconditioner",
]


class PreconditionerStrategy:
    """Strategy interface: candidate production and update mapping."""

    def start_cycle(self, engine, b, m: int) -> None:
        """Reset per-cycle state (called once per restart cycle)."""

    def candidate(self, engine, basis, j: int):
        """Produce the Arnoldi candidate ``w`` from basis vector ``j``."""
        raise NotImplementedError

    def apply_update(self, engine, x, basis, y: np.ndarray, k: int):
        """Fold the cycle's least-squares solution ``y`` into ``x``."""
        raise NotImplementedError

    def contribute_info(self, info: dict) -> None:
        """Add strategy-specific entries to ``SolveResult.info``."""


class RightPreconditioner(PreconditionerStrategy):
    """Fixed right preconditioning ``A M^{-1} y = b`` (or none)."""

    def __init__(self, preconditioner=None):
        self.preconditioner = preconditioner

    def preconditioned_vector(self, engine, basis, j: int):
        """``M^{-1} v_j`` (or ``v_j`` itself), charged to the counters.

        The half of :meth:`candidate` before the operator application,
        split out so the batched lockstep path can run the (cheap,
        per-lane) preconditioner application exactly as the sequential
        path does while batching the matvec across lanes.
        """
        if self.preconditioner is None:
            return basis.column(j)
        kernels = engine.kernels
        t0 = kernels.tick()
        z = ops.apply_preconditioner(self.preconditioner, basis.column(j))
        kernels.charge("preconditioner", t0)
        return z

    def candidate(self, engine, basis, j: int):
        kernels = engine.kernels
        z = self.preconditioned_vector(engine, basis, j)
        t0 = kernels.tick()
        w = ops.matvec(engine.operator, z)
        kernels.charge("matvec", t0)
        return w

    def apply_update(self, engine, x, basis, y: np.ndarray, k: int):
        kernels = engine.kernels
        t0 = kernels.tick()
        update = basis.lincomb(y, k=k)
        kernels.charge("basis_update", t0)
        if self.preconditioner is not None:
            t0 = kernels.tick()
            update = ops.apply_preconditioner(self.preconditioner, update)
            kernels.charge("preconditioner", t0)
        return ops.xpby(x, 1.0, update)


class FlexiblePreconditioner(PreconditionerStrategy):
    """Variable (per-iteration) preconditioning with a reliable outer contract.

    Parameters
    ----------
    inner_solve:
        Callable mapping a basis vector ``v_j`` to a preconditioned
        vector ``z_j`` (typically an approximate solve of
        ``A z = v_j``); ``None`` means ``z_j = v_j``.  The callable may
        be *unreliable* -- its output is vetted before use.
    """

    def __init__(self, inner_solve=None):
        self.inner_solve = inner_solve
        self.z_norms: list = []
        self._z_block = None

    def start_cycle(self, engine, b, m: int) -> None:
        self._z_block = ops.allocate_basis(b, m)

    def candidate(self, engine, basis, j: int):
        kernels = engine.kernels
        v = basis.column(j)
        t0 = kernels.tick()
        z = self.inner_solve(v) if self.inner_solve is not None else ops.copy_vector(v)
        kernels.charge("inner_solve", t0)
        # The reliable outer iteration inspects what the (possibly
        # unreliable) inner solve returned and discards unusable
        # results, replacing them with the unpreconditioned vector --
        # the "analyzed and used or discarded" behaviour of the paper's
        # reliable-outer formulation.  Unusable means non-finite, or so
        # large that applying the operator would overflow and poison the
        # reliable outer state.
        z_local = ops.to_local(z)
        z_norm = float(np.linalg.norm(z_local)) if np.all(np.isfinite(z_local)) else float("inf")
        v_norm = ops.norm(v)
        if (
            not np.isfinite(z_norm)
            or z_norm == 0.0
            or z_norm > 1e120
            or z_norm > 1e16 * max(v_norm, 1.0)
        ):
            z = ops.copy_vector(v)
            z_norm = v_norm
        t0 = kernels.tick()
        with np.errstate(over="ignore", invalid="ignore"):
            w = ops.matvec(engine.operator, z)
        if not np.all(np.isfinite(ops.to_local(w))):
            z = ops.copy_vector(v)
            z_norm = v_norm
            w = ops.matvec(engine.operator, z)
        kernels.charge("matvec", t0)
        self._z_block.append(z)
        self.z_norms.append(z_norm)
        return w

    def apply_update(self, engine, x, basis, y: np.ndarray, k: int):
        kernels = engine.kernels
        t0 = kernels.tick()
        x = ops.xpby(x, 1.0, self._z_block.lincomb(y, k=k))
        kernels.charge("basis_update", t0)
        return x

    def contribute_info(self, info: dict) -> None:
        info["z_norms"] = self.z_norms
