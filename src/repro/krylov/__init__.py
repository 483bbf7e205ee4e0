"""Krylov subspace solvers.

One engine, many configurations: the restarted-Arnoldi and CG
machinery lives in :mod:`repro.krylov.engine` (core loop plus
orthogonalization / preconditioning / convergence / resilience
strategy objects), the public solver functions below are thin named
configurations of it, and :mod:`repro.krylov.registry` exposes every
configuration to the campaign layer as a sweepable axis.

* :mod:`repro.krylov.result` -- the :class:`SolveResult` returned by
  every solver.
* :mod:`repro.krylov.ops` -- a small dispatch layer so the same solver
  source runs on plain NumPy vectors and on
  :class:`~repro.comm.distributed.DistributedVector` objects over the
  simulated runtime, plus the :class:`~repro.krylov.ops.KrylovBasis`
  block store whose fused BLAS-2 kernels (CGS2 orthogonalization,
  single-gemv restart correction) all Arnoldi-type solvers share.
* :mod:`repro.krylov.engine` -- the unified solver engine and its
  strategy objects (see ARCHITECTURE.md).
* :mod:`repro.krylov.registry` -- named solver configurations for
  campaigns (solver x resilience-policy sweeps) and ``batch_solve``.
  It names the skeptical solver too, so it sits above
  :mod:`repro.skeptical` and this package does not import it.
* :mod:`repro.krylov.gmres` -- restarted GMRES with right
  preconditioning and iteration hooks.
* :mod:`repro.krylov.fgmres` -- flexible GMRES, and FT-GMRES: that
  reliable outer iteration around unreliable inner GMRES solves.
* :mod:`repro.krylov.cg` -- conjugate gradients.
* :mod:`repro.krylov.pipelined_gmres` -- one-step pipelined GMRES in
  the spirit of Ghysels et al.'s p(l)-GMRES: classical Gram-Schmidt
  with a single non-blocking reduction per iteration overlapped with
  the next matrix-vector product.
* :mod:`repro.krylov.pipelined_cg` -- pipelined conjugate gradients
  (Ghysels & Vanroose), one overlapped reduction per iteration.
"""

from repro.krylov.result import SolveResult
from repro.krylov.engine import SolverEngine
from repro.krylov.gmres import gmres, GmresState
from repro.krylov.fgmres import fgmres, ft_gmres
from repro.krylov.cg import cg
from repro.krylov.ops import KrylovBasis, allocate_basis
from repro.krylov.pipelined_gmres import pipelined_gmres
from repro.krylov.pipelined_cg import pipelined_cg

__all__ = [
    "SolveResult",
    "SolverEngine",
    "gmres",
    "GmresState",
    "fgmres",
    "ft_gmres",
    "cg",
    "KrylovBasis",
    "allocate_basis",
    "pipelined_gmres",
    "pipelined_cg",
]
