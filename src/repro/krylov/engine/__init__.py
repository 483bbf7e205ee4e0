"""The unified Krylov solver engine.

One core loop (:class:`~repro.krylov.engine.core.SolverEngine` driving
an :class:`~repro.krylov.engine.core.IterationScheme`), with the
variation points of the solver family factored into strategy objects:

* :mod:`~repro.krylov.engine.orthogonalize` -- blocking vs fused-wave
  Gram-Schmidt kernels.
* :mod:`~repro.krylov.engine.precondition` -- fixed right vs flexible
  (inner-solver, reliable-outer) preconditioning.
* :mod:`~repro.krylov.engine.convergence` -- the stopping rule.
* :mod:`~repro.krylov.engine.resilience` -- pluggable per-iteration
  resilience policies (hooks, residual guards).
* :mod:`~repro.krylov.engine.cg` -- the SPD (CG) iteration schemes.

See ARCHITECTURE.md for the layer diagram and
:mod:`repro.krylov.registry` for the named solver configurations the
campaign layer sweeps.
"""

from repro.krylov.engine.cg import CgScheme, PipelinedCgScheme
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.core import ArnoldiScheme, GmresState, IterationScheme, SolverEngine
from repro.krylov.engine.orthogonalize import (
    BlockedOrthogonalizer,
    Orthogonalizer,
    PipelinedOrthogonalizer,
)
from repro.krylov.engine.precondition import (
    FlexiblePreconditioner,
    PreconditionerStrategy,
    RightPreconditioner,
)
from repro.krylov.engine.resilience import (
    CallbackPolicy,
    CompositePolicy,
    CycleAbandoned,
    IterationEvent,
    NullPolicy,
    ResidualGuardPolicy,
    ResiliencePolicy,
)

from repro.krylov.engine.batch import (
    ArnoldiLane,
    batched_matvec,
    run_arnoldi_batch,
    run_cg_batch,
)

__all__ = [
    "SolverEngine",
    "IterationScheme",
    "ArnoldiScheme",
    "CgScheme",
    "PipelinedCgScheme",
    "GmresState",
    "ConvergenceTest",
    "Orthogonalizer",
    "BlockedOrthogonalizer",
    "PipelinedOrthogonalizer",
    "PreconditionerStrategy",
    "RightPreconditioner",
    "FlexiblePreconditioner",
    "ResiliencePolicy",
    "NullPolicy",
    "CallbackPolicy",
    "CompositePolicy",
    "ResidualGuardPolicy",
    "CycleAbandoned",
    "IterationEvent",
    "ArnoldiLane",
    "run_arnoldi_batch",
    "run_cg_batch",
    "batched_matvec",
]
