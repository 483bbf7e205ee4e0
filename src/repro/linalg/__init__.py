"""Sparse linear algebra substrate.

Everything the Krylov solvers and PDE discretizations need is built
here from scratch on top of NumPy (SciPy is used only as a test
oracle):

* :mod:`repro.linalg.csr` -- compressed-sparse-row matrices with
  matvec, transpose-matvec, row slices, diagonal extraction and dtype
  conversion.
* :mod:`repro.linalg.matgen` -- model-problem generators: 1-D/2-D
  Poisson, convection-diffusion and tridiagonal matrices.
* :mod:`repro.linalg.blas` -- the GMRES least-squares kernels (Givens
  rotations, back substitution).
* :mod:`repro.linalg.precond` -- Jacobi, SSOR, polynomial (Neumann)
  and block-Jacobi preconditioners.
* :mod:`repro.linalg.checksum` -- Huang & Abraham checksum-encoded
  matrix operations (the classic ABFT scheme the paper cites as the
  root of algorithm-based fault tolerance).

The row-distributed matrices and vectors sit with the communicator
they run over, in :mod:`repro.comm.distributed`.
"""

from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import (
    poisson_1d,
    poisson_2d,
    convection_diffusion_2d,
    tridiagonal,
)
from repro.linalg.blas import givens_rotation, back_substitution
from repro.linalg.precond import (
    Preconditioner,
    JacobiPreconditioner,
    SsorPreconditioner,
    NeumannPolynomialPreconditioner,
    BlockJacobiPreconditioner,
)
from repro.linalg.checksum import (
    ChecksummedMatrix,
    verify_checksum,
    checked_matvec,
    checked_matmul,
    correct_single_error,
)

__all__ = [
    "CsrMatrix",
    "poisson_1d",
    "poisson_2d",
    "convection_diffusion_2d",
    "tridiagonal",
    "givens_rotation",
    "back_substitution",
    "Preconditioner",
    "JacobiPreconditioner",
    "SsorPreconditioner",
    "NeumannPolynomialPreconditioner",
    "BlockJacobiPreconditioner",
    "ChecksummedMatrix",
    "verify_checksum",
    "checked_matvec",
    "checked_matmul",
    "correct_single_error",
]
