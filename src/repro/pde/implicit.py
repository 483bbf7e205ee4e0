"""Implicit (backward-Euler) heat equation solved with CG.

The implicit case is the interesting one for LFLR (paper §III-C): the
state lost with a failed rank cannot simply be recomputed from the
previous step without re-solving, and the paper suggests restoring "a
local state that is equivalent up to the truncation error of the PDE",
for example from a redundantly stored coarse model.  This module
provides the implicit stepper; the coarse-model recovery lives in
:mod:`repro.lflr.coarse` and the experiment in
:mod:`repro.experiments.e5_coarse_recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.krylov.cg import cg
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import poisson_1d
from repro.pde.heat import gaussian_initial_condition
from repro.utils.validation import check_integer, check_positive

__all__ = ["backward_euler_matrix", "ImplicitHeatProblem1D"]


def backward_euler_matrix(n_points: int, dt: float, alpha: float) -> CsrMatrix:
    """The SPD system matrix ``I + dt * alpha / h^2 * L`` of one BE step."""
    check_integer(n_points, "n_points")
    check_positive(dt, "dt")
    check_positive(alpha, "alpha")
    h = 1.0 / (n_points + 1)
    laplacian = poisson_1d(n_points, scale=dt * alpha / (h * h))
    return laplacian + CsrMatrix.identity(n_points)


@dataclass
class ImplicitHeatProblem1D:
    """Backward-Euler heat equation with a CG inner solve per step.

    Attributes
    ----------
    n_points:
        Interior grid points.
    alpha:
        Diffusivity.
    dt:
        Time step; implicit stepping is unconditionally stable so this
        can be much larger than the explicit limit.
    cg_tol:
        Relative tolerance of the per-step CG solve.
    """

    n_points: int = 128
    alpha: float = 1.0
    dt: float = 1e-3
    cg_tol: float = 1e-10

    def __post_init__(self) -> None:
        check_integer(self.n_points, "n_points")
        if self.n_points <= 0:
            raise ValueError("n_points must be positive")
        check_positive(self.alpha, "alpha")
        check_positive(self.dt, "dt")
        check_positive(self.cg_tol, "cg_tol")
        self.h = 1.0 / (self.n_points + 1)
        self.x = (np.arange(self.n_points) + 1) * self.h
        self.matrix = backward_euler_matrix(self.n_points, self.dt, self.alpha)
        self.u = gaussian_initial_condition(self.x)
        self.cg_iterations: List[int] = []

    def step(self, n_steps: int = 1, *, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance ``n_steps`` backward-Euler steps.

        Each step solves ``(I + dt*alpha*L/h^2) u_new = u_old`` with CG,
        warm-started from ``x0`` (defaults to the previous solution,
        which is what makes the quality of a *recovered* state matter:
        a bad initial guess costs extra CG iterations -- the metric of
        experiment E5).
        """
        check_integer(n_steps, "n_steps")
        for _ in range(n_steps):
            guess = self.u if x0 is None else np.asarray(x0, dtype=np.float64)
            result = cg(self.matrix, self.u, x0=guess, tol=self.cg_tol, maxiter=10 * self.n_points)
            if not result.converged:
                raise RuntimeError("implicit heat step failed to converge")
            self.u = np.asarray(result.x, dtype=np.float64)
            self.cg_iterations.append(result.iterations)
            x0 = None
        return self.u
