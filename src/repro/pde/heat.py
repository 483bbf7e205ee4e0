"""Explicit (forward-Euler) heat equation.

``u_t = alpha * u_xx`` on the unit interval with homogeneous Dirichlet
boundaries, discretized with second-order central differences and
forward Euler in time.  The explicit stepper is the workload of the
LFLR experiments because, as the paper notes (§III-C), "an explicit
time-stepping algorithm can be easily implemented to recover locally,
given the LFLR features": the state needed to continue is exactly the
current field, one block per rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.pde.grid import Grid1D
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "stable_time_step",
    "gaussian_initial_condition",
    "heat_step_explicit",
    "heat_step_distributed",
    "HeatProblem1D",
]


def stable_time_step(h: float, alpha: float, safety: float = 0.9) -> float:
    """Largest stable forward-Euler step ``dt <= h^2 / (2 alpha)``, scaled."""
    check_positive(h, "h")
    check_positive(alpha, "alpha")
    check_positive(safety, "safety")
    return safety * h * h / (2.0 * alpha)


def gaussian_initial_condition(x: np.ndarray) -> np.ndarray:
    """A Gaussian bump (centre 0.5, width 0.1), the standard smooth
    initial condition."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-((x - 0.5) ** 2) / (2.0 * 0.1 * 0.1))


def heat_step_explicit(u: np.ndarray, dt: float, h: float, alpha: float) -> np.ndarray:
    """One forward-Euler step on a full (non-distributed) field with
    homogeneous Dirichlet boundaries."""
    u = np.asarray(u, dtype=np.float64)
    check_positive(dt, "dt")
    check_positive(h, "h")
    padded = np.empty(u.size + 2, dtype=np.float64)
    padded[0] = 0.0
    padded[-1] = 0.0
    padded[1:-1] = u
    laplacian = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / (h * h)
    return u + dt * alpha * laplacian


def heat_step_distributed(
    grid: Grid1D, u_local: np.ndarray, dt: float, alpha: float
) -> np.ndarray:
    """One forward-Euler step on this rank's block (halo exchange included)."""
    u_local = np.asarray(u_local, dtype=np.float64)
    left_ghost, right_ghost = grid.exchange_halos(u_local)
    padded = np.empty(u_local.size + 2, dtype=np.float64)
    padded[0] = left_ghost
    padded[-1] = right_ghost
    padded[1:-1] = u_local
    laplacian = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / (grid.h * grid.h)
    if grid.comm is not None:
        grid.comm.compute(5.0 * u_local.size)
    return u_local + dt * alpha * laplacian


@dataclass
class HeatProblem1D:
    """A sequential reference heat problem (used as the ground truth).

    Attributes
    ----------
    n_points:
        Number of interior grid points.
    alpha:
        Diffusivity.
    dt:
        Time step (defaults to the stable step).
    """

    n_points: int = 128
    alpha: float = 1.0
    dt: Optional[float] = None
    history: List[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        check_integer(self.n_points, "n_points")
        if self.n_points <= 0:
            raise ValueError("n_points must be positive")
        check_positive(self.alpha, "alpha")
        self.h = 1.0 / (self.n_points + 1)
        if self.dt is None:
            self.dt = stable_time_step(self.h, self.alpha)
        check_positive(self.dt, "dt")
        self.x = (np.arange(self.n_points) + 1) * self.h
        self.u = gaussian_initial_condition(self.x)

    def reset(self) -> None:
        """Restore the initial condition."""
        self.u = gaussian_initial_condition(self.x)
        self.history.clear()

    def step(self, n_steps: int = 1, *, record: bool = False) -> np.ndarray:
        """Advance the solution ``n_steps`` steps; returns the field."""
        check_integer(n_steps, "n_steps")
        for _ in range(n_steps):
            self.u = heat_step_explicit(self.u, self.dt, self.h, self.alpha)
            if record:
                self.history.append(self.u.copy())
        return self.u

    def run(self, n_steps: int) -> np.ndarray:
        """Reset and run ``n_steps`` steps from the initial condition."""
        self.reset()
        return self.step(n_steps)
