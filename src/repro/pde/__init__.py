"""Structured-grid PDE substrate.

The LFLR and checkpoint/restart experiments of the paper are framed
around time-dependent PDE computations (paper §III-C).  This subpackage
provides the model problems:

* :mod:`repro.pde.grid` -- 1-D block domain decomposition with halo
  exchange over the simulated runtime.
* :mod:`repro.pde.heat` -- explicit (forward-Euler) heat equation:
  sequential reference solver and the distributed step kernel.
* :mod:`repro.pde.implicit` -- implicit (backward-Euler) heat equation
  solved with CG, the workload of the coarse-model recovery experiment.
"""

from repro.pde.grid import Grid1D, partition_interval
from repro.pde.heat import (
    HeatProblem1D,
    heat_step_explicit,
    heat_step_distributed,
    stable_time_step,
    gaussian_initial_condition,
)
from repro.pde.implicit import ImplicitHeatProblem1D, backward_euler_matrix

__all__ = [
    "Grid1D",
    "partition_interval",
    "HeatProblem1D",
    "heat_step_explicit",
    "heat_step_distributed",
    "stable_time_step",
    "gaussian_initial_condition",
    "ImplicitHeatProblem1D",
    "backward_euler_matrix",
]
