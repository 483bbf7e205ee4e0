"""SRP example: FT-GMRES under increasing fault rates.

Sweeps the per-operation fault probability of the unreliable region and
shows that the reliable outer iteration keeps converging while nearly
all the work stays in the cheap, unreliable region -- a miniature
version of experiment E6.

Run with:  python examples/ftgmres_selective_reliability.py
"""

import warnings

import numpy as np

from repro.krylov import ft_gmres
from repro.linalg import convection_diffusion_2d
from repro.reliability import resolve_faults
from repro.utils.tables import Table

if __name__ == "__main__":
    warnings.simplefilter("ignore", RuntimeWarning)
    matrix = convection_diffusion_2d(14, peclet=10.0)
    b = np.random.default_rng(7).standard_normal(matrix.n_rows)
    table = Table(["fault_prob", "converged", "outer_iters", "true_residual",
                   "unreliable_flops_pct", "faults_injected"],
                  title="FT-GMRES under increasing unreliable-region fault rates")
    for prob in (0.0, 0.02, 0.05, 0.1, 0.2):
        region = resolve_faults(f"bitflip:p={prob}").environment(seed=11)
        result = ft_gmres(matrix, b, tol=1e-8, region=region)
        residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b) / np.linalg.norm(b)
        table.add_row(prob, result.converged, result.iterations, residual,
                      100.0 * result.info["unreliable_fraction_flops"],
                      result.detected_faults)
    print(table.render())
