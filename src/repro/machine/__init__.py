"""Machine and performance models.

The paper's performance arguments (collectives limit scalability under
performance variability; checkpoint/restart efficiency collapses as the
system grows) are statements about *models* of extreme-scale machines,
not about any particular testbed.  This subpackage provides those
models:

* :mod:`repro.machine.model` -- :class:`MachineModel`: per-rank compute
  rate, network latency/bandwidth (the alpha-beta model) and hooks for
  the noise model; converts flop/byte counts into virtual seconds.
* :mod:`repro.machine.noise` -- performance variability: ECC correction
  stalls applied per rank per operation.
* :mod:`repro.machine.collective_cost` -- ``collective_time``, the one
  cost of a collective (binomial-tree / recursive-doubling latency
  terms growing with ``log2 P``) that every communicator charges and
  the RBSP scaling model prices its reductions with.
* :mod:`repro.machine.efficiency` -- analytic application-efficiency
  models used by experiment E7: Young/Daly checkpoint-restart
  efficiency versus an LFLR-style local-recovery efficiency.
"""

from repro.machine.model import MachineModel
from repro.machine.noise import NoiseModel, NoNoise, EccStallNoise
from repro.machine.collective_cost import collective_time
from repro.machine.efficiency import (
    daly_optimal_interval,
    cpr_efficiency,
    lflr_efficiency,
    efficiency_crossover_mtbf,
)

__all__ = [
    "MachineModel",
    "NoiseModel",
    "NoNoise",
    "EccStallNoise",
    "collective_time",
    "daly_optimal_interval",
    "cpr_efficiency",
    "lflr_efficiency",
    "efficiency_crossover_mtbf",
]
