"""Quickstart: the four resilience programming models in ~80 lines.

Runs a miniature tour of the toolkit:

1. SkP  -- detect an injected bit flip in a GMRES solve with cheap checks.
2. RBSP -- pipelined vs synchronous Krylov time per iteration as ranks grow.
3. LFLR -- kill a rank mid-way through a distributed heat solve and recover
           locally from the neighbour-mirrored persistent state.
4. SRP  -- solve with FT-GMRES: unreliable (fault-injected) inner solves
           wrapped in a reliable outer iteration.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.reliability import FailurePlan, resolve_faults
from repro.reliability.bitflip import flip_bit_array
from repro.krylov import ft_gmres
from repro.lflr import run_lflr_heat
from repro.linalg import poisson_2d
from repro.machine import EccStallNoise, MachineModel
from repro.rbsp import IterationTimeModel, scaling_study
from repro.skeptical import sdc_detecting_gmres


def demo_skeptical():
    print("== SkP: skeptical GMRES detects an injected exponent-bit flip ==")
    matrix = poisson_2d(16)
    b = np.random.default_rng(0).standard_normal(matrix.n_rows)

    def flip_once(state, done=[False]):
        if not done[0] and state.total_iteration == 6:
            flip_bit_array(np.asarray(state.basis[state.inner + 1]), 5, 61, inplace=True)
            done[0] = True

    result = sdc_detecting_gmres(matrix, b, tol=1e-8, iteration_hook=flip_once)
    residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b) / np.linalg.norm(b)
    print(f"  converged={result.converged}  detections={result.detected_faults}  "
          f"relative residual={residual:.2e}\n")


def demo_rbsp():
    print("== RBSP: hiding reductions behind work under ECC-stall noise ==")
    machine = MachineModel.leadership_class(noise=EccStallNoise(10.0, 50e-6, rng=0))
    model = IterationTimeModel(local_flops=2e5, n_reductions=3, pipeline_waves=1)
    print(scaling_study(machine, model, (16, 4096, 1048576)).render() + "\n")


def demo_lflr():
    print("== LFLR: losing a rank mid-run and recovering locally ==")
    machine = MachineModel(flop_rate=1e9, latency=1e-7, bandwidth=1e9,
                           local_recovery_overhead=1e-4)
    clean = run_lflr_heat(4, n_global=64, n_steps=40, machine=machine)
    plan = FailurePlan.single(clean.virtual_time * 0.5, 2)
    faulty = run_lflr_heat(4, n_global=64, n_steps=40, machine=machine,
                           failure_plan=plan)
    match = np.allclose(faulty.field, clean.field, atol=1e-13)
    print(f"  recoveries={faulty.n_recoveries}  rolled-back steps={faulty.steps_rolled_back}")
    print(f"  final field identical to the failure-free run: {match}\n")


def demo_srp():
    print("== SRP: FT-GMRES with an unreliable inner solver ==")
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    matrix = poisson_2d(16)
    b = np.random.default_rng(1).standard_normal(matrix.n_rows)
    region = resolve_faults("bitflip:p=0.1").environment(seed=3)
    result = ft_gmres(matrix, b, tol=1e-8, region=region)
    residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b) / np.linalg.norm(b)
    frac = result.info["unreliable_fraction_flops"]
    print(f"  converged={result.converged}  relative residual={residual:.2e}")
    print(f"  fraction of flops run unreliably: {frac:.1%}")
    print(f"  faults injected into the inner solves: {result.detected_faults}\n")


if __name__ == "__main__":
    demo_skeptical()
    demo_rbsp()
    demo_lflr()
    demo_srp()
