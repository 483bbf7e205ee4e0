"""Shared pytest fixtures and options."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate tests/goldens/*.txt from the current drivers "
        "instead of asserting against them",
    )
    parser.addoption(
        "--update-parity",
        action="store_true",
        default=False,
        help="regenerate tests/data/engine_parity.json from the current "
        "solvers instead of asserting against it (see "
        "tests/test_engine_parity.py)",
    )


def pytest_configure(config):
    # An unexpected floating-point warning fails tier-1.  Overflow that
    # *is* an injected fault's expected effect is scoped with
    # ``np.errstate`` where the fault is injected (drivers, the sim
    # runtime's rank threads, or the test that injects by hand).
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether ``--update-goldens`` was passed (see tests/test_goldens.py)."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def update_parity(request) -> bool:
    """Whether ``--update-parity`` was passed (see tests/test_engine_parity.py)."""
    return request.config.getoption("--update-parity")

import scipy.sparse

from repro.krylov import registry as solver_registry
from repro.krylov.engine import batch as batch_engine
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import convection_diffusion_2d, poisson_1d, poisson_2d
from repro.machine.model import MachineModel


def csr_from_dense(dense) -> CsrMatrix:
    """The ``CsrMatrix`` of the nonzeros of ``dense``, as scipy stores them."""
    sparse = scipy.sparse.csr_array(np.asarray(dense, dtype=np.float64))
    return CsrMatrix(sparse.indptr, sparse.indices, sparse.data, sparse.shape)


@pytest.fixture
def force_lockstep(monkeypatch):
    """The lockstep routing constants at 1, the way the slab-path tests
    force a path: every ``batch_solve`` group of two or more
    lockstep-capable lanes takes the lockstep engine, and a CG batch
    keeps its last lanes there.  For the tests whose subject is the
    lockstep engine at 2-5 lanes, below the measured crossovers."""
    monkeypatch.setattr(solver_registry, "_GMRES_MIN_LANES", 1)
    monkeypatch.setattr(solver_registry, "_SDC_MIN_LANES", 1)
    monkeypatch.setattr(batch_engine, "_CG_MIN_LANES", 1)


@pytest.fixture
def rng():
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def poisson_small():
    """A small SPD Poisson matrix (10x10 grid -> n = 100)."""
    return poisson_2d(10)


@pytest.fixture
def poisson_tiny():
    """A tiny 1-D Poisson matrix (n = 12)."""
    return poisson_1d(12)


@pytest.fixture
def convdiff_small():
    """A small nonsymmetric convection-diffusion matrix."""
    return convection_diffusion_2d(8, peclet=8.0)


@pytest.fixture
def ideal_machine():
    """A noise-free machine model with zero latency."""
    return MachineModel.ideal()


@pytest.fixture
def fast_recovery_machine():
    """A machine model with small recovery overheads, for failure tests."""
    return MachineModel(
        flop_rate=1e9,
        latency=1e-7,
        bandwidth=1e9,
        local_recovery_overhead=1e-5,
        restart_overhead=1e-3,
    )
