"""Callers outside ``src/`` that nothing else in tier-1 runs.

* Every example script runs end to end in a fresh interpreter, so a
  moved name fails here instead of in a reader's terminal.
* ``repro.comm``, ``repro.comm.sim``, ``repro.comm.shmem`` and
  ``repro.lflr`` each import first in a fresh interpreter: the
  simulator's ``Comm`` subclasses the front end in ``repro.comm``, and
  ``repro.lflr`` builds on the simulator, so an import cycle between
  the two packages would fail here.
* The benchmark ledger's calls into ``src/`` -- ``unreliable(spec,
  seed=)``, ``.operator(f)``, ``.faults_injected()`` and ``ft_gmres``'s
  ``info["kernels"]["seconds"]["inner_solve"]`` -- are exercised through
  the ledger's own probe code, which only a ``--trace`` run would reach
  otherwise.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import convection_diffusion_2d

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "ftgmres_selective_reliability.py",
    "precond_selective_reliability.py",
    "campaign_sweep.py",
    "lflr_heat_equation.py",
    "pipelined_gmres_scaling.py",
    "sdc_detection_gmres.py",
])
def test_example_runs(script, tmp_path):
    env = _src_env()
    env["TMPDIR"] = str(tmp_path)  # campaign_sweep.py keeps its store there
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize(
    "module", ["repro.comm", "repro.comm.sim", "repro.comm.shmem", "repro.lflr"]
)
def test_package_imports_first(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=REPO_ROOT, env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def ledger_probes(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks" / "ledger"))
    import ledger_probes

    return ledger_probes


def test_ledger_spec_probes_reach_the_region(ledger_probes):
    out = {}
    ledger_probes.probe_specs(out, seed=7)
    assert out["reliability.unreliable_matvec_us.n64"] > 0
    assert out["reliability.injections"] > 0


def test_ledger_krylov_probe_runs(ledger_probes):
    # The ledger's one call into KrylovBasis.orthogonalize's method argument.
    out = {}
    ledger_probes.probe_krylov_ops(out, seed=7)
    rows = ["krylov.ops.cgs2_us.n64k20", "krylov.ops.cgs2_us.n16384k20",
            "krylov.ops.lincomb_us.n16384k40"]
    assert sorted(out) == sorted(rows)
    assert all(out[row] > 0 for row in rows)


def test_ft_gmres_reports_the_inner_solve_kernel():
    matrix = convection_diffusion_2d(8, peclet=10.0)
    b = np.random.default_rng(7).standard_normal(matrix.n_rows)
    result = default_solver_registry().get("ft_gmres").solve(matrix, b, tol=1e-8)
    assert result.converged
    assert result.info["kernels"]["seconds"]["inner_solve"] > 0
