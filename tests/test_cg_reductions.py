"""Unpreconditioned CG takes ``||r||`` and ``(r, z)`` from one reduction.

Without a preconditioner ``z`` is ``r`` itself, so the ``(r, z)`` a CG
step needs is the squared norm its convergence test takes the root of
(:func:`repro.krylov.ops.squared_norm`).  Three checks hold that fusion:

* pinned bytes of ``residual_norms``, ``betas`` and ``x`` at the two
  reduced precisions, sequentially and through ``batch_solve``, plus a
  lockstep batch at fp64 -- a root taken in another dtype than the
  vector's moves the residual history without failing anything else;
* a Hypothesis property that compares ``cg`` and the lockstep engine
  with an in-test reference loop spelling the step with ``ops.norm``
  and ``ops.dot``, the way it was written before the fusion;
* the collectives a distributed solve issues, counted by wrapping the
  rank's communicator methods inside the rank program: 2 ``allreduce``
  and 1 ``allgather`` per unpreconditioned iteration, 3 + 1 with a
  Jacobi preconditioner, on both backends.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import resolve_backend
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.krylov import cg, ops
from repro.krylov.cg import cg_engine
from repro.krylov.engine import batch as batch_engine
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg import poisson_2d
from conftest import csr_from_dense

REGISTRY = default_solver_registry()


def _digest(result) -> str:
    """First 16 hex digits of the SHA-256 of the recorded bits."""
    h = hashlib.sha256()
    h.update(np.asarray(result.residual_norms, dtype=np.float64).tobytes())
    h.update(np.asarray(result.info["betas"], dtype=np.float64).tobytes())
    h.update(np.asarray(result.x, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _matrix():
    """``poisson_2d(8)`` with a diagonal shift fp16 cannot store exactly,
    so the two reduced precisions take different paths."""
    shift = np.random.default_rng(3).uniform(0.1, 1.0, 64)
    return csr_from_dense(poisson_2d(8).to_dense() + np.diag(shift))


def _rhs(n: int, count: int, seed: int = 57):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


# ----------------------------------------------------------------------
# Pinned bits
# ----------------------------------------------------------------------
#: ``cg`` on ``_matrix()`` with the first of ``_rhs(64, 3)``,
#: ``tol=1e-6``: the digests of the unfused step (``ops.norm`` then
#: ``ops.dot(r, copy of r)``), which the fused step must reproduce.
PINNED_SEQUENTIAL = {
    "fp32": "d5e4ed0f08484f59",
    "fp32:storage=fp16": "7ad51bcbc54af289",
}

#: The three lanes of ``_rhs(64, 3)`` through the lockstep engine (fp64).
PINNED_LOCKSTEP = ["e7a711df825b0d21", "c2c780b9888ec9fa", "fa0b9c925f7bce36"]


class TestPinnedBits:
    @pytest.mark.parametrize("precision", sorted(PINNED_SEQUENTIAL))
    def test_sequential(self, precision):
        matrix = _matrix()
        b = _rhs(matrix.n_rows, 3)[0]
        result = REGISTRY.get("cg").solve(matrix, b, precision=precision, tol=1e-6, maxiter=400)
        assert result.converged
        assert _digest(result) == PINNED_SEQUENTIAL[precision]

    @pytest.mark.parametrize("precision", sorted(PINNED_SEQUENTIAL))
    def test_three_lane_batch(self, precision):
        # A reduced precision sends the batch through the sequential
        # step lane by lane; the first lane is the sequential pin.
        matrix = _matrix()
        results = batch_solve(
            "cg", matrix, _rhs(matrix.n_rows, 3), precision=precision, tol=1e-6, maxiter=400
        )
        assert _digest(results[0]) == PINNED_SEQUENTIAL[precision]
        for b, result in zip(_rhs(matrix.n_rows, 3), results):
            solo = REGISTRY.get("cg").solve(matrix, b, precision=precision, tol=1e-6, maxiter=400)
            assert _digest(result) == _digest(solo)

    def test_lockstep_batch(self, force_lockstep):
        matrix = _matrix()
        lanes = [(cg_engine(matrix, tol=1e-6, maxiter=400), b, None) for b in _rhs(matrix.n_rows, 3)]
        results = batch_engine.run_cg_batch(lanes)
        assert [_digest(result) for result in results] == PINNED_LOCKSTEP


# ----------------------------------------------------------------------
# The fused step against the unfused reference loop
# ----------------------------------------------------------------------
def reference_cg(operator, b, *, tol: float, maxiter: int):
    """Unpreconditioned CG as written before the fusion: the convergence
    norm from ``ops.norm`` and ``(r, z)`` from ``ops.dot`` on a copy."""
    target = tol * ops.norm(b)
    x = ops.zeros_like(b)
    r = ops.xpby(b, -1.0, ops.matvec(operator, x))
    z = ops.copy_vector(r)
    p = ops.copy_vector(z)
    rz = ops.dot(r, z)
    residual = ops.norm(r)
    norms, alphas, betas = [residual], [], []
    converged, breakdown, iteration = residual <= target, False, 0
    while not converged and not breakdown and iteration < maxiter:
        ap = ops.matvec(operator, p)
        p_ap = ops.dot(p, ap)
        if p_ap <= 0.0 or not math.isfinite(p_ap):
            breakdown = True
            break
        alpha = rz / p_ap
        alphas.append(float(alpha))
        x = ops.xpby(x, float(alpha), p)
        r = ops.xpby(r, -float(alpha), ap)
        residual = ops.norm(r)
        iteration += 1
        norms.append(residual)
        if not math.isfinite(residual):
            breakdown = True
            break
        if residual <= target:
            converged = True
            break
        z = ops.copy_vector(r)
        rz_next = ops.dot(r, z)
        if not math.isfinite(rz_next):
            breakdown = True
            break
        beta = rz_next / rz
        betas.append(float(beta))
        rz = rz_next
        p = ops.xpby(z, float(beta), p)
    return x, norms, alphas, betas, converged, breakdown, iteration


def _assert_matches_reference(result, reference):
    x, norms, alphas, betas, converged, breakdown, iteration = reference
    assert result.residual_norms == norms
    assert result.info["alphas"] == alphas
    assert result.info["betas"] == betas
    assert (result.converged, result.breakdown, result.iterations) == (
        converged, breakdown, iteration,
    )
    assert np.asarray(result.x).tobytes() == np.asarray(x).tobytes()


@st.composite
def spd_systems(draw):
    n = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    shift = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    matrix = m.dot(m.T) + shift * np.eye(n)
    bs = [rng.standard_normal(n) for _ in range(3)]
    tol = draw(st.sampled_from([1e-2, 1e-6, 1e-12]))
    maxiter = draw(st.integers(1, 2 * n + 2))
    return matrix, bs, tol, maxiter


class TestFusedStepProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(system=spd_systems(), dtype=st.sampled_from([np.float64, np.float32]))
    def test_sequential_step_matches_reference(self, system, dtype):
        matrix, bs, tol, maxiter = system
        matrix, b = matrix.astype(dtype), bs[0].astype(dtype)
        result = cg(matrix, b, tol=tol, maxiter=maxiter)
        _assert_matches_reference(result, reference_cg(matrix, b, tol=tol, maxiter=maxiter))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=spd_systems())
    def test_lockstep_step_matches_reference(self, system):
        matrix, bs, tol, maxiter = system
        lanes = [(cg_engine(matrix, tol=tol, maxiter=maxiter), b, None) for b in bs]
        with mock.patch.object(batch_engine, "_CG_MIN_LANES", 1):
            results = batch_engine.run_cg_batch(lanes)
        for b, result in zip(bs, results):
            _assert_matches_reference(result, reference_cg(matrix, b, tol=tol, maxiter=maxiter))


# ----------------------------------------------------------------------
# Collectives per iteration on both backends
# ----------------------------------------------------------------------
COUNTED = ("allreduce", "iallreduce", "allgather", "bcast", "barrier")


def _counted_cg_program(comm, jacobi: bool, maxiter: int, tol: float):
    """Rank program: one distributed ``cg`` solve with this rank's
    collectives counted (the communicator's methods wrapped on the
    instance, after the operands are built)."""
    matrix = poisson_2d(10)
    b = np.random.default_rng(2013).standard_normal(matrix.n_rows)
    operator = DistributedRowMatrix.from_global(comm, matrix)
    rhs = DistributedVector.from_global(comm, b)
    preconditioner = None
    if jacobi:
        inverse = DistributedVector.from_global(comm, 1.0 / matrix.diagonal_values()).local

        def preconditioner(v):
            return DistributedVector.from_local_view(comm, v.local * inverse, v.global_size, v.offset)

    counts = Counter()
    for name in COUNTED:
        method = getattr(comm, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(comm, name, counted)
    result = cg(operator, rhs, tol=tol, maxiter=maxiter, preconditioner=preconditioner)
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "counts": {name: counts[name] for name in COUNTED},
    }


@pytest.mark.parametrize("backend", ["sim", "shmem"])
class TestCollectivesPerIteration:
    """``allreduce`` = per-iteration count x iterations + 2 (``||b||``
    for the target, the preamble's squared norm) + 1 for a
    preconditioner's preamble ``(r, z)``; ``allgather`` = iterations + 1
    (one halo exchange per operator application)."""

    @staticmethod
    def _run(backend, jacobi, maxiter, tol=1e-30):
        values = resolve_backend(f"{backend}:procs=2").launch(
            _counted_cg_program, jacobi, maxiter, tol, timeout=60.0
        )
        assert values[0] == values[1]  # every rank issues the same collectives
        return values[0]

    @pytest.mark.parametrize("maxiter", [5, 9])
    def test_unpreconditioned_budget(self, backend, maxiter):
        out = self._run(backend, False, maxiter)
        assert out["iterations"] == maxiter and not out["converged"]
        assert out["counts"] == {
            "allreduce": 2 * maxiter + 2, "iallreduce": 0,
            "allgather": maxiter + 1, "bcast": 0, "barrier": 0,
        }

    @pytest.mark.parametrize("maxiter", [5, 9])
    def test_jacobi_budget(self, backend, maxiter):
        out = self._run(backend, True, maxiter)
        assert out["iterations"] == maxiter and not out["converged"]
        assert out["counts"] == {
            "allreduce": 3 * maxiter + 3, "iallreduce": 0,
            "allgather": maxiter + 1, "bcast": 0, "barrier": 0,
        }

    def test_unpreconditioned_to_convergence(self, backend):
        # A converged solve stops after its convergence norm: no
        # reduction is left over for the step that did not happen.
        out = self._run(backend, False, 500, tol=1e-8)
        k = out["iterations"]
        assert out["converged"] and k > 10
        assert out["counts"]["allreduce"] == 2 * k + 2
        assert out["counts"]["allgather"] == k + 1
