"""Unpreconditioned CG takes ``||r||`` and ``(r, z)`` from one reduction.

Without a preconditioner ``z`` is ``r`` itself, so the ``(r, z)`` a CG
step needs is the squared norm its convergence test takes the root of
(:func:`repro.krylov.ops.squared_norm`).  Three checks hold that fusion:

* pinned bytes of ``residual_norms``, ``betas`` and ``x`` at the two
  reduced precisions, sequentially and through ``batch_solve``, plus a
  lockstep batch at fp64 -- a root taken in another dtype than the
  vector's moves the residual history without failing anything else;
* pinned bytes (alphas and stopping flags too) of small dense systems
  at fp64 and fp32 and in lockstep with staggered budgets: the bits CG
  gave before the fusion, written with ``ops.norm`` and ``ops.dot``;
* the collectives a distributed solve issues, counted by wrapping the
  rank's communicator methods inside the rank program: 2 ``allreduce``
  and 1 ``allgather`` per unpreconditioned iteration, 3 + 1 with a
  Jacobi preconditioner, on both backends.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.comm import resolve_backend
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.krylov import cg
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


def _spd_system(seed: int, n: int, shift: float):
    """``m m^T + shift I`` (indefinite for a large negative shift) and three right-hand sides."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m.dot(m.T) + shift * np.eye(n), [rng.standard_normal(n) for _ in range(3)]


def _full_digest(result) -> str:
    """:func:`_digest` plus the alphas and the stopping flags."""
    h = hashlib.sha256(_digest(result).encode())
    h.update(np.asarray(result.info["alphas"], dtype=np.float64).tobytes())
    h.update(repr((result.converged, result.breakdown, result.iterations)).encode())
    return h.hexdigest()[:16]


#: ``(seed, n, shift, tol, maxiter)`` -> full digests of ``cg`` on the
#: first right-hand side at fp64 and at fp32, and of the three lanes in
#: lockstep (fp64, lane ``i`` stopped at ``maxiter - 3 i``): one step,
#: a budget cut, staggered stops, an ill-conditioned system and an
#: indefinite one that breaks down at once.  The bits are those of CG
#: written before the fusion (``ops.norm`` for the convergence test,
#: ``ops.dot`` on a copy of ``r`` for ``(r, z)``).
PINNED_SMALL = {
    (1, 1, 1.0, 1e-12, 4): ("ff8b802ba090f01e", "89603c48076b2a27",
                            ["ff8b802ba090f01e", "870ccb0461c53786", "79a2396f3a6d17eb"]),
    (2, 6, 1e-3, 1e-12, 3): ("acdc04e5549fda29", "cf467978abc170b1",
                             ["acdc04e5549fda29", "2faec1e8b0c3d42c", "ec2557ca3cdea8fb"]),
    (3, 10, 1.0, 1e-6, 12): ("ab69ffbcf2df1c5f", "f620bc9acfe491b5",
                             ["ab69ffbcf2df1c5f", "cd2c62c4c62e4700", "efb33cc61d39a707"]),
    (4, 8, 10.0, 1e-2, 18): ("a42ae1efdfdc9959", "00cd4ecd20e9e617",
                             ["a42ae1efdfdc9959", "9696e09250594c6e", "ad2ed8b30571a92f"]),
    (5, 10, 1e-3, 1e-12, 14): ("60091829f3743c9e", "17f69cb49d4dde25",
                               ["60091829f3743c9e", "9bcac10742178cd8", "f89244344beb37e6"]),
    (6, 3, -100.0, 1e-6, 8): ("f5ca44475f85ff2b", "bd840ce6a80e01ae",
                              ["f5ca44475f85ff2b", "40eb69172272770c", "80c4e58a8378d569"]),
}


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

    @pytest.mark.parametrize("case", sorted(PINNED_SMALL))
    def test_small_systems(self, case, force_lockstep):
        seed, n, shift, tol, maxiter = case
        matrix, bs = _spd_system(seed, n, shift)
        solo = [_full_digest(cg(matrix.astype(dtype), bs[0].astype(dtype), tol=tol, maxiter=maxiter))
                for dtype in (np.float64, np.float32)]
        lanes = [(cg_engine(matrix, tol=tol, maxiter=max(maxiter - 3 * i, 1)), b, None)
                 for i, b in enumerate(bs)]
        lockstep = [_full_digest(result) for result in batch_engine.run_cg_batch(lanes)]
        assert (*solo, lockstep) == PINNED_SMALL[case]


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
