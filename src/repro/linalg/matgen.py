"""Model-problem matrix generators.

These are the standard discretizations used throughout the resilience
and Krylov literature, and hence in our experiments:

* :func:`poisson_1d`, :func:`poisson_2d`, :func:`poisson_3d` --
  finite-difference Laplacians with Dirichlet boundaries (SPD).
* :func:`convection_diffusion_2d` -- upwind-discretized
  convection-diffusion operator (nonsymmetric; the classic GMRES test
  problem).
* :func:`tridiagonal`, :func:`diagonally_dominant`, :func:`random_spd`
  -- synthetic matrices for unit tests and property-based tests.

All generators return :class:`~repro.linalg.csr.CsrMatrix`.

The deterministic generators (Poisson, convection-diffusion,
tridiagonal) are memoized: multi-trial experiments rebuild the same
operator dozens of times per campaign, and assembly is a pure function
of the parameters.  A cached matrix is handed out as a
:meth:`~repro.linalg.csr.CsrMatrix.copy`: the caller owns its ``data``
array and may overwrite it (fault injection!) without poisoning the
cache, but ``indptr``/``indices`` are shared with the cache and every
other caller and are read-only.  Writes to ``data`` must come before
the matrix's first matvec at or above the slab-plan size
(``csr._SLAB_MIN_ROWS`` rows): that matvec freezes ``data``, and a later
in-place write raises ``ValueError`` -- build a new matrix from the
changed values instead.  Use :func:`clear_matrix_cache` to drop the
memo.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple, Union

import numpy as np

from repro.linalg.csr import CsrMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "poisson_3d",
    "convection_diffusion_2d",
    "tridiagonal",
    "diagonally_dominant",
    "random_spd",
    "clear_matrix_cache",
    "matrix_cache_info",
]

_CACHE_MAXSIZE = 32
_cached_builders = []


def _memoize_matrix(builder):
    """LRU-cache a deterministic CsrMatrix generator.

    The wrapped function returns a defensive :meth:`CsrMatrix.copy` of
    the cached instance -- own values, shared pattern -- so in-place
    corruption of a returned matrix's ``data`` (the fault-injection
    experiments do exactly that) never leaks into later trials.
    """
    cached = functools.lru_cache(maxsize=_CACHE_MAXSIZE)(builder)
    _cached_builders.append(cached)

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        return cached(*args, **kwargs).copy()

    wrapper.cache_info = cached.cache_info
    return wrapper


def clear_matrix_cache() -> None:
    """Drop all memoized model-problem matrices."""
    for cached in _cached_builders:
        cached.cache_clear()


def matrix_cache_info() -> dict:
    """Per-generator ``lru_cache`` statistics (hits/misses/currsize)."""
    return {cached.__name__: cached.cache_info() for cached in _cached_builders}


@_memoize_matrix
def tridiagonal(n: int, lower: float, diag: float, upper: float) -> CsrMatrix:
    """General tridiagonal Toeplitz matrix of order ``n``."""
    check_integer(n, "n")
    if n <= 0:
        raise ValueError("n must be positive")
    rows, cols, vals = [], [], []
    for i in range(n):
        if i > 0:
            rows.append(i)
            cols.append(i - 1)
            vals.append(lower)
        rows.append(i)
        cols.append(i)
        vals.append(diag)
        if i < n - 1:
            rows.append(i)
            cols.append(i + 1)
            vals.append(upper)
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


@_memoize_matrix
def poisson_1d(n: int, *, scale: Optional[float] = None) -> CsrMatrix:
    """1-D Laplacian ``[-1, 2, -1]`` with Dirichlet boundaries.

    Parameters
    ----------
    n:
        Number of interior grid points.
    scale:
        Optional scalar multiplying the stencil; defaults to 1 (i.e.
        the matrix is not divided by h^2).
    """
    factor = 1.0 if scale is None else float(scale)
    return tridiagonal(n, -factor, 2.0 * factor, -factor)


def _grid_index_2d(i: int, j: int, ny: int) -> int:
    return i * ny + j


@_memoize_matrix
def poisson_2d(nx: int, ny: Optional[int] = None, *, scale: Optional[float] = None) -> CsrMatrix:
    """5-point 2-D Laplacian on an ``nx`` x ``ny`` interior grid (SPD)."""
    check_integer(nx, "nx")
    if ny is None:
        ny = nx
    check_integer(ny, "ny")
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    factor = 1.0 if scale is None else float(scale)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            idx = _grid_index_2d(i, j, ny)
            rows.append(idx)
            cols.append(idx)
            vals.append(4.0 * factor)
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny:
                    rows.append(idx)
                    cols.append(_grid_index_2d(ni, nj, ny))
                    vals.append(-1.0 * factor)
    n = nx * ny
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


@_memoize_matrix
def poisson_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None) -> CsrMatrix:
    """7-point 3-D Laplacian on an ``nx`` x ``ny`` x ``nz`` interior grid."""
    check_integer(nx, "nx")
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    check_integer(ny, "ny")
    check_integer(nz, "nz")
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError("grid dimensions must be positive")
    rows, cols, vals = [], [], []

    def index(i: int, j: int, k: int) -> int:
        return (i * ny + j) * nz + k

    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                idx = index(i, j, k)
                rows.append(idx)
                cols.append(idx)
                vals.append(6.0)
                for di, dj, dk in (
                    (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
                ):
                    ni, nj, nk = i + di, j + dj, k + dk
                    if 0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz:
                        rows.append(idx)
                        cols.append(index(ni, nj, nk))
                        vals.append(-1.0)
    n = nx * ny * nz
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


@_memoize_matrix
def convection_diffusion_2d(
    nx: int,
    ny: Optional[int] = None,
    *,
    peclet: float = 10.0,
    wind: Tuple[float, float] = (1.0, 1.0),
) -> CsrMatrix:
    """Upwind convection-diffusion operator on a 2-D grid (nonsymmetric).

    Discretizes ``-Δu + Pe * (w · ∇u)`` on the unit square with
    Dirichlet boundaries, central differences for diffusion and
    first-order upwind differences for convection.  Larger ``peclet``
    makes the matrix more nonsymmetric and GMRES convergence harder --
    the regime where restarted GMRES stagnation (and hence the value of
    reliable outer iterations) shows.
    """
    check_integer(nx, "nx")
    ny = nx if ny is None else ny
    check_integer(ny, "ny")
    check_positive(peclet, "peclet")
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    wx, wy = float(wind[0]), float(wind[1])
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            idx = _grid_index_2d(i, j, ny)
            diag = 2.0 / hx**2 + 2.0 / hy**2
            # Upwinding: the convection term uses the upstream neighbour.
            cx = peclet * wx / hx
            cy = peclet * wy / hy
            diag += abs(cx) + abs(cy)
            rows.append(idx)
            cols.append(idx)
            vals.append(diag)
            neighbors = [
                (-1, 0, -1.0 / hx**2 - (cx if cx > 0 else 0.0)),
                (1, 0, -1.0 / hx**2 + (cx if cx < 0 else 0.0)),
                (0, -1, -1.0 / hy**2 - (cy if cy > 0 else 0.0)),
                (0, 1, -1.0 / hy**2 + (cy if cy < 0 else 0.0)),
            ]
            for di, dj, value in neighbors:
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny:
                    rows.append(idx)
                    cols.append(_grid_index_2d(ni, nj, ny))
                    vals.append(value)
    n = nx * ny
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


def diagonally_dominant(
    n: int,
    density: float = 0.05,
    rng: Union[None, int, np.random.Generator] = None,
    *,
    dominance: float = 1.5,
) -> CsrMatrix:
    """Random strictly diagonally dominant matrix (guaranteed nonsingular)."""
    check_integer(n, "n")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    check_positive(dominance, "dominance")
    gen = as_generator(rng)
    n_offdiag = max(int(density * n * n) - n, 0)
    rows = gen.integers(0, n, size=n_offdiag)
    cols = gen.integers(0, n, size=n_offdiag)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    vals = gen.standard_normal(rows.size)
    dense_rowsums = np.zeros(n, dtype=np.float64)
    np.add.at(dense_rowsums, rows, np.abs(vals))
    diag_rows = np.arange(n)
    diag_vals = dominance * (dense_rowsums + 1.0)
    all_rows = np.concatenate([rows, diag_rows])
    all_cols = np.concatenate([cols, diag_rows])
    all_vals = np.concatenate([vals, diag_vals])
    return CsrMatrix.from_coo(all_rows, all_cols, all_vals, (n, n))


def random_spd(
    n: int,
    rng: Union[None, int, np.random.Generator] = None,
    *,
    condition: float = 100.0,
) -> CsrMatrix:
    """Dense-random SPD matrix with prescribed condition number.

    Built as ``Q diag(lambda) Q^T`` with a random orthogonal ``Q`` and
    logarithmically spaced eigenvalues in ``[1/condition, 1]``.
    Returned in CSR form for interface uniformity (it is actually
    dense); intended for small-n tests only.
    """
    check_integer(n, "n")
    if n <= 0:
        raise ValueError("n must be positive")
    check_positive(condition, "condition")
    gen = as_generator(rng)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eigenvalues = np.logspace(-np.log10(condition), 0.0, n)
    dense = (q * eigenvalues) @ q.T
    dense = 0.5 * (dense + dense.T)
    return CsrMatrix.from_dense(dense)
