"""Model-problem matrix generators.

These are the standard discretizations used throughout the resilience
and Krylov literature, and hence in our experiments:

* :func:`poisson_1d`, :func:`poisson_2d` -- finite-difference
  Laplacians with Dirichlet boundaries (SPD).
* :func:`convection_diffusion_2d` -- upwind-discretized
  convection-diffusion operator (nonsymmetric; the classic GMRES test
  problem).
* :func:`tridiagonal` -- constant-diagonal tridiagonal matrices.

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
from typing import Optional

from repro.linalg.csr import CsrMatrix
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "convection_diffusion_2d",
    "tridiagonal",
    "clear_matrix_cache",
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

    return wrapper


def clear_matrix_cache() -> None:
    """Drop all memoized model-problem matrices."""
    for cached in _cached_builders:
        cached.cache_clear()


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
def convection_diffusion_2d(
    nx: int,
    ny: Optional[int] = None,
    *,
    peclet: float = 10.0,
) -> CsrMatrix:
    """Upwind convection-diffusion operator on a 2-D grid (nonsymmetric).

    Discretizes ``-Δu + Pe * (∂u/∂x + ∂u/∂y)`` (wind ``(1, 1)``) on the
    unit square with Dirichlet boundaries, central differences for
    diffusion and first-order upwind differences for convection.
    Larger ``peclet`` makes the matrix more nonsymmetric and GMRES
    convergence harder -- the regime where restarted GMRES stagnation
    (and hence the value of reliable outer iterations) shows.
    """
    check_integer(nx, "nx")
    ny = nx if ny is None else ny
    check_integer(ny, "ny")
    check_positive(peclet, "peclet")
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    # Upwinding: with the wind along +x and +y the convection term
    # uses the lower neighbours only.
    cx = peclet / hx
    cy = peclet / hy
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            idx = _grid_index_2d(i, j, ny)
            diag = 2.0 / hx**2 + 2.0 / hy**2
            diag += cx + cy
            rows.append(idx)
            cols.append(idx)
            vals.append(diag)
            neighbors = [
                (-1, 0, -1.0 / hx**2 - cx),
                (1, 0, -1.0 / hx**2),
                (0, -1, -1.0 / hy**2 - cy),
                (0, 1, -1.0 / hy**2),
            ]
            for di, dj, value in neighbors:
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny:
                    rows.append(idx)
                    cols.append(_grid_index_2d(ni, nj, ny))
                    vals.append(value)
    n = nx * ny
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))
