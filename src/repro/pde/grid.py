"""1-D block domain decomposition with halo exchange.

Rank ``r`` owns a contiguous block of grid points of the unit interval;
each explicit time step needs one ghost value from each side, obtained
with a neighbour ``sendrecv`` -- the canonical nearest-neighbour
communication pattern whose *local* nature is what makes local recovery
(LFLR) possible in the first place: losing one rank invalidates only
its own block, and only its neighbours hold the redundant copy needed
to rebuild it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comm.base import BaseCommunicator
from repro.utils.validation import check_integer

__all__ = ["partition_interval", "Grid1D"]

_HALO_TAG_LEFT = 101
_HALO_TAG_RIGHT = 102


def partition_interval(n_points: int, n_ranks: int) -> List[Tuple[int, int]]:
    """Split ``n_points`` grid points into contiguous per-rank ranges."""
    check_integer(n_points, "n_points")
    check_integer(n_ranks, "n_ranks")
    if n_points <= 0 or n_ranks <= 0:
        raise ValueError("n_points and n_ranks must be positive")
    if n_points < n_ranks:
        raise ValueError("need at least one grid point per rank")
    base = n_points // n_ranks
    extra = n_points % n_ranks
    ranges = []
    start = 0
    for r in range(n_ranks):
        size = base + (1 if r < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class Grid1D:
    """This rank's block of a 1-D grid on ``[0, 1]`` with Dirichlet boundaries.

    Parameters
    ----------
    comm:
        The communicator (or ``None`` for a sequential grid spanning
        the whole domain).
    n_global:
        Total number of interior grid points.
    boundary_value:
        Dirichlet value used at both physical boundaries.
    """

    def __init__(
        self, comm: Optional[BaseCommunicator], n_global: int, *, boundary_value: float = 0.0
    ):
        check_integer(n_global, "n_global")
        if n_global <= 0:
            raise ValueError("n_global must be positive")
        self.comm = comm
        self.n_global = int(n_global)
        self.boundary_value = float(boundary_value)
        n_ranks = comm.size if comm is not None else 1
        rank = comm.rank if comm is not None else 0
        ranges = partition_interval(self.n_global, n_ranks)
        self.start, self.stop = ranges[rank]
        self.h = 1.0 / (self.n_global + 1)
        self.left_rank = rank - 1 if rank > 0 else None
        self.right_rank = rank + 1 if rank < n_ranks - 1 else None

    # ------------------------------------------------------------------
    @property
    def n_local(self) -> int:
        """Number of locally owned grid points."""
        return self.stop - self.start

    def local_coordinates(self) -> np.ndarray:
        """Physical x-coordinates of the locally owned points."""
        return (np.arange(self.start, self.stop) + 1) * self.h

    # ------------------------------------------------------------------
    def exchange_halos(self, u_local: np.ndarray) -> Tuple[float, float]:
        """Exchange boundary values with neighbours.

        Returns ``(left_ghost, right_ghost)``; physical boundaries use
        the Dirichlet value.  Communication goes through the simulated
        communicator and therefore participates in failure detection --
        a dead neighbour surfaces as
        :class:`~repro.comm.errors.RankFailedError` here.
        """
        u_local = np.asarray(u_local, dtype=np.float64)
        if u_local.size != self.n_local:
            raise ValueError("u_local has the wrong length for this rank's block")
        left_ghost = self.boundary_value
        right_ghost = self.boundary_value
        if self.comm is None:
            return left_ghost, right_ghost
        comm = self.comm
        # Exchange with the left neighbour: send my first value, receive
        # its last value.  Ordered to avoid send/recv cycles: even ranks
        # exchange right first, odd ranks left first.
        def exchange_with(neighbor: Optional[int], value: float, send_tag: int, recv_tag: int) -> Optional[float]:
            if neighbor is None:
                return None
            return comm.sendrecv(
                float(value), dest=neighbor, source=neighbor,
                sendtag=send_tag, recvtag=recv_tag,
            )

        if comm.rank % 2 == 0:
            right = exchange_with(self.right_rank, u_local[-1], _HALO_TAG_RIGHT, _HALO_TAG_LEFT)
            left = exchange_with(self.left_rank, u_local[0], _HALO_TAG_LEFT, _HALO_TAG_RIGHT)
        else:
            left = exchange_with(self.left_rank, u_local[0], _HALO_TAG_LEFT, _HALO_TAG_RIGHT)
            right = exchange_with(self.right_rank, u_local[-1], _HALO_TAG_RIGHT, _HALO_TAG_LEFT)
        if left is not None:
            left_ghost = left
        if right is not None:
            right_ghost = right
        return left_ghost, right_ghost

    def gather_field(self, u_local: np.ndarray) -> Optional[np.ndarray]:
        """Gather the full field on every rank (``None`` never returned)."""
        if self.comm is None:
            return np.asarray(u_local, dtype=np.float64).copy()
        pieces = self.comm.allgather(np.asarray(u_local, dtype=np.float64))
        return np.concatenate(pieces)
