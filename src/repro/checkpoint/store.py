"""In-memory checkpoint store with an I/O cost model.

A global checkpoint stores the *entire* application state (all ranks'
blocks) to stable storage; the time that takes is governed by the
machine model's checkpoint bandwidth and is the quantity whose growth
with machine size dooms pure CPR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.comm.base import copy_payload, payload_nbytes
from repro.machine.model import MachineModel
from repro.utils.validation import check_integer

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass
class Checkpoint:
    """One global snapshot."""

    step: int
    state: Dict[str, Any]
    nbytes: int
    write_time: float


class CheckpointStore:
    """Stores global checkpoints and accounts for their I/O cost.

    Parameters
    ----------
    machine:
        Machine model supplying the checkpoint bandwidth.
    n_ranks:
        Number of ranks whose state a global checkpoint contains; the
        write time is ``total_bytes / (n_ranks * checkpoint_bandwidth)``
        assuming ranks write their shares in parallel.
    keep:
        Number of most recent checkpoints retained.
    """

    def __init__(self, machine: MachineModel, n_ranks: int = 1, *, keep: int = 2):
        check_integer(n_ranks, "n_ranks")
        check_integer(keep, "keep")
        if n_ranks <= 0 or keep <= 0:
            raise ValueError("n_ranks and keep must be positive")
        self.machine = machine
        self.n_ranks = int(n_ranks)
        self.keep = int(keep)
        self._checkpoints: List[Checkpoint] = []
        self.total_write_time = 0.0
        self.total_read_time = 0.0
        self.writes = 0
        self.reads = 0

    def write(self, step: int, state: Dict[str, Any]) -> Checkpoint:
        """Store a global checkpoint of ``state`` labelled with ``step``."""
        check_integer(step, "step")
        nbytes = payload_nbytes(state)
        per_rank = nbytes / self.n_ranks
        write_time = self.machine.checkpoint_time(per_rank)
        checkpoint = Checkpoint(
            step=int(step), state={key: copy_payload(value) for key, value in state.items()},
            nbytes=nbytes, write_time=write_time,
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep:
            self._checkpoints.pop(0)
        self.total_write_time += write_time
        self.writes += 1
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint, or ``None`` if nothing was written."""
        return self._checkpoints[-1] if self._checkpoints else None

    def read_latest(self) -> Optional[Checkpoint]:
        """Read back the most recent checkpoint (accounting restart I/O)."""
        checkpoint = self.latest()
        if checkpoint is None:
            return None
        per_rank = checkpoint.nbytes / self.n_ranks
        read_time = self.machine.checkpoint_time(per_rank)
        self.total_read_time += read_time
        self.reads += 1
        return Checkpoint(
            step=checkpoint.step,
            state={key: copy_payload(value) for key, value in checkpoint.state.items()},
            nbytes=checkpoint.nbytes,
            write_time=checkpoint.write_time,
        )

