"""The LFLR persistent store.

Each rank registers the state it would need to continue after losing a
process ("store specific data persistently for each MPI process",
paper §II-C).  The store keeps

* a bounded history of the rank's own snapshots (so ranks that have run
  slightly ahead can roll back to a globally consistent step), and
* a mirror of its **partner rank's** snapshots, received over the
  (simulated) network -- this is the neighbour redundancy that lets a
  replacement process rebuild the lost state without any global
  storage.

The store is a per-process object; mirroring to the partner uses an
explicit exchange so that it costs communication in the virtual-time
model and fails (visibly) if the partner is already dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.comm.base import BaseCommunicator, copy_payload, payload_nbytes
from repro.utils.validation import check_integer

__all__ = ["StoreEntry", "PersistentStore"]

_MIRROR_TAG = 201
_RESTORE_REPLY_TAG = 203


@dataclass
class StoreEntry:
    """One persisted snapshot: a step label plus a state dictionary."""

    step: int
    state: Dict[str, Any]

    def copy(self) -> "StoreEntry":
        """A copy whose state shares no mutable value with this one."""
        return StoreEntry(self.step, {key: copy_payload(v) for key, v in self.state.items()})


class PersistentStore:
    """Per-rank persistent storage with partner mirroring.

    Parameters
    ----------
    comm:
        The communicator of the owning rank.
    partner_offset:
        The partner holding this rank's redundant copy is
        ``(rank + partner_offset) % size``; the default of 1 gives the
        ring pattern typically used by neighbour-based checkpointing.
    history:
        Number of snapshots retained (per owner).  Must cover the
        maximum step skew between ranks at failure time; the LFLR heat
        driver keeps ranks within one step of each other, so small
        values suffice.
    """

    def __init__(self, comm: BaseCommunicator, *, partner_offset: int = 1, history: int = 4):
        check_integer(partner_offset, "partner_offset")
        check_integer(history, "history")
        if history <= 0:
            raise ValueError("history must be positive")
        if comm.size > 1 and partner_offset % comm.size == 0:
            raise ValueError("partner_offset must not map a rank onto itself")
        self.comm = comm
        self.partner_offset = int(partner_offset)
        self.history = int(history)
        self._own: List[StoreEntry] = []
        self._mirrored: Dict[int, List[StoreEntry]] = {}
        self.bytes_mirrored = 0

    # ------------------------------------------------------------------
    @property
    def partner(self) -> int:
        """Rank that holds this rank's redundant copy."""
        return (self.comm.rank + self.partner_offset) % self.comm.size

    @property
    def mirror_source(self) -> int:
        """Rank whose redundant copy this rank holds."""
        return (self.comm.rank - self.partner_offset) % self.comm.size

    # ------------------------------------------------------------------
    def persist(self, step: int, state: Dict[str, Any], *, mirror: bool = True) -> None:
        """Persist a snapshot locally and (by default) mirror it to the partner.

        Mirroring is a symmetric exchange: this rank sends its snapshot
        to its partner and receives its ``mirror_source``'s snapshot in
        the same call, so every rank ends the call holding exactly one
        remote copy per step.  With a single rank the mirror step is
        skipped (there is nowhere to put a redundant copy).
        """
        check_integer(step, "step")
        entry = StoreEntry(step=int(step), state=state).copy()
        self._own.append(entry)
        if len(self._own) > self.history:
            self._own.pop(0)
        if not mirror or self.comm.size == 1:
            return
        payload = {"step": entry.step, "state": entry.state, "owner": self.comm.rank}
        self.bytes_mirrored += payload_nbytes(payload.get("state"))
        received = self.comm.sendrecv(
            payload,
            dest=self.partner,
            source=self.mirror_source,
            sendtag=_MIRROR_TAG,
            recvtag=_MIRROR_TAG,
        )
        owner = int(received["owner"])
        mirrored = self._mirrored.setdefault(owner, [])
        mirrored.append(StoreEntry(step=int(received["step"]), state=received["state"]))
        if len(mirrored) > self.history:
            mirrored.pop(0)

    # ------------------------------------------------------------------
    def own_at_step(self, step: int) -> Optional[StoreEntry]:
        """Locally persisted snapshot with the given step label."""
        for entry in reversed(self._own):
            if entry.step == step:
                return entry.copy()
        return None

    # ------------------------------------------------------------------
    def mirrored_latest(self, owner: int) -> Optional[StoreEntry]:
        """Most recent mirrored snapshot of ``owner`` held here."""
        entries = self._mirrored.get(int(owner))
        if not entries:
            return None
        return entries[-1].copy()

    def mirrored_at_step(self, owner: int, step: int) -> Optional[StoreEntry]:
        """Mirrored snapshot of ``owner`` at a specific step, if held."""
        entries = self._mirrored.get(int(owner), [])
        for entry in reversed(entries):
            if entry.step == step:
                return entry.copy()
        return None

    # ------------------------------------------------------------------
    def reply_restore(self, requester: int, owner: int, step: Optional[int] = None) -> None:
        """Send the mirrored snapshot of ``owner`` to ``requester``."""
        entry = None
        if step is not None:
            entry = self.mirrored_at_step(owner, step)
        if entry is None:
            entry = self.mirrored_latest(owner)
        payload = None
        if entry is not None:
            payload = {"step": entry.step, "state": entry.state, "owner": owner}
        self.comm.send(payload, dest=requester, tag=_RESTORE_REPLY_TAG)

    def request_restore(self, holder: int) -> Optional[StoreEntry]:
        """Receive this rank's snapshot back from the rank holding its mirror.

        Used by a replacement process: its own store is empty (the old
        process died with it), so the redundant copy lives at
        ``holder`` -- normally ``self.partner`` of the *old* process,
        which equals this replacement's partner as well since the rank
        id is reused.
        """
        payload = self.comm.recv(source=holder, tag=_RESTORE_REPLY_TAG)
        if payload is None:
            return None
        entry = StoreEntry(step=int(payload["step"]), state=payload["state"])
        # Seed the local history so subsequent persists behave normally.
        self._own.append(entry.copy())
        return entry
