"""Cross-backend communicator conformance suite (PR 10's headline).

One parametrized contract, run against **every** registered
communicator backend (:mod:`repro.comm.registry`):

* point-to-point FIFO ordering and tag matching;
* collective correctness against an explicitly-ordered numpy
  reference (ascending-rank, left-to-right fold -- the reduction order
  every backend guarantees, making results *bit-identical*, not
  merely close);
* deadlock-freedom: a mismatched program raises the simulator's
  :class:`~repro.comm.errors.SimDeadlockError` (or its backend
  subclass :class:`~repro.comm.errors.CommTimeoutError`) instead of
  hanging;
* fault-injection observability: the same ``FaultSpec`` strings mean
  the same thing everywhere -- ``proc_fail`` kills a rank (virtually
  on sim, via real SIGKILL on shmem) and survivors observe
  :class:`~repro.comm.errors.ProcFailure`; ``msg_corrupt`` draws the
  identical corruption stream on every backend for the same
  ``fault_seed``.

Plus the differential gate the tentpole demands: the E3 (CG) and E6
(GMRES) distributed anchors run on sim and on shmem, and their
residual-norm histories must agree.  Both backends complete
collectives with the front end's one rule
(``repro.comm.base.complete_collective``, an ascending-rank,
left-to-right fold), and the row-block partition, allgather ordering
and local kernels are shared code -- so every floating-point operation
happens in the same order and the comparison is **exact** (``==`` on
every history entry).

Satellites riding along: hypothesis property tests for the collectives
(random shapes, fp64/fp32, 2-3 ranks), the shmem chaos soak (40
random mid-collective SIGKILLs must surface as ``ProcFailure`` on
survivors, never hang), and the process-safety scan of ``src/repro``
(one fork, no queues or pools, no untimed waits).

PR 18 (the message path made cheap) adds the safety properties that
must survive it, per backend -- a poisoned collective raises the same
typed error on every rank at once, a peer killed while this rank is
*blocked* on it is noticed at once, a mismatched program times out on
time, nobody ever aliases anybody's arrays -- and the cost *shape* of
the shmem path as counts, never timings: no selector per message, no
sleep per launch.

The front-end cases keep the communicator one implementation: the
front end declares the nine operations of ``COMM_SURFACE`` and both
backends take them with the declared parameters, both backends
subclass ``BaseCommunicator`` and define none of the collective forms,
every rank on both backends charges a collective the same program time
(computed once per key), and both launchers refuse the same bad rank
counts and failures of ranks the job does not have.

The wire-format cases pin what an array looks like on arrival, on every
backend: one table of dtypes, layouts and sizes either side of the
segment threshold, each delivered equal, writable, C-contiguous and
unaliased; object and structured arrays above the threshold intact;
plain float64 traffic never handed to ``pickle`` as an array on shmem;
and the benchmark's four distributed solves equal on sim and shmem.
"""

from __future__ import annotations

import ast
import functools
import inspect
import io
import os
import pathlib
import pickle
import selectors
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiprocessing.connection

from repro.comm import (
    BaseCommunicator,
    CommSpec,
    CommTimeoutError,
    ProcFailure,
    default_backend_registry,
    resolve_backend,
)
from repro.comm import base as comm_base
from repro.comm import shmem
from repro.comm.errors import SimDeadlockError
from repro.comm.ops import MAX, SUM
from repro.experiments import backend_probe
from repro.machine.collective_cost import collective_time
from repro.machine.model import MachineModel
from repro.comm.sim import Comm
from repro.reliability.process import FailurePlan
from test_layers import _within

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every registered backend.
BACKENDS = default_backend_registry().names()


def launch(backend: str, procs: int, func, *args, timeout: float = 30.0, **kwargs):
    """Run ``func`` on ``backend`` with ``procs`` ranks (uniform shim)."""
    return resolve_backend(f"{backend}:procs={procs}").launch(
        func, *args, timeout=timeout, **kwargs
    )


def ordered_fold(ufunc, contributions):
    """The reference reduction: ascending-rank, left-to-right NumPy fold."""
    return functools.reduce(ufunc, contributions)


# ----------------------------------------------------------------------
# Rank functions (module level so every backend can run them)
# ----------------------------------------------------------------------
def _identity_program(comm):
    assert isinstance(comm, BaseCommunicator)
    return (comm.rank, comm.size, comm.alive_ranks(), comm.is_alive(comm.rank))


def _fifo_program(comm, n_messages):
    if comm.rank == 0:
        for i in range(n_messages):
            comm.send(("msg", i), 1, tag=5)
        return "sent"
    if comm.rank == 1:
        return [comm.recv(0, tag=5)[1] for _ in range(n_messages)]
    return "idle"


def _tag_program(comm):
    if comm.rank == 0:
        comm.send("first-sent", 1, tag=1)
        comm.send("second-sent", 1, tag=2)
        return "sent"
    if comm.rank == 1:
        # Receive against arrival order: tag matching must buffer the
        # tag-1 message while the tag-2 receive completes.
        second = comm.recv(0, tag=2)
        first = comm.recv(0, tag=1)
        return (second, first)
    return "idle"


def _ring_program(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    return comm.sendrecv(comm.rank, right, left)


def _collectives_program(comm, values):
    mine = values[comm.rank]
    out = {
        "allreduce_sum": comm.allreduce(mine),
        "allreduce_max": comm.allreduce(mine, op=MAX),
        "bcast": comm.bcast(("payload", 7) if comm.rank == 0 else None),
        "allgather": comm.allgather(comm.rank * 10),
    }
    comm.barrier()
    return out


def _nonblocking_program(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    sent = comm.isend(("ring", comm.rank), right, tag=3)
    reduced = comm.iallreduce(float(comm.rank))
    received = comm.recv(left, tag=3)
    return (sent.wait(), received[1], reduced.wait())


def _mismatch_program(comm):
    # Nobody ever sends on tag 9: every receive must fail fast, on
    # every backend, rather than hang the suite.  On shmem the verdict
    # may reach a rank directly (its own bounded wait expired) or as a
    # cascade (the peer broke out first, so the wait observes a
    # departed rank) -- both are loud, neither is a hang.
    try:
        comm.recv((comm.rank + 1) % comm.size, tag=9)
        return "received"
    except SimDeadlockError:
        return "timeout"
    except ProcFailure:
        return "cascaded"


def _survivor_program(comm, victim):
    comm.advance(1.0)  # crosses the victim's scheduled failure time
    try:
        comm.allreduce(1.0)
    except ProcFailure as exc:
        assert victim in exc.failed_ranks
        assert not comm.is_alive(victim)
        return ("detected", sorted(exc.failed_ranks))
    return "completed"


def _liveness_program(comm, victim):
    comm.advance(1.0)  # crosses the victim's scheduled failure time
    try:
        comm.allreduce(1.0)
    except ProcFailure:
        pass
    return (
        sorted(comm.alive_ranks()),
        sorted(comm.dead_ranks()),
        [comm.is_alive(rank) for rank in range(comm.size)],
    )


def _corrupt_p2p_program(comm, n):
    if comm.rank == 0:
        comm.send(np.ones(n), 1, tag=4)
        return "sent"
    if comm.rank == 1:
        return comm.recv(0, tag=4)
    return "idle"


def _property_allreduce_program(comm, contributions, op_name):
    op = {"SUM": SUM, "MAX": MAX}[op_name]
    return comm.allreduce(contributions[comm.rank], op=op)


def _property_bcast_program(comm, payload, root):
    return comm.bcast(payload if comm.rank == root else None, root=root)


def _chaos_program(comm, steps, step_time):
    # Mixed collectives with logical-time progress; any iteration can
    # be the one the victim's SIGKILL lands in.
    completed = 0
    try:
        for step in range(steps):
            comm.advance(step_time)
            comm.allreduce(np.full(8, float(comm.rank + step)))
            comm.barrier()
            completed += 1
    except ProcFailure as exc:
        return ("detected", sorted(exc.failed_ranks), completed)
    return ("completed", [], completed)


def _poisoned_allreduce_program(comm):
    start = time.monotonic()
    try:
        comm.allreduce(np.ones(2 + comm.rank))  # shapes (2,) and (3,): no fold
        return ("no error", 0.0)
    except Exception as exc:  # noqa: BLE001 - the type is what is asserted
        return (type(exc).__name__, time.monotonic() - start)


def _blocked_on_victim_program(comm, victim, operation, delay):
    if comm.rank == victim:
        time.sleep(delay)  # let every survivor block on us first
        comm.advance(1.0)  # crosses the scheduled failure: dies here
        return "survived"
    start = time.monotonic()
    try:
        if operation == "recv":
            comm.recv(victim, tag=3)
        else:
            comm.allreduce(np.ones(4))
    except ProcFailure as exc:
        return (sorted(exc.failed_ranks), time.monotonic() - start)
    return "completed"


def _aliasing_program(comm):
    """Mutate inputs after sending and outputs after receiving.

    Returns, per operation, what this rank holds *after* every rank has
    scribbled over its own input and over everything it received.
    """
    rank, held = comm.rank, {}
    mine = np.full(4, float(rank + 1))
    if rank == 0:
        comm.send(mine, 1, tag=8)
        mine[:] = -7.0  # after the send: must never reach rank 1
        comm.barrier()
    else:
        comm.barrier()  # receive only once the sender has scribbled
        if rank == 1:
            held["recv"] = comm.recv(0, tag=8)
    for name in ("allreduce", "allgather", "bcast"):
        mine = np.full(4, float(rank + 1))
        out = getattr(comm, name)(mine)
        mine[:] = -7.0
        comm.barrier()
        for array in out if isinstance(out, list) else [out]:
            array += 100.0 * (rank + 1)
        comm.barrier()
        held[name] = (out, mine)
    return held


def _corrupt_keeps_sender_program(comm, n):
    if comm.rank == 0:
        mine = np.ones(n)
        comm.send(mine, 1, tag=4)
        return mine
    return comm.recv(0, tag=4)


def _threshold_allreduce_program(comm, n):
    return comm.allreduce(np.arange(n, dtype=np.float64) * (comm.rank + 1) + 0.1)


#: Entries into the stdlib's per-call waiting machinery, counted in
#: whichever process runs the spies (ranks inherit them through fork).
_SPY = {"wait": 0, "select": 0}


def _fifty_collectives_program(comm):
    before = dict(_SPY)
    for step in range(25):
        comm.allreduce(float(step + comm.rank))
        comm.allgather(np.full(8, float(step)))
    return {name: _SPY[name] - before[name] for name in _SPY}


def _pid_program(comm):
    return os.getpid()


#: A 1 MiB payload: the cost model's bandwidth term dominates its latency.
_BIG = np.ones(1 << 17)


def _uneven_collective_program(comm, kind):
    """One collective whose contributions differ in size; the rank's time."""
    if kind == "bcast":
        comm.bcast(_BIG if comm.rank == 0 else None)
    elif kind == "allreduce":
        comm.allreduce(_BIG if comm.rank == 0 else 0.0)
    else:
        comm.allgather(_BIG if comm.rank == 0 else _BIG[:8])
    return comm.now()


#: The wire-format table: every dtype a raw frame carries, in every
#: layout, below and above the segment threshold, delivered by a p2p
#: send, bare as a collective's result (``bcast``) and inside a list
#: (``allgather``).  0-d and empty arrays have no "above".
_WIRE_CASES = [
    (dtype, layout, big, mode)
    for dtype in ("bool", "int32", "uint8", "float32", "float64", "complex128", ">f8")
    for layout in ("0-d", "empty", "flat", "fortran", "strided")
    for big in ((False,) if layout in ("0-d", "empty") else (False, True))
    for mode in ("p2p", "bcast", "allgather")
]


def _wire_array(dtype, layout, big):
    """A fresh payload of one wire-format case; element 0 is never zero."""
    dtype = np.dtype(dtype)
    n = (shmem.SHM_THRESHOLD_BYTES // dtype.itemsize // 8 + 1) * 8 if big else 24
    ramp = np.arange(2 * n if layout == "strided" else n) % 5 + 1
    if dtype.kind == "b":
        ramp = ramp % 3 != 2
    elif dtype.kind == "c":
        ramp = ramp * (1 + 1j)
    values = ramp.astype(dtype)
    if layout == "0-d":
        return np.array(values[0], dtype=dtype)
    if layout == "empty":
        return np.empty((0, 3), dtype=dtype)
    if layout == "fortran":
        return np.asfortranarray(values.reshape(-1, 8))
    return values[::2] if layout == "strided" else values


def _wire_program(comm, cases):
    """Deliver every wire-format case from rank 0; report facts per piece.

    Every rank scribbles over its own payload right after the
    operation, so a delivered array aliasing a sender's no longer
    equals a fresh copy by the time it is checked.
    """
    facts = {}
    for case in cases:
        dtype, layout, big, mode = case
        sent = _wire_array(dtype, layout, big)
        if mode == "p2p":
            if comm.rank == 0:
                comm.send(sent, 1, tag=6)
            pieces = [comm.recv(0, tag=6)] if comm.rank == 1 else []
        elif mode == "bcast":
            pieces = [comm.bcast(sent if comm.rank == 0 else None)]
        else:
            pieces = comm.allgather(sent)
        sent[...] = 0
        comm.barrier()
        expected = _wire_array(dtype, layout, big)
        facts[case] = [
            (
                type(out) is np.ndarray,
                out.dtype == expected.dtype,
                out.shape == expected.shape,
                np.array_equal(out, expected),
                out.flags.writeable,
                out.flags.c_contiguous,
                not np.shares_memory(out, sent),
            )
            for out in pieces
        ]
    return facts


def _big_payload(kind):
    """5 000 elements of a non-numeric dtype: above the segment threshold."""
    n = 5000
    if kind == "object":
        return np.array([{"i": i, "name": f"n{i}"} for i in range(n)], dtype=object)
    out = np.zeros(n, dtype=[("a", "<f8"), ("b", "<i4")])
    out["a"] = np.arange(n) * 0.5
    out["b"] = np.arange(n)
    return out


def _big_payload_program(comm, kind):
    if comm.rank == 0:
        payload = _big_payload(kind)
        assert payload.nbytes >= shmem.SHM_THRESHOLD_BYTES
        comm.send(payload, 1, tag=7)
        return None
    return comm.recv(0, tag=7)


#: ndarrays handed to ``pickle.dumps`` in whichever process runs the spy.
_PICKLED = {"arrays": 0}


class _ArraySpy(pickle.Pickler):
    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            _PICKLED["arrays"] += 1
        return NotImplemented  # pickle it as usual


def _spying_dumps(obj, protocol=None, **kwargs):
    buffer = io.BytesIO()
    _ArraySpy(buffer, protocol, **kwargs).dump(obj)
    return buffer.getvalue()


def _float_traffic_program(comm):
    """``dist_solves``-shaped float64 traffic, then an object-array control."""
    before = _PICKLED["arrays"]
    piece = np.full(512, float(comm.rank))
    peer = 1 - comm.rank
    for _ in range(5):
        comm.allgather(piece)
        comm.allreduce(piece[:3])
        comm.bcast(piece if comm.rank == 0 else None)
        comm.sendrecv(piece, peer, peer)
    comm.allgather(np.ones(shmem.SHM_THRESHOLD_BYTES // 8))  # the segment path
    floats = _PICKLED["arrays"] - before
    comm.allgather(np.array([{"rank": comm.rank}], dtype=object))
    return floats, _PICKLED["arrays"] - before - floats


# ----------------------------------------------------------------------
# The contract, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_identity_and_liveness(self, backend):
        values = launch(backend, 3, _identity_program)
        assert values == [(r, 3, [0, 1, 2], True) for r in range(3)]

    def test_p2p_fifo_ordering(self, backend):
        values = launch(backend, 3, _fifo_program, 8)
        assert values[1] == list(range(8))

    def test_tag_matching_buffers_out_of_order(self, backend):
        values = launch(backend, 2, _tag_program)
        assert values[1] == ("second-sent", "first-sent")

    def test_sendrecv_ring(self, backend):
        for procs in (2, 4):
            values = launch(backend, procs, _ring_program)
            assert values == [(r - 1) % procs for r in range(procs)]

    def test_collectives_match_ordered_numpy_reference(self, backend):
        rng = np.random.default_rng(1234)
        procs = 4
        values = [rng.standard_normal(16) for _ in range(procs)]
        results = launch(backend, procs, _collectives_program, values)
        ref_sum = ordered_fold(np.add, values)
        ref_max = ordered_fold(np.maximum, values)
        for rank, out in enumerate(results):
            # Bit-identical, not approximately equal: ordered backends
            # promise the exact ascending-rank fold.
            assert np.array_equal(out["allreduce_sum"], ref_sum)
            assert np.array_equal(out["allreduce_max"], ref_max)
            assert out["bcast"] == ("payload", 7)
            assert out["allgather"] == [r * 10 for r in range(procs)]

    def test_single_rank_degenerate_collectives(self, backend):
        values = launch(backend, 1, _collectives_program, [np.arange(4.0)])
        out = values[0]
        assert np.array_equal(out["allreduce_sum"], np.arange(4.0))
        assert out["allgather"] == [0]

    def test_isend_and_iallreduce_complete_around_a_recv(self, backend):
        procs = 3
        results = launch(backend, procs, _nonblocking_program)
        for rank, (sent, ring_from, total) in enumerate(results):
            assert sent is None
            assert ring_from == (rank - 1) % procs
            assert total == sum(range(procs))

    def test_deadlock_freedom_under_timeout(self, backend):
        # The simulator decides deadlock from its own state, at default
        # settings; shmem's verdict is a bounded wait, so it runs a short one.
        bound = {"sim": {}, "shmem": {"timeout": 0.2}}[backend]
        start = time.monotonic()
        values = launch(backend, 2, _mismatch_program, **bound)
        # On time, launch and teardown included: the verdict must not
        # wait for the end of a polling slice or a second deadline.
        assert time.monotonic() - start <= bound.get("timeout", 0.0) + 0.5
        assert "timeout" in values
        assert "received" not in values
        assert set(values) <= {"timeout", "cascaded"}
        if backend == "sim":  # every blocked rank hears the verdict
            assert values == ["timeout", "timeout"]

    def test_collective_raising_at_completion_poisons_every_rank(self, backend):
        """Default timeouts: every rank raises at once, nobody waits."""
        values = launch(backend, 2, _poisoned_allreduce_program)
        assert [name for name, _ in values] == ["ValueError", "ValueError"]
        assert all(elapsed < 1.0 for _, elapsed in values)

    @pytest.mark.parametrize("operation", ["recv", "allreduce"])
    @pytest.mark.parametrize("victim", [0, 1])
    def test_peer_killed_while_we_are_blocked_on_it(self, backend, victim, operation):
        """The hang-up must wake a blocked wait, not the deadline."""
        delay = 0.3
        values = launch(
            backend, 3, _blocked_on_victim_program, victim, operation, delay,
            faults=f"proc_fail:times=0.5,ranks={victim}",
        )
        assert values[victim] is None
        for rank in set(range(3)) - {victim}:
            failed, elapsed = values[rank]
            assert failed == [victim]
            assert elapsed < 1.0

    def test_nobody_aliases_anybody(self, backend):
        procs = 3
        values = launch(backend, procs, _aliasing_program)
        ones = np.ones(4)
        assert np.array_equal(values[1].pop("recv"), ones)
        total = sum(range(1, procs + 1))
        for rank, held in enumerate(values):
            bump = 100.0 * (rank + 1)
            expected = {
                "allreduce": total * ones + bump,
                "allgather": [(r + 1) * ones + bump for r in range(procs)],
                "bcast": ones + bump,
            }
            for name, (out, mine) in held.items():
                # Own input: scribbled by its owner only.  Output: the
                # result plus this rank's own bump, nobody else's.
                assert np.array_equal(mine, -7.0 * ones), (name, rank)
                assert np.array_equal(out, expected[name]), (name, rank)

    def test_msg_corrupt_never_touches_sender_state(self, backend):
        sent, received = launch(
            backend, 2, _corrupt_keeps_sender_program, 64,
            faults="msg_corrupt:p=1", fault_seed=99,
        )
        assert np.array_equal(sent, np.ones(64))
        assert not np.array_equal(received, np.ones(64))

    @pytest.mark.parametrize("nbytes", [32760, 32768])
    def test_array_allreduce_either_side_of_the_segment_threshold(
        self, backend, nbytes
    ):
        assert nbytes <= shmem.SHM_THRESHOLD_BYTES < nbytes + 16
        n, procs = nbytes // 8, 3
        reference = ordered_fold(
            np.add,
            [np.arange(n, dtype=np.float64) * (r + 1) + 0.1 for r in range(procs)],
        )
        for out in launch(backend, procs, _threshold_allreduce_program, n):
            assert np.array_equal(out, reference)

    def test_wire_format_table(self, backend):
        """Every case arrives equal, writable, C-contiguous and unaliased."""
        values = launch(backend, 2, _wire_program, _WIRE_CASES)
        assert len(values[1]) == len(_WIRE_CASES)
        wrong = {
            (rank,) + case: facts
            for rank, held in enumerate(values)
            for case, pieces in held.items()
            for facts in pieces
            if not all(facts)
        }
        assert wrong == {}

    @pytest.mark.parametrize("kind", ["object", "structured"])
    def test_non_numeric_arrays_above_the_threshold_arrive_intact(self, backend, kind):
        """Object and structured arrays are pickled, never staged as raw bytes."""
        received = launch(backend, 2, _big_payload_program, kind)[1]
        expected = _big_payload(kind)
        assert received.dtype == expected.dtype
        assert received.tolist() == expected.tolist()

    def test_proc_fail_surfaces_as_procfailure_on_survivors(self, backend):
        victim = 1
        values = launch(
            backend, 3, _survivor_program, victim,
            faults=f"proc_fail:times=0.5,ranks={victim}",
        )
        assert values[victim] is None  # the dead rank reports nothing
        for rank in (0, 2):
            assert values[rank] == ("detected", [victim])

    def test_survivors_agree_on_who_is_dead(self, backend):
        victim = 1
        values = launch(
            backend, 3, _liveness_program, victim,
            faults=f"proc_fail:times=0.5,ranks={victim}",
        )
        assert values[victim] is None
        for rank in (0, 2):
            assert values[rank] == ([0, 2], [victim], [True, False, True])

    def test_measure_collectives_times_every_kind_and_size(self, backend):
        timings = backend_probe.measure_collectives(
            f"{backend}:procs=2", nbytes_list=(64, 4096), iterations=2
        )
        assert set(timings) == {"barrier", "allreduce", "bcast"}
        for per_size in timings.values():
            assert set(per_size) == {64, 4096}
            assert all(np.isfinite(t) and t > 0.0 for t in per_size.values())


# ----------------------------------------------------------------------
# Cross-backend fault-spec equivalence
# ----------------------------------------------------------------------
class TestCrossBackend:
    def test_msg_corrupt_draws_identical_stream(self):
        """``msg_corrupt`` with one seed corrupts identically everywhere.

        Both backends build the corruptor from the same factory with
        the same per-rank stream name (``messages/0``), so the first
        p2p send of rank 0 consumes the same RNG draws: the corrupted
        payload that arrives at rank 1 must be bit-identical.
        """
        received = {}
        for backend in ("sim", "shmem"):
            values = launch(
                backend, 2, _corrupt_p2p_program, 64,
                faults="msg_corrupt:p=1", fault_seed=99,
            )
            received[backend] = values[1]
        assert received["sim"].dtype == received["shmem"].dtype
        assert np.array_equal(received["sim"], received["shmem"])
        # And the corruption actually happened (p=1).
        assert not np.array_equal(received["sim"], np.ones(64))

    def test_e3_differential_cg_histories_agree(self):
        """The E3 distributed CG anchor agrees sim-vs-shmem.

        Exact comparison: see the module docstring for why ordered
        reductions make this bit-identical rather than merely close.
        """
        histories = {
            backend: backend_probe.distributed_solve(
                f"{backend}:procs=4", "cg", grid=10, tol=1e-8, seed=2013
            )
            for backend in ("sim", "shmem")
        }
        _assert_histories_agree(histories["sim"], histories["shmem"])

    def test_e6_differential_gmres_histories_agree(self):
        """The E6 distributed GMRES anchor agrees sim-vs-shmem."""
        histories = {
            backend: backend_probe.distributed_solve(
                f"{backend}:procs=4", "gmres", grid=8, tol=1e-8,
                maxiter=400, seed=2013, restart=15,
            )
            for backend in ("sim", "shmem")
        }
        _assert_histories_agree(histories["sim"], histories["shmem"])


    @pytest.mark.parametrize(
        "kind, nbytes",
        [("bcast", _BIG.nbytes), ("allreduce", _BIG.nbytes), ("allgather", _BIG.nbytes)],
    )
    def test_collective_time_is_one_rule_on_every_rank(self, kind, nbytes):
        """Every rank on both backends charges the largest contribution."""
        machine = MachineModel(flop_rate=5.0e9, latency=2.0e-6, bandwidth=5.0e9)
        expected = collective_time(machine, 2, nbytes)
        for backend in ("sim", "shmem"):
            times = launch(backend, 2, _uneven_collective_program, kind, machine=machine)
            assert times == [expected, expected], backend

    @pytest.mark.parametrize("procs", [2, 3, 4])
    @pytest.mark.parametrize("solver", ["cg", "pipelined_cg", "gmres"])
    def test_residual_histories_equal_at_every_rank_count(self, solver, procs):
        histories = [
            backend_probe.distributed_solve(
                f"{backend}:procs={procs}", solver, grid=8, tol=1e-8, seed=18
            )
            for backend in ("sim", "shmem")
        ]
        assert histories[0]["converged"]
        _assert_histories_agree(*histories)

    @pytest.mark.parametrize(
        "solver, grid", [("cg", 32), ("pipelined_cg", 32), ("gmres", 16), ("cg", 64)]
    )
    def test_dist_solves_shapes_give_equal_histories(self, solver, grid):
        """The benchmark's four solves, whose 1-16 KiB allgather pieces
        are the only traffic on the raw-bytes list path."""
        sim, shm = (
            backend_probe.distributed_solve(
                f"{backend}:procs=2", solver, grid=grid, tol=1e-8, seed=2013
            )
            for backend in ("sim", "shmem")
        )
        assert sim["converged"]
        assert sim["iterations"] == shm["iterations"]
        assert sim["residual_norms"] == shm["residual_norms"]


def _assert_histories_agree(a, b):
    """Bit-identical: every backend folds reductions in rank order."""
    assert a["iterations"] == b["iterations"]
    assert a["converged"] == b["converged"]
    assert a["residual_norms"] == b["residual_norms"]


# ----------------------------------------------------------------------
# Property-based collective tests (satellite a)
# ----------------------------------------------------------------------
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectiveProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=8),
        procs=st.sampled_from([2, 3]),
        dtype=st.sampled_from(["float64", "float32"]),
        op_name=st.sampled_from(["SUM", "MAX"]),
        data=st.data(),
    )
    def test_allreduce_matches_ordered_fold(
        self, backend, length, procs, dtype, op_name, data
    ):
        contributions = [
            np.array(
                data.draw(st.lists(finite, min_size=length, max_size=length)),
                dtype=dtype,
            )
            for _ in range(procs)
        ]
        values = launch(
            backend, procs, _property_allreduce_program, contributions, op_name
        )
        reference = ordered_fold(
            {"SUM": np.add, "MAX": np.maximum}[op_name], contributions
        )
        for out in values:
            assert out.dtype == reference.dtype
            assert np.array_equal(out, reference)

    @settings(max_examples=6, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
        procs=st.sampled_from([2, 3]),
        dtype=st.sampled_from(["float64", "float32"]),
        root=st.integers(min_value=0, max_value=1),
        data=st.data(),
    )
    def test_bcast_delivers_root_payload_everywhere(
        self, backend, shape, procs, dtype, root, data
    ):
        n = shape[0] * shape[1]
        payload = np.array(
            data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=dtype
        ).reshape(shape)
        values = launch(backend, procs, _property_bcast_program, payload, root)
        for out in values:
            assert out.dtype == payload.dtype
            assert out.shape == payload.shape
            assert np.array_equal(out, payload)


# ----------------------------------------------------------------------
# Chaos soak: random SIGKILLs mid-collective (satellite b, shmem only)
# ----------------------------------------------------------------------
def test_shmem_chaos_soak_random_sigkills_never_hang():
    """40 random mid-collective SIGKILLs: detect or complete, never hang.

    Mirrors the PR 6 executor soak: a seeded RNG picks a victim rank
    and a failure time inside the program's logical-time span; the
    victim really is SIGKILLed mid-job, and every surviving rank must
    either finish (failure landed after its last collective) or
    observe ``ProcFailure`` -- within the launcher's bounded waits, so
    a hang fails the test instead of wedging CI.
    """
    rng = np.random.default_rng(20260808)
    procs, steps, step_time = 3, 5, 0.01
    outcomes = {"detected": 0, "completed": 0}
    for _ in range(40):
        victim = int(rng.integers(1, procs))
        fail_at = float(rng.uniform(0.0, steps * step_time))
        values = resolve_backend(f"shmem:procs={procs}").launch(
            _chaos_program, steps, step_time,
            faults=f"proc_fail:times={fail_at},ranks={victim}",
            timeout=10.0,
        )
        assert values[victim] is None
        for rank in range(procs):
            if rank == victim:
                continue
            status, failed, completed = values[rank]
            outcomes[status] += 1
            if status == "detected":
                assert failed == [victim]
            assert 0 <= completed <= steps
    # The time draw spans the whole program, so both outcomes occur.
    assert outcomes["detected"] > 0


# ----------------------------------------------------------------------
# Cost shape of the shmem message path, as counts (PR 18)
# ----------------------------------------------------------------------
class TestShmemCostShape:
    def test_no_selector_is_built_per_message(self, monkeypatch):
        """50 collectives, zero trips through ``connection.wait``/selectors.

        ``Connection.poll`` is ``connection.wait`` underneath, which
        builds, registers and closes a selector per call: the receive
        path did that once per message (50+ here) before the persistent
        poller.  The launcher's own outcome collection counts too.
        """
        real_wait = multiprocessing.connection.wait
        real_select = selectors.PollSelector.select

        def counting_wait(*args, **kwargs):
            _SPY["wait"] += 1
            return real_wait(*args, **kwargs)

        def counting_select(self, timeout=None):
            _SPY["select"] += 1
            return real_select(self, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait", counting_wait)
        monkeypatch.setattr(selectors.PollSelector, "select", counting_select)
        before = dict(_SPY)
        values = launch("shmem", 2, _fifty_collectives_program)
        assert values == [{"wait": 0, "select": 0}] * 2
        assert _SPY == before  # the launcher side

    def test_float_arrays_never_reach_pickle(self, monkeypatch):
        """Plain float64 payloads travel as raw bytes, bare or in a list.

        The object-array control proves the spy sees what ``pickle`` is
        handed, so a fast path that silently fell back would show here.
        """
        monkeypatch.setattr(pickle, "dumps", _spying_dumps)
        for floats, control in launch("shmem", 2, _float_traffic_program):
            assert floats == 0
            assert control >= 1

    def test_launch_never_sleeps(self, monkeypatch):
        def no_sleep(_seconds):
            raise AssertionError("launch_shmem slept")

        monkeypatch.setattr(time, "sleep", no_sleep)
        assert launch("shmem", 2, _identity_program)[1][0] == 1

    def test_rank_ignoring_shutdown_is_killed_at_the_reap_deadline(self, monkeypatch):
        # Ranks fork after the patches, so they inherit a finalize that
        # never returns: only the SIGKILL escalation can end them.
        monkeypatch.setattr(shmem.ShmemComm, "finalize", lambda self: time.sleep(60))
        monkeypatch.setattr(shmem, "REAP_TIMEOUT", 0.3)
        start = time.monotonic()
        pids = launch("shmem", 2, _pid_program)
        elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 5.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):  # reaped, not a zombie
                os.kill(pid, 0)


# ----------------------------------------------------------------------
# One front end
# ----------------------------------------------------------------------
_FRONT_END = (
    "barrier", "bcast", "allreduce", "allgather", "iallreduce",
    "_check_rank", "_finish_collective", "_collective_cost", "sendrecv",
)

#: The communication operations of ``BaseCommunicator`` -- the nine the
#: programs issue -- and the parameters a caller sets, in signature
#: order.  A new operation shows up as an edit of this table.
COMM_SURFACE = {
    "send": ("obj", "dest", "tag"),
    "recv": ("source", "tag"),
    "isend": ("obj", "dest", "tag"),
    "sendrecv": ("sendobj", "dest", "source", "sendtag", "recvtag"),
    "barrier": (),
    "bcast": ("value", "root"),
    "allreduce": ("value", "op"),
    "allgather": ("value",),
    "iallreduce": ("value", "op"),
}

#: The rest of the public front end: identity, program time, liveness.
_COMM_STATE = (
    "rank", "size", "machine", "now", "advance", "compute",
    "alive_ranks", "dead_ranks", "is_alive",
)


def _process_hazards(rel, tree):
    """``(line, hazard)`` pairs of one ``src/repro`` module (``rel`` is
    relative to ``src/repro``): ``os.fork`` outside ``utils/child.py``;
    ``multiprocessing`` imported as anything but ``shared_memory`` or
    ``resource_tracker``; a ``.poll(`` that may wait forever (no
    timeout, ``None`` or a negative constant), the ``select.poll()``
    constructor aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
                     for alias in node.names]
            for name in names:
                if _within(name, "multiprocessing") and not any(
                    _within(name, f"multiprocessing.{ok}")
                    for ok in ("shared_memory", "resource_tracker")
                ):
                    yield node.lineno, f"imports {name}"
                if name == "os.fork" and rel != "utils/child.py":
                    yield node.lineno, "forks outside utils/child.py"
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            if isinstance(node.value, ast.Name) and node.value.id == "os" and rel != "utils/child.py":
                yield node.lineno, "forks outside utils/child.py"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "poll"
              and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "select")):
            timeout = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "timeout")]
            if not timeout or any(
                (isinstance(t, ast.Constant) and t.value is None)
                or (isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.USub)
                    and isinstance(t.operand, ast.Constant))
                for t in timeout
            ):
                yield node.lineno, ".poll() without a finite timeout"


# One planted module per case, and the one hazard the scan reports on
# its last line.
_PROCESS_HAZARD_CASES = {
    "fork": ("import os\npid = os.fork()\n", "forks outside utils/child.py"),
    "fork-import": ("from os import fork\n", "forks outside utils/child.py"),
    "multiprocessing": ("import multiprocessing\n", "imports multiprocessing"),
    "queue": ("from multiprocessing import shared_memory, Queue\n",
              "imports multiprocessing.Queue"),
    "poll-untimed": ("conn.poll()\n", ".poll() without a finite timeout"),
    "poll-none": ("conn.poll(None)\n", ".poll() without a finite timeout"),
    "poll-negative": ("poller.poll(timeout=-1)\n", ".poll() without a finite timeout"),
}


class TestOneFrontEnd:
    def test_the_front_end_declares_nine_operations(self):
        public = {name for name in dir(BaseCommunicator) if not name.startswith("_")}
        assert public == set(COMM_SURFACE) | set(_COMM_STATE)

    @pytest.mark.parametrize("cls", [Comm, shmem.ShmemComm])
    def test_every_backend_takes_the_declared_parameters(self, cls):
        surface = {
            name: tuple(p for p in inspect.signature(getattr(cls, name)).parameters if p != "self")
            for name in COMM_SURFACE
        }
        assert surface == COMM_SURFACE

    @pytest.mark.parametrize("cls", [Comm, shmem.ShmemComm])
    def test_the_removed_operations_are_gone_on_every_backend(self, cls):
        removed = ("reduce", "gather", "scatter", "ibarrier", "iallgather", "ibcast", "irecv")
        assert [name for name in removed if hasattr(cls, name)] == []

    def test_a_backend_implements_identity_liveness_and_point_to_point(self):
        # A backend supplies identity, time, liveness, point-to-point
        # and one _collective; the front end builds the other operations.
        assert BaseCommunicator.__abstractmethods__ == {
            "rank", "size", "now", "advance", "alive_ranks", "dead_ranks", "is_alive",
            "send", "recv", "isend", "_collective",
        }

    @pytest.mark.parametrize("cls", [Comm, shmem.ShmemComm])
    def test_backends_subclass_the_front_end_and_add_no_forms(self, cls):
        assert issubclass(cls, BaseCommunicator)
        assert BaseCommunicator in cls.__mro__  # a subclass, not a registration
        assert not set(_FRONT_END) & set(vars(cls))

    def test_collective_cost_is_computed_once_per_key(self, monkeypatch):
        calls = []

        def counting_time(machine, n_ranks, nbytes):
            calls.append((n_ranks, nbytes))
            return collective_time(machine, n_ranks, nbytes)

        monkeypatch.setattr(comm_base, "collective_time", counting_time)
        launch("sim", 2, _fifty_collectives_program)
        # One memo per rank; only the last arriver charges a collective.
        assert set(calls) == {(2, 8), (2, 64)}
        assert len(calls) <= 2 * len(set(calls))

    def test_nothing_registers_virtually(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            assert "BaseCommunicator.register" not in path.read_text(encoding="utf-8"), path

    def test_one_fork_no_queue_and_every_poll_bounded(self):
        """The process-safety scan over ``src/repro``: every forked process
        is a ``utils.child.Child`` whose reads are deadline-bounded, and no
        ``multiprocessing`` queue, pool or pipe exists to orphan a lock
        when a worker is SIGKILLed."""
        src = REPO_ROOT / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert list(_process_hazards(rel, tree)) == [], rel

    @pytest.mark.parametrize("case", sorted(_PROCESS_HAZARD_CASES))
    def test_the_process_scan_flags_each_hazard(self, case):
        planted, hazard = _PROCESS_HAZARD_CASES[case]
        found = list(_process_hazards("campaign/planted.py", ast.parse(planted)))
        assert found == [(planted.count("\n"), hazard)]

    def test_the_process_scan_passes_bounded_waits_and_the_one_fork(self):
        planted = textwrap.dedent("""\
            import multiprocessing.resource_tracker
            import select
            from multiprocessing import shared_memory

            def wait(conn, timeout):
                poller = select.poll()
                return conn.poll(0.5), poller.poll(timeout * 1000.0), conn.poll(timeout=0)
            """)
        assert list(_process_hazards("campaign/planted.py", ast.parse(planted))) == []
        assert list(_process_hazards("utils/child.py", ast.parse("import os\nos.fork()\n"))) == []

    @pytest.mark.parametrize("backend", ["sim", "shmem"])
    @pytest.mark.parametrize("rank", [4, 7])
    def test_launch_refuses_a_failure_on_a_rank_it_does_not_have(self, backend, rank):
        launcher = resolve_backend(backend)
        refusal = f"kills rank {rank}, but the job has n_ranks=4"
        with pytest.raises(ValueError, match=refusal):
            launcher.launch(_identity_program, n_ranks=4, faults=f"proc_fail:ranks={rank},times=0.0")
        with pytest.raises(ValueError, match=refusal):
            launcher.launch(_identity_program, n_ranks=4, failure_plan=FailurePlan.single(0.0, rank))

    @pytest.mark.parametrize("backend", ["sim", "shmem"])
    def test_launch_refuses_a_fault_spec_given_as_failure_plan(self, backend):
        # A spec goes through faults=; as failure_plan it would run the
        # job without its faults.
        with pytest.raises(TypeError, match="faults="):
            resolve_backend(backend).launch(
                _identity_program, n_ranks=2, failure_plan="proc_fail:times=0.5,ranks=1"
            )

    @pytest.mark.parametrize("backend", ["sim", "shmem"])
    @pytest.mark.parametrize(
        "n_ranks, error",
        [(2.5, TypeError), (True, TypeError), ("2", TypeError), (0, ValueError), (-1, ValueError)],
    )
    def test_launch_refuses_bad_rank_counts(self, backend, n_ranks, error):
        with pytest.raises(error, match="n_ranks"):
            resolve_backend(backend).launch(_identity_program, n_ranks=n_ranks)


# ----------------------------------------------------------------------
# Spec / registry surface
# ----------------------------------------------------------------------
class TestSpecAndRegistry:
    def test_spec_rejects_unknown_kind_and_params(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            CommSpec.parse("zeromq:procs=2")  # repro: allow(spec-strings) -- unknown kind is the point
        with pytest.raises(ValueError, match="does not accept parameter"):
            CommSpec.parse("sim:timeout=5")  # repro: allow(spec-strings) -- negative fixture
        with pytest.raises(ValueError, match="positive integer"):
            CommSpec.parse("shmem:procs=0")  # repro: allow(spec-strings) -- negative fixture

    def test_registry_lists_all_kinds(self):
        assert default_backend_registry().names() == ["shmem", "sim"]
        for name in default_backend_registry().names():
            entry = default_backend_registry().get(name)
            assert entry.name == name

