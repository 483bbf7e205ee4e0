"""Cross-backend communicator conformance suite.

The contract every registered backend (:mod:`repro.comm.registry`) keeps
is one Hypothesis property: matched SPMD programs drawn over the nine
``COMM_SURFACE`` operations (2-4 ranks, at most 12 operations per rank,
array payloads), each perturbed at most once -- a redirected receive, a
``proc_fail`` at an operation index, a ``msg_corrupt`` component, a rank
that returns early -- leave equal traces on ``sim`` and ``shmem`` (see
:func:`_play`), holding what the generator knows: a send's payload in
per-tag FIFO order, a bcast root's payload, the ascending-rank fold that
makes reductions bit-identical.  A deadlock is compared by class only:
which bounded wait expires first on ``shmem`` depends on timing.  The
property runs in strata (``_STRATA`` at every rank count), each seeded.

Examples cover what the property does not draw: one rank, overlap,
poisoned collectives, peers that returned or carry on, the wire format,
the shmem cost shape, the collective cost rule, equal solver histories
and the one front end.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import io
import os
import pathlib
import pickle
import selectors
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import multiprocessing.connection

from repro.comm import (
    BaseCommunicator,
    CommSpec,
    ProcFailure,
    default_backend_registry,
    resolve_backend,
)
from repro.comm import base as comm_base
from repro.comm import shmem
from repro.comm.errors import SimDeadlockError
from repro.comm.ops import MAX, MIN, SUM
from repro.experiments import backend_probe
from repro.machine.collective_cost import collective_time
from repro.machine.model import MachineModel
from repro.comm.sim import Comm
from repro.reliability.process import FailurePlan

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every registered backend.
BACKENDS = default_backend_registry().names()


def launch(backend: str, procs: int, func, *args, timeout: float = 30.0, **kwargs):
    """Run ``func`` on ``backend`` with ``procs`` ranks (uniform shim)."""
    return resolve_backend(f"{backend}:procs={procs}").launch(func, *args, timeout=timeout, **kwargs)


# ----------------------------------------------------------------------
# Rank functions (module level so every backend can run them)
# ----------------------------------------------------------------------
def _identity_program(comm):
    assert isinstance(comm, BaseCommunicator)
    return (comm.rank, comm.size, comm.alive_ranks(), comm.is_alive(comm.rank))


def _nonblocking_program(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    sent = comm.isend(("ring", comm.rank), right, tag=3)
    reduced = comm.iallreduce(float(comm.rank))
    received = comm.recv(left, tag=3)
    return (sent.wait(), received[1], reduced.wait())


def _carry_on_program(comm):
    """Rank 2 dies; the coordinator carries on to wait on rank 1, failed too."""
    comm.advance(1.0)
    try:
        comm.allreduce(1.0)
    except ProcFailure as exc:
        if comm.rank == 1:
            comm.send("failed too", 0)
        return sorted(exc.failed_ranks), comm.recv(1) if comm.rank == 0 else None


def _poisoned_allreduce_program(comm):
    start = time.monotonic()
    try:
        comm.allreduce(np.ones(2 + comm.rank))  # shapes (2,) and (3,): no fold
        return ("no error", 0.0)
    except Exception as exc:  # noqa: BLE001 - the type is what is asserted
        return (type(exc).__name__, time.monotonic() - start)


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
# The contract: drawn programs observed alike on every backend
# ----------------------------------------------------------------------
_OPS = {"SUM": (SUM, np.add), "MAX": (MAX, np.maximum), "MIN": (MIN, np.minimum)}

#: How a rank issues each drawn operation: ``(comm, payload, arg, tag)``.
_ISSUE = {
    "send": lambda comm, x, dest, tag: comm.send(x, dest, tag=tag),
    "recv": lambda comm, x, source, tag: comm.recv(source, tag=tag),
    "isend": lambda comm, x, dest, tag: comm.isend(x, dest, tag=tag).wait(),
    "sendrecv": lambda comm, x, peers, tag: comm.sendrecv(x, *peers, sendtag=tag, recvtag=tag),
    "barrier": lambda comm, x, arg, tag: comm.barrier(),
    "bcast": lambda comm, x, root, tag: comm.bcast(x, root=root),
    "allreduce": lambda comm, x, op, tag: comm.allreduce(x, op=_OPS[op][0]),
    "allgather": lambda comm, x, arg, tag: comm.allgather(x),
    "iallreduce": lambda comm, x, op, tag: comm.iallreduce(x, op=_OPS[op][0]).wait(),
}

#: The property's strata: a perturbation and, for a rank that dies or
#: returns, its role.  shmem's coordinator (rank 0) fails a collective by
#: another path than a member does, so each role gets its own examples.
_STRATA = [(None, None), ("msg_corrupt", None), ("redirect", None),
           *((kind, role) for kind in ("proc_fail", "return") for role in ("coordinator", "member"))]


def _bits(value):
    """An array, or a list of them, bit for bit; ``None`` stays ``None``."""
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return None if value is None else (value.dtype.str, value.shape, value.tobytes())


def _play(comm, programs):
    """Run this rank's drawn operations; return its trace.

    Per operation: the bits of what the rank was handed and of the payload
    it holds, each scribbled over once read, so an array it shares shows
    in some trace.  The first error ends it: class, operation, failed set,
    ``blocked``, ``dead_ranks()``, ``alive_ranks()``.  ``"die"`` crosses
    the rank's ``proc_fail``; ``"return"`` leaves early.
    """
    trace = []
    for name, payload, arg, tag in programs[comm.rank]:
        if name == "return":
            break
        if name == "die":
            comm.advance(1.0)
            continue
        mine = None if payload is None else payload.copy()
        try:
            out = _ISSUE[name](comm, mine, arg, tag)
        except (ProcFailure, SimDeadlockError) as exc:
            failed = sorted(getattr(exc, "failed_ranks", ()))
            return trace + [(type(exc).__name__, exc.operation, failed,
                             getattr(exc, "blocked", None), comm.dead_ranks(), comm.alive_ranks())]
        held = _bits(mine)
        if mine is not None:
            mine[...] = -1  # first: what it was handed must not alias it
        trace.append((_bits(out), held))
        for array in out if isinstance(out, list) else [out]:
            if array is not None:
                array[...] = -1
    return trace


@st.composite
def _programs(draw, n, perturbation, role, max_ops=12):
    """``(programs, expected, target, launch kwargs)`` on ``n`` ranks:
    ``programs[rank]`` lists ``(name, payload, arg, tag)``, ``expected[rank]``
    each one's trace entry unperturbed, ``target`` the perturbed rank (0 for
    the ``"coordinator"`` role, another for ``"member"``).  Hypothesis draws
    the steps; a generator seeded by the whole draw fills in the rest."""
    steps = ["p2p", "sendrecv", "barrier", "bcast", "allreduce", "allgather", "iallreduce"]
    kinds = draw(st.lists(st.sampled_from(steps), min_size=1, max_size=8))
    rng = np.random.default_rng([draw(st.integers(0, 2 ** 16)), n, *map(steps.index, kinds)])

    def pick(low, high):
        return int(rng.integers(low, high))

    if perturbation == "redirect":
        kinds.insert(pick(0, len(kinds) + 1), "p2p")
        max_ops -= 1  # for the closing barrier
    programs, expected = [[] for _ in range(n)], [[] for _ in range(n)]

    def emit(r, name, payload, arg, tag, out):
        programs[r].append((name, payload, arg, tag))
        expected[r].append((_bits(out), _bits(payload)))

    for kind in kinds:
        length, dtype = pick(0, 6), ("float64", "float32")[pick(0, 2)]
        sent = [rng.standard_normal(length).astype(dtype) for _ in range(4)]
        if kind == "p2p":
            src = pick(0, n)
            dest = (src + pick(1, n)) % n
            burst = [(("send", "isend")[pick(0, 2)], pick(0, 2)) for _ in range(pick(1, 4))]
            if max(len(programs[src]), len(programs[dest])) + len(burst) <= max_ops:
                for (mode, tag), x in zip(burst, sent):
                    emit(src, mode, x, dest, tag, None)
                unread = list(range(len(burst)))
                # Received in any order, often the reverse: buffered, then per-tag FIFO.
                for i in rng.permutation(len(burst)) if pick(0, 2) else range(len(burst))[::-1]:
                    first = next(j for j in unread if burst[j][1] == burst[i][1])
                    unread.remove(first)
                    emit(dest, "recv", None, src, burst[i][1], sent[first])
        elif max(map(len, programs)) < max_ops:
            sent, out, arg, tag = sent[:n], None, None, 0
            if kind == "sendrecv":
                shift, tag = pick(1, n), pick(0, 3)
            elif kind == "bcast":
                arg = pick(0, n)
                out = sent[arg]
            elif kind in ("allreduce", "iallreduce"):
                arg = sorted(_OPS)[pick(0, 3)]
                out = functools.reduce(_OPS[arg][1], sent)
            elif kind == "allgather":
                out = sent
            for r in range(n):
                if kind == "sendrecv":
                    arg = ((r + shift) % n, (r - shift) % n)
                    out = sent[arg[1]]
                mine = None if kind == "barrier" or (kind == "bcast" and r != arg) else sent[r]
                emit(r, kind, mine, arg, tag, out)

    target, kwargs = (0 if role == "coordinator" else pick(1, n)), {}
    if perturbation == "redirect":  # one receive waits forever, then every rank does
        receives = [(r, i) for r in range(n) for i, op in enumerate(programs[r]) if op[0] == "recv"]
        assume(receives)
        target, index = receives[pick(0, len(receives))]
        programs[target][index] = ("recv", None, programs[target][index][2], 99)
        for r in range(n):
            emit(r, "barrier", None, None, 0, None)
    elif perturbation == "msg_corrupt":
        kwargs = {"faults": "msg_corrupt:p=1", "fault_seed": pick(0, 100)}
    elif perturbation is not None:
        step = "die" if perturbation == "proc_fail" else "return"
        programs[target].insert(pick(0, len(programs[target]) + 1), (step, None, None, 0))
        if step == "die":
            kwargs = {"faults": f"proc_fail:times=0.5,ranks={target}"}
    return programs, expected, target, kwargs


def _each_drawn(n, perturbation, role, check):
    """``check(n, perturbation, *drawn)`` on the stratum's programs, from its own seed.
    A redirect waits out shmem's bound: ten in all (3, 3, 4), other strata five."""
    @seed(f"{perturbation}-{role}-{n}")
    @settings(max_examples=3 + (n == 4) if perturbation == "redirect" else 5, deadline=None, database=None)
    @given(drawn=_programs(n, perturbation, role))
    def run(drawn):
        check(n, perturbation, *drawn)

    run()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("perturbation, role", _STRATA)
def test_every_backend_observes_a_drawn_program_alike(perturbation, role, n):
    _each_drawn(n, perturbation, role, _observe_alike)


def _observe_alike(n, perturbation, programs, expected, target, kwargs):
    redirected, traces, interval = perturbation == "redirect", {}, sys.getswitchinterval()
    for backend in BACKENDS:
        # The sim's rank threads interleave finely: no verdict unless every
        # rank waits.  Only a redirected receive waits out shmem's bound:
        # short then, and every rank ends within it and half a second.
        sys.setswitchinterval(1e-5 if backend == "sim" else interval)
        start = time.monotonic()
        try:
            traces[backend] = launch(backend, n, _play, programs,
                                     timeout=0.2 if redirected else 10.0, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert not redirected or time.monotonic() - start <= 0.7

    if not redirected:
        assert traces["sim"] == traces["shmem"]
    errors = {backend: {r: t.pop() for r, t in enumerate(trace) if t and len(t[-1]) == 6}
              for backend, trace in traces.items()}
    for trace in traces.values():
        for r, values in enumerate(trace):
            if values is None:  # only the victim dies, and reports nothing
                assert (perturbation, r) == ("proc_fail", target)
                continue
            if perturbation == "msg_corrupt":  # a received payload may differ
                values = [(want[0], got[1]) if op[0] in ("recv", "sendrecv") else got
                          for op, got, want in zip(programs[r], values, expected[r])]
            assert values == expected[r][: len(values)]
    if perturbation in (None, "msg_corrupt"):
        assert errors["sim"] == {}
        assert list(map(len, traces["sim"])) == list(map(len, expected))
    elif not redirected:
        dead = [target] if perturbation == "proc_fail" else []
        for name, _, failed, blocked, seen_dead, alive in errors["sim"].values():
            assert (name, blocked, seen_dead) == ("RankFailedError", None, dead)
            assert set(failed) <= set(dead) and alive == sorted(set(range(n)) - set(dead))
    else:
        # Every rank ends waiting.  On sim each gets the one verdict naming
        # every rank's wait.  On shmem some rank times out, the rest may fail
        # by a departed peer, and some error names the redirected receive.
        label = next(f"recv(src={src}, tag=99)" for _, _, src, tag in programs[target] if tag == 99)
        blocked, ranks = errors["sim"][0][3], list(range(n))
        assert sorted(blocked) == ranks and blocked[target] == label
        assert errors["sim"] == {r: ("SimDeadlockError", blocked[r], [], blocked, [], ranks) for r in ranks}
        names_and_labels = {field for error in errors["shmem"].values() for field in error[:2]}
        assert len(errors["shmem"]) == n and {"CommTimeoutError", label} <= names_and_labels
        for r, (name, operation, failed, waits, dead, _) in errors["shmem"].items():
            assert failed == dead == [] and (name, waits) in [("RankFailedError", None),
                                                              ("CommTimeoutError", {r: operation})]


# ----------------------------------------------------------------------
# Examples, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_identity_and_liveness(self, backend):
        values = launch(backend, 3, _identity_program)
        assert values == [(r, 3, [0, 1, 2], True) for r in range(3)]

    def test_single_rank_degenerate_collectives(self, backend):
        x = np.arange(4.0)
        program = [("allreduce", x, "MAX", 0), ("allgather", x, None, 0),
                   ("bcast", x, 0, 0), ("barrier", None, None, 0)]
        bits = _bits(x)
        trace = launch(backend, 1, _play, [program])[0]
        assert trace == [(bits, bits), ([bits], bits), (bits, bits), (None, None)]

    def test_isend_and_iallreduce_complete_around_a_recv(self, backend):
        results = launch(backend, 3, _nonblocking_program)
        assert results == [(None, (rank - 1) % 3, 3.0) for rank in range(3)]

    def test_collective_raising_at_completion_poisons_every_rank(self, backend):
        """Default timeouts: every rank raises at once, nobody waits."""
        values = launch(backend, 2, _poisoned_allreduce_program)
        assert [name for name, _ in values] == ["ValueError", "ValueError"]
        assert all(elapsed < 1.0 for _, elapsed in values)

    def test_survivors_that_carry_on_fail_their_peers_at_once(self, backend):
        start = time.monotonic()
        values = launch(backend, 3, _carry_on_program, faults="proc_fail:times=0.5,ranks=2",
                        timeout=2.0)
        assert values == [([2], "failed too"), ([2], None), None]
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("operation", ["recv", "allreduce"])
    @pytest.mark.parametrize("procs, waiter", [(2, 1), (3, 0)])
    def test_a_peer_that_returned_is_departed_not_dead(self, backend, procs, waiter, operation):
        """Every rank but the waiter returns at once: the waiter's verdict
        comes at once, names no failed rank, and nobody is believed dead."""
        source = (waiter + 1) % procs
        step = ("recv", None, source, 0) if operation == "recv" else ("allreduce", np.ones(2), "SUM", 0)
        label = f"recv(src={source}, tag=0)" if operation == "recv" else "allreduce(0, 0)"
        programs = [[step] if rank == waiter else [] for rank in range(procs)]
        start = time.monotonic()
        trace = launch(backend, procs, _play, programs, timeout=2.0)[waiter]
        assert time.monotonic() - start < 0.5
        assert trace == [("RankFailedError", label, [], None, [], list(range(procs)))]

    def test_a_collective_fails_at_the_first_contributor_gone(self, backend):
        """Rank 1 dies while rank 2 waits on the send rank 0 posts after its
        allreduce: rank 0's verdict comes at once, not at its timeout."""
        programs = [[("allreduce", np.ones(2), "SUM", 0), ("send", np.ones(2), 2, 0)],
                    [("die", None, None, 0)],
                    [("recv", None, 0, 0), ("allreduce", np.ones(2), "SUM", 0)]]
        start = time.monotonic()
        trace = launch(backend, 3, _play, programs, faults="proc_fail:times=0.5,ranks=1",
                       timeout=2.0)[0]
        assert time.monotonic() - start < 0.5
        assert trace == [("RankFailedError", "allreduce(0, 0)", [1], None, [1], [0, 2])]

    @pytest.mark.parametrize("operation, failed", [("recv", []), ("allreduce", [2])])
    def test_a_departing_peer_passes_on_whom_it_knew_dead(self, backend, operation, failed):
        """Rank 2 dies, rank 0 fails on it and returns, rank 1 waits on rank 0."""
        step = {"recv": ("recv", None, 0, 0), "allreduce": ("allreduce", np.ones(2), "SUM", 0)}
        programs = [[("recv", None, 2, 0)], [step[operation]], [("die", None, None, 0)]]
        trace = launch(backend, 3, _play, programs, faults="proc_fail:times=0.5,ranks=2")[1]
        label = {"recv": "recv(src=0, tag=0)", "allreduce": "allreduce(0, 0)"}[operation]
        assert trace == [("RankFailedError", label, failed, None, [2], [0, 1])]

    @pytest.mark.parametrize("nbytes", [32760, 32768])
    def test_array_allreduce_either_side_of_the_segment_threshold(self, backend, nbytes):
        assert nbytes <= shmem.SHM_THRESHOLD_BYTES < nbytes + 16
        sent = [np.arange(nbytes // 8) * (r + 1) + 0.1 for r in range(3)]
        traces = launch(backend, 3, _play, [[("allreduce", x, "SUM", 0)] for x in sent])
        fold = _bits(functools.reduce(np.add, sent))
        assert traces == [[(fold, _bits(x))] for x in sent]

    def test_wire_format_table(self, backend):
        """Every case arrives equal, writable, C-contiguous and unaliased."""
        values = launch(backend, 2, _wire_program, _WIRE_CASES)
        assert len(values[1]) == len(_WIRE_CASES)
        wrong = {(rank, *case): facts for rank, held in enumerate(values)
                 for case, pieces in held.items() for facts in pieces if not all(facts)}
        assert wrong == {}

    @pytest.mark.parametrize("kind", ["object", "structured"])
    def test_non_numeric_arrays_above_the_threshold_arrive_intact(self, backend, kind):
        """Object and structured arrays are pickled, never staged as raw bytes."""
        received = launch(backend, 2, _big_payload_program, kind)[1]
        expected = _big_payload(kind)
        assert (received.dtype, received.tolist()) == (expected.dtype, expected.tolist())

    def test_measure_collectives_times_every_kind_and_size(self, backend):
        timings = backend_probe.measure_collectives(f"{backend}:procs=2",
                                                    nbytes_list=(64, 4096), iterations=2)
        assert set(timings) == {"barrier", "allreduce", "bcast"}
        for per_size in timings.values():
            assert set(per_size) == {64, 4096}
            assert all(np.isfinite(t) and t > 0.0 for t in per_size.values())


# ----------------------------------------------------------------------
# Cross-backend costs and solver histories
# ----------------------------------------------------------------------
class TestCrossBackend:
    @pytest.mark.parametrize("kind, nbytes",
                             [(kind, _BIG.nbytes) for kind in ("bcast", "allreduce", "allgather")])
    def test_collective_time_is_one_rule_on_every_rank(self, kind, nbytes):
        """Every rank on both backends charges the largest contribution."""
        machine = MachineModel(flop_rate=5.0e9, latency=2.0e-6, bandwidth=5.0e9)
        expected = collective_time(machine, 2, nbytes)
        for backend in ("sim", "shmem"):
            times = launch(backend, 2, _uneven_collective_program, kind, machine=machine)
            assert times == [expected, expected], backend

    @pytest.mark.parametrize("solver, procs, grid, options", [
        *((solver, procs, 8, {"seed": 18})
          for solver in ("cg", "pipelined_cg", "gmres") for procs in (2, 3, 4)),
        # The benchmark's four solves, whose 1-16 KiB allgather pieces are
        # the only traffic on the raw-bytes list path.
        ("cg", 2, 32, {}), ("pipelined_cg", 2, 32, {}), ("gmres", 2, 16, {}), ("cg", 2, 64, {}),
        # The E3 and E6 distributed anchors, the latter GMRES through restarts.
        ("cg", 4, 10, {}), ("gmres", 4, 8, {"maxiter": 400, "restart": 15}),
    ], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) or "seed=2013" if isinstance(v, dict) else None)
    def test_residual_histories_are_equal(self, solver, procs, grid, options):
        """Bit-identical: every backend folds reductions in rank order."""
        sim, shm = (
            backend_probe.distributed_solve(
                f"{backend}:procs={procs}", solver, grid=grid, tol=1e-8,
                **{"seed": 2013, **options},
            )
            for backend in ("sim", "shmem")
        )
        assert sim["converged"]
        assert [sim[key] for key in ("converged", "iterations", "residual_norms")] == [
            shm[key] for key in ("converged", "iterations", "residual_norms")]


# ----------------------------------------------------------------------
# Cost shape of the shmem message path, as counts (PR 18)
# ----------------------------------------------------------------------
class TestShmemCostShape:
    def test_no_selector_is_built_per_message(self, monkeypatch):
        """50 collectives, zero trips through ``connection.wait``/selectors
        (``Connection.poll`` builds, registers and closes a selector per
        call), in the ranks and in the launcher's outcome collection."""
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
        """Plain float64 payloads travel as raw bytes, bare or in a list; the
        object-array control proves the spy sees what ``pickle`` is handed."""
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
        monkeypatch.setattr(shmem, "REAP_TIMEOUT", 0.1)
        start = time.monotonic()
        pids = launch("shmem", 2, _pid_program)
        elapsed = time.monotonic() - start
        assert 0.1 <= elapsed < 5.0
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


class TestOneFrontEnd:
    def test_the_front_end_declares_nine_operations(self):
        public = {name for name in dir(BaseCommunicator) if not name.startswith("_")}
        assert public == set(COMM_SURFACE) | set(_COMM_STATE)
        drawn = collections.Counter()  # the property draws every one, often
        for n, (perturbation, role) in itertools.product((2, 3, 4), _STRATA):
            _each_drawn(n, perturbation, role, lambda n, p, programs, *_: drawn.update(
                {op[0] for program in programs for op in program} - {"die", "return"}))
        assert drawn.keys() == COMM_SURFACE.keys() and min(drawn.values()) >= 25, drawn

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
        registry = default_backend_registry()
        assert [registry.get(name).name for name in registry.names()] == ["shmem", "sim"]

