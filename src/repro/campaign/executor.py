"""Supervised campaign execution: retries, timeouts, chaos, a ledger.

The paper's thesis is reliable-outer / unreliable-inner computation:
FT-GMRES wraps an inner solver it does not trust and bounds the damage
its faults can do.  This module restates that contract one level up,
for the campaign runner itself.  Worker processes are the unreliable
inner resource -- they can crash, hang, or hand back corrupted bytes --
and the :class:`SupervisedExecutor` is the reliable outer loop that
detects those faults, bounds them (timeouts, attempt budgets) and
recovers (respawn, retry, quarantine) without ever letting one bad
scenario take the campaign down.

Pieces
------
:class:`RetryPolicy`
    Deterministic attempt budget + exponential backoff, with a
    transient-vs-poison classification: crashes, timeouts and corrupt
    results are *transient* (worth retrying -- the environment failed,
    not the scenario), driver exceptions are *poison* and never retried
    (the same inputs will raise again).  Transient scenarios that
    exhaust their budget are *quarantined*.
:class:`FailureLedger`
    Crash-consistent JSONL sidecar next to the
    :class:`~repro.campaign.store.ResultStore` recording one
    :class:`AttemptRecord` per executed attempt and scenario --
    successes included, and every member of a batched unit -- so failure
    history survives the process and ``campaign run --retry-failed`` can
    re-target exactly the failed/quarantined set.
:class:`ChaosFault`
    Fault injection for the runner's own workers, in the shared
    spec-string grammar (:mod:`repro.spec`):
    ``"worker_crash:p=0.1"`` hard-kills the worker (``os._exit``)
    before the scenario runs, ``"worker_hang:p=0.05"`` sleeps past any
    timeout, ``"result_corrupt:p=0.01"`` flips the result payload
    after it was checksummed.  Compose with ``+`` exactly like fault
    specs; the worker walks the composition's components.  Injection
    draws are pure functions of ``(chaos_seed, scenario key, attempt,
    kind)``, so chaos runs are reproducible and retried attempts see
    fresh, independent draws.
:class:`SupervisedExecutor`
    Long-lived worker processes, each a :class:`~repro.utils.child.Child`
    driven over its own channel.  The supervisor keeps up to
    :data:`DEPTH` scenarios in flight per worker (the head runs, the next
    waits in the channel), polls the channels, enforces per-scenario
    deadlines (kill + respawn on expiry), detects hard worker death by
    the channel's hang-up, verifies result checksums, and applies the
    retry policy until every scenario reaches a terminal state.
    ``workers=0`` runs each task in the calling process instead: no
    child, so no timeout and no chaos, and since poison is never
    retried, one attempt per task.  Every campaign unit goes through
    :meth:`SupervisedExecutor.run`, which is the one code path that
    executes a unit, applies the retry policy and journals its attempts.

    A task queues behind a busy worker only while the ready backlog
    outnumbers the workers; its deadline starts when it becomes the head.
    A crash or timeout charges the head alone: the tasks behind it never
    started and are re-sent as the same attempt.  The largest builtin
    task (a ``--batch 0`` sweep) pickles to 615 B, so a queued send
    never waits on a full channel.  A result crosses once, as
    checksummed canonical JSON text, spliced as is into the store line.

    One channel per worker is a correctness requirement: a worker dying
    mid-write (SIGKILL on timeout, a chaos ``os._exit``) can orphan a
    shared ``multiprocessing.Queue``'s lock and wedge every *other*
    worker, while its own channel just hangs up -- EOF, a crash.

Determinism: scenario parameters (seed included) are resolved *before*
dispatch, so attempt 3 on a respawned worker receives byte-identical
inputs to attempt 1 -- which is what makes a campaign run under
``worker_crash`` converge to a result store byte-identical to a clean
run (``tests/test_execution_contract.py`` pins this).
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import os
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.registry import default_registry
from repro.campaign.spec import canonical_json
from repro.campaign.store import LineAppender, read_jsonl
from repro.spec import COMPOSE_KIND, Axis, KindSpec
from repro.utils.child import Channel, Child, stop_all, wait_ready

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "FailureLedger",
    "ChaosFault",
    "parse_chaos",
    "ExecutionResult",
    "SupervisedExecutor",
    "default_execute",
    "payload_checksum",
    "TRANSIENT_STATUSES",
    "FAILURE_OUTCOMES",
    "BATCH_PARAMS_KEY",
    "BATCH_RESULTS_KEY",
    "AXIS",
]

# Attempt statuses the retry policy considers environmental: the
# scenario itself is not implicated, so re-running it can succeed.
TRANSIENT_STATUSES = frozenset({"crashed", "timeout", "corrupt"})

# Terminal scenario outcomes that count as failures (what
# ``campaign run --retry-failed`` re-executes).
FAILURE_OUTCOMES = frozenset({"failed", "timeout", "quarantined"})


# ----------------------------------------------------------------------
# Scenario execution (shared by the in-process and worker paths)
# ----------------------------------------------------------------------

# Params key marking a batched unit of work: its value is the list of
# member scenarios' param dicts, executed in one ``run_batch`` call.
BATCH_PARAMS_KEY = "__batch__"

# Result key the batched execution path returns: the list of member
# result dicts, in the same order as the ``__batch__`` params list.
BATCH_RESULTS_KEY = "__batch_results__"


def default_execute(
    experiment: str, params: Mapping[str, Any], attempt: int = 1
) -> Tuple[Optional[dict], Optional[str], float]:
    """Run one scenario (or one batched unit) against the registry.

    Returns ``(result_dict, error_traceback, elapsed)``.  ``attempt``
    is accepted (the executor passes it for test fixtures) but ignored:
    drivers must never see the attempt number, or retried results
    would diverge from first-try ones.  Fault-injection drivers
    intentionally overflow floats, so RuntimeWarnings are silenced here
    exactly as the benchmark harness does.

    When ``params`` carries :data:`BATCH_PARAMS_KEY` (a list of member
    param dicts), the driver's ``run_batch`` executes every member in
    lockstep and the result dict holds their serialized results under
    :data:`BATCH_RESULTS_KEY`, in member order.  The whole unit shares
    one fate: a raising batch fails (and is retried) as one task.
    """
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            driver = default_registry().get(experiment)
            members = params.get(BATCH_PARAMS_KEY)
            if members is not None:
                if driver.run_batch is None:
                    raise TypeError(
                        f"{driver.experiment} has no run_batch; the runner "
                        "must not dispatch batched units to it"
                    )
                results = driver.run_batch([dict(p) for p in members])
                if len(results) != len(members):
                    raise RuntimeError(
                        f"{driver.experiment}.run_batch returned "
                        f"{len(results)} results for {len(members)} scenarios"
                    )
                payload = {BATCH_RESULTS_KEY: [r.to_dict() for r in results]}
                return payload, None, time.perf_counter() - start
            result = driver.run(**params)
        return result.to_dict(), None, time.perf_counter() - start
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - start


def payload_checksum(payload: Any) -> str:
    """SHA-256 digest (16 hex chars) of a result payload's canonical JSON.

    Workers send a result as this canonical text plus its checksum; the
    supervisor recomputes the digest over the text it received, and a
    mismatch is classified as a transient ``corrupt`` attempt -- the
    same detect-then-recover move the paper's skeptical outer solvers
    apply to their inner results.
    """
    return _text_checksum(canonical_json(payload))


def _text_checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic attempt budget with exponential backoff.

    Attributes
    ----------
    max_attempts:
        Total attempts a scenario may consume (first try included).
    backoff:
        Delay in seconds before the second attempt; each later attempt
        waits :attr:`BACKOFF_FACTOR` (2) times as long as the one
        before, so attempt ``n`` waits ``backoff * 2**(n - 2)``.
        Deterministic -- no jitter -- so campaign wall-time under chaos
        is reproducible.

    Only *transient* attempts are retried: a deterministic driver raises
    identically every time, so retrying *poison* would waste the budget.
    """

    BACKOFF_FACTOR = 2.0

    max_attempts: int = 3
    backoff: float = 0.05

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    def classify(self, status: str) -> str:
        """``"transient"`` (environment failed) or ``"poison"`` (scenario did)."""
        return "transient" if status in TRANSIENT_STATUSES else "poison"

    def delay(self, attempt: int) -> float:
        """Backoff in seconds before ``attempt`` (1-based; first is free)."""
        if attempt <= 1:
            return 0.0
        return self.backoff * self.BACKOFF_FACTOR ** (attempt - 2)

    def should_retry(self, status: str, attempts_used: int) -> bool:
        """Whether a scenario gets another attempt after ``status``."""
        return (
            attempts_used < self.max_attempts
            and self.classify(status) == "transient"
        )

    def terminal_outcome(self, status: str) -> str:
        """Terminal scenario outcome once retries are exhausted."""
        if status == "timeout":
            return "timeout"
        if status in TRANSIENT_STATUSES:
            return "quarantined"
        return "failed"


# ----------------------------------------------------------------------
# Failure ledger
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptRecord:
    """One executed attempt, as persisted in the failure ledger.

    ``status`` is what happened to *this attempt*: ``"ok"``,
    ``"error"`` (driver raised; ``error`` holds the traceback),
    ``"crashed"`` (worker died), ``"timeout"`` (deadline exceeded;
    worker killed) or ``"corrupt"`` (result checksum mismatch).

    ``outcome`` is set only on a scenario's final attempt:
    ``"completed"``, ``"failed"``, ``"timeout"`` or ``"quarantined"``.
    Records with ``outcome is None`` were retried.
    """

    key: str
    experiment: str
    attempt: int
    status: str
    outcome: Optional[str] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    worker: Optional[int] = None
    wall_time: float = 0.0

    def to_json(self) -> str:
        data = {
            "key": self.key,
            "experiment": self.experiment,
            "attempt": self.attempt,
            "status": self.status,
            "elapsed": self.elapsed,
            "wall_time": self.wall_time,
        }
        if self.outcome is not None:
            data["outcome"] = self.outcome
        if self.error is not None:
            data["error"] = self.error
        if self.worker is not None:
            data["worker"] = self.worker
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "AttemptRecord":
        data = json.loads(line)
        return cls(
            key=data["key"],
            experiment=data["experiment"],
            attempt=int(data["attempt"]),
            status=data["status"],
            outcome=data.get("outcome"),
            error=data.get("error"),
            elapsed=float(data.get("elapsed", 0.0)),
            worker=data.get("worker"),
            wall_time=float(data.get("wall_time", 0.0)),
        )


class FailureLedger:
    """Crash-consistent JSONL journal of every executed attempt.

    One :class:`AttemptRecord` per line, appended (and flushed) as each
    attempt concludes, so a killed campaign leaves a valid ledger
    behind.  The file is created lazily on the first record.  Loading
    follows the result store's rule
    (:func:`~repro.campaign.store.read_jsonl`): a partial trailing line
    is dropped, a corrupt line before it is dropped with a warning; and
    the first record after one starts on a fresh line
    (:class:`~repro.campaign.store.LineAppender`).
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._records = read_jsonl(self.path, AttemptRecord.from_json)
        self._appender = LineAppender(self.path)

    @staticmethod
    def path_for(store_path: str) -> str:
        """The ledger sidecar path for a result-store path.

        ``campaign_results.jsonl`` -> ``campaign_results.ledger.jsonl``.
        """
        base = str(store_path)
        if base.endswith(".jsonl"):
            base = base[: -len(".jsonl")]
        return base + ".ledger.jsonl"

    # ------------------------------------------------------------------
    def record(self, record: AttemptRecord) -> AttemptRecord:
        """Append one attempt to the journal (flushed before return)."""
        self._appender.append(record.to_json())
        self._records.append(record)
        return record

    def history(self) -> Dict[str, List[AttemptRecord]]:
        """Attempts grouped per scenario key, in journal order."""
        grouped: Dict[str, List[AttemptRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.key, []).append(record)
        return grouped

    def outcomes(self) -> Dict[str, AttemptRecord]:
        """The latest terminal record per key (``outcome`` set)."""
        latest: Dict[str, AttemptRecord] = {}
        for record in self._records:
            if record.outcome is not None:
                latest[record.key] = record
        return latest

    def failed_keys(self) -> List[str]:
        """Keys whose latest terminal outcome is a failure.

        A later run that completes a previously failed key appends a
        ``"completed"`` record, which clears it from this set -- the
        ledger is append-only history, never rewritten.
        """
        return [
            key
            for key, record in self.outcomes().items()
            if record.outcome in FAILURE_OUTCOMES
        ]

    def mark_completed(self, key: str, experiment: str) -> AttemptRecord:
        """Reconcile a key the result store holds as completed.

        Appends a zero-attempt ``"completed"`` record so the key leaves
        :meth:`failed_keys`.  The runner calls this when it finds a
        stored result for a key whose latest ledger outcome is still a
        failure -- e.g. a scenario quarantined in one run whose batch
        sibling (or a later solo run journaled elsewhere) completed it:
        the store is authoritative for results, and the ledger must not
        keep reporting a completed scenario as failed.
        """
        return self.record(
            AttemptRecord(
                key=key,
                experiment=experiment,
                attempt=0,
                status="reconciled",
                outcome="completed",
                wall_time=time.time(),
            )
        )

    def __len__(self) -> int:
        return len(self._records)


# ----------------------------------------------------------------------
# Chaos specification
# ----------------------------------------------------------------------
# kind -> the parameter names it takes.
CHAOS_KINDS = {
    "none": frozenset(),
    "worker_crash": frozenset({"p", "attempts"}),
    "worker_hang": frozenset({"p", "attempts", "seconds"}),
    "result_corrupt": frozenset({"p", "attempts"}),
    COMPOSE_KIND: frozenset(),
}

# Exit code of a chaos-crashed worker: distinguishable from SIGKILL
# (-9, the supervisor's own timeout kill) in the worker's exitcode.
CHAOS_EXIT_CODE = 83


def _chaos_draw(chaos_seed: int, key: str, attempt: int, kind: str) -> float:
    """Deterministic uniform draw in [0, 1) for one injection decision.

    A pure function of its arguments (SHA-256, no shared RNG state),
    so a chaos campaign replays identically under any worker count or
    completion order, and each retry sees an independent draw.
    """
    digest = hashlib.sha256(
        f"chaos:{chaos_seed}:{key}:{attempt}:{kind}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class ChaosFault(KindSpec):
    """Declarative fault injection for the runner's own workers.

    Shared spec-string grammar: ``"worker_crash:p=0.1"``,
    ``"worker_hang:p=0.05,seconds=120"``, ``"result_corrupt:p=0.01"``,
    composed with ``+`` like fault specs.  ``"none"`` is the identity
    and never fires.

    Parameters (all kinds): ``p`` -- injection probability per attempt
    (default 1.0); ``attempts`` -- inject only on attempts ``<= N``
    (handy for tests that want "fail exactly the first k tries").
    ``worker_hang`` additionally takes ``seconds`` (default 3600.0),
    which must exceed the supervisor timeout to be observed as a hang.
    """

    NOUN = "chaos"
    KINDS = CHAOS_KINDS
    PARAM_ERROR = "chaos kind {kind!r} does not take parameters {names}; allowed: {allowed}"

    def _check_values(self, params: Dict[str, Any]) -> None:
        p = params.get("p", 1.0)
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"chaos probability p={p!r} outside [0, 1]")
        if "attempts" in params and int(params["attempts"]) < 1:
            raise ValueError("chaos 'attempts' must be >= 1")
        if "seconds" in params and float(params["seconds"]) <= 0:
            raise ValueError("chaos 'seconds' must be > 0")

    @property
    def active(self) -> bool:
        """Whether any component can fire."""
        return any(fault.kind != "none" for fault in self.components)

    def hits(self, chaos_seed: int, key: str, attempt: int) -> bool:
        """Whether this single fault fires on ``attempt`` of scenario ``key``."""
        limit = self.params.get("attempts")
        if self.kind == "none" or (limit is not None and attempt > int(limit)):
            return False
        p = float(self.params.get("p", 1.0))
        return p >= 1.0 or _chaos_draw(chaos_seed, key, attempt, self.kind) < p

    # -- injection (runs inside the worker) ----------------------------
    def pre_run(self, chaos_seed: int, key: str, attempt: int) -> None:
        """Crash or hang the calling worker, per the injection draws."""
        for fault in self.components:
            if fault.kind == "worker_crash" and fault.hits(chaos_seed, key, attempt):
                os._exit(CHAOS_EXIT_CODE)
            if fault.kind == "worker_hang" and fault.hits(chaos_seed, key, attempt):
                time.sleep(float(fault.params.get("seconds", 3600.0)))

    def corrupt_result(
        self, result: dict, chaos_seed: int, key: str, attempt: int
    ) -> dict:
        """Corrupt a result payload *after* it was checksummed."""
        for fault in self.components:
            if fault.kind == "result_corrupt" and fault.hits(chaos_seed, key, attempt):
                corrupted = dict(result)
                corrupted["__chaos_corrupted__"] = attempt
                return corrupted
        return result


def parse_chaos(value: Union[str, Mapping, ChaosFault, None]) -> ChaosFault:
    """Resolve anything chaos-shaped into a :class:`ChaosFault`.

    ``None`` resolves to ``"none"``; strings, dicts and specs go
    through :meth:`repro.spec.Axis.parse`.
    """
    return AXIS.parse(value)


AXIS = Axis(
    name="chaos",
    spec=ChaosFault,
    resolve=parse_chaos,
    keywords=("chaos",),
    identity="none",
)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(channel: Channel, execute: Callable,
                 chaos: Optional[ChaosFault], chaos_seed: int) -> None:
    """Long-lived worker loop: recv a task on the channel, send the result back.

    Tasks are awaited in bounded poll slices; the shutdown frame or EOF
    (the supervisor is gone) ends the loop.  A result is encoded once,
    here: canonical JSON text plus checksum.

    Chaos (when configured) fires *inside* the worker: crashes and
    hangs happen before the driver runs, corruption after the honest
    checksum was computed -- so the supervisor's detection paths are
    exercised end to end, not simulated.
    """
    while True:
        try:
            task = channel.recv(time.monotonic() + POLL_INTERVAL)
        except TimeoutError:
            continue
        except (EOFError, OSError):
            return
        if task is None:
            return
        slot, key, attempt, experiment, params = task
        if chaos is not None:
            chaos.pre_run(chaos_seed, key, attempt)
        result, error, elapsed = execute(experiment, params, attempt)
        text = checksum = None
        if result is not None:
            text = canonical_json(result)
            checksum = _text_checksum(text)
            if chaos is not None:
                text = canonical_json(chaos.corrupt_result(result, chaos_seed, key, attempt))
        try:
            channel.send((text, error, elapsed, checksum))
        except OSError:
            return


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionResult:
    """Terminal state of one supervised task.

    ``status`` is ``"completed"``, ``"failed"`` (poison error),
    ``"timeout"`` (deadline exceeded on the final attempt) or
    ``"quarantined"`` (transient-failure budget exhausted).
    ``attempts`` counts every try, ``history`` their per-attempt
    statuses in order (e.g. ``("crashed", "ok")``), ``text`` the
    verified canonical JSON text ``result`` arrived as from a worker
    (``None`` when it ran in the calling process).
    """

    key: str
    experiment: str
    status: str
    result: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1
    history: Tuple[str, ...] = ()
    text: Optional[str] = None


@dataclass
class _TaskState:
    slot: int
    key: str
    experiment: str
    params: dict
    members: Tuple[str, ...] = ()
    attempts: int = 0
    ready_at: float = 0.0
    history: List[str] = field(default_factory=list)


#: Tasks a worker holds at once: the head runs, the rest wait in its
#: channel.  ``campaign_pool`` ``work_per_s`` over the encode-twice
#: executor by depth: 1 +10.0 %, 2 +12.0 %, 3 +6.4 % (PERFORMANCE.md,
#: *Campaign*).
DEPTH = 2

#: Longest wait (seconds) of the supervisor between liveness checks, and
#: of an idle worker between looks at its channel.
POLL_INTERVAL = 0.05


class SupervisedExecutor:
    """Reliable outer loop over unreliable worker processes.

    Parameters
    ----------
    workers:
        Worker process count (capped at the task count per run); ``0``
        runs every task in the calling process, which can enforce
        neither a ``timeout`` nor ``chaos`` and so refuses both.
    timeout:
        Per-scenario wall-clock budget in seconds; ``None`` disables
        deadlines.  An expired worker is SIGKILLed and respawned; the
        attempt is classified ``timeout``.
    retry:
        :class:`RetryPolicy`; defaults to 3 attempts with a 50 ms
        doubling backoff.
    chaos:
        Optional :class:`ChaosFault` (or spec string/dict) injected into
        the workers themselves.
    chaos_seed:
        Root of the chaos injection draws (pure-function, see
        :func:`_chaos_draw`).
    ledger:
        Optional :class:`FailureLedger`; every attempt is journaled once
        per member key of its task, with an even share of its elapsed
        time.
    execute:
        Module-level callable ``(experiment, params, attempt) ->
        (result_dict, error, elapsed)`` run inside the workers (or the
        calling process).
        Defaults to :func:`default_execute` (the experiment registry);
        tests substitute crashing/hanging fixtures.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Union[ChaosFault, str, Mapping, None] = None,
        chaos_seed: int = 0,
        ledger: Optional[FailureLedger] = None,
        execute: Optional[Callable] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.workers = int(workers)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = parse_chaos(chaos)
        if self.workers == 0 and (timeout is not None or self.chaos.active):
            raise ValueError(
                "workers=0 runs in the calling process, which can enforce "
                "neither a timeout nor chaos"
            )
        self.chaos_seed = int(chaos_seed)
        self.ledger = ledger
        self.execute = execute if execute is not None else default_execute

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[Tuple],
        completed: Optional[Callable[[int, ExecutionResult], None]] = None,
    ) -> List[ExecutionResult]:
        """Drive every ``(key, experiment, params[, member_keys])`` task to
        a terminal state.

        ``key`` seeds the chaos draws; the ledger journals each attempt
        under ``member_keys`` (default ``(key,)``).  Results are returned
        in input order; ``completed(slot, result)`` fires as each task
        concludes (in completion order).
        """
        states = [
            _TaskState(slot, key, experiment, dict(params), *members)
            for slot, (key, experiment, params, *members) in enumerate(tasks)
        ]
        results: List[Optional[ExecutionResult]] = [None] * len(states)
        if not states:
            return []

        worker_count = min(self.workers, len(states))
        workers: List[Child] = []
        idle: List[Child] = []
        # Dispatch order is min over the ready tasks of (ready_at, slot):
        # never-attempted tasks (ready_at 0) in slot order, then retries.
        fresh = deque(states)
        retries: List[Tuple[float, int, _TaskState]] = []  # heap
        # Per busy worker: its tasks, running head first; head start time.
        inflight: Dict[Child, deque[_TaskState]] = {}
        started: Dict[Child, float] = {}

        def spawn() -> None:
            worker = Child.start(
                _worker_main, self.execute,
                self.chaos if self.chaos.active else None, self.chaos_seed
            )
            workers.append(worker)
            idle.append(worker)

        def send(worker: Child) -> None:
            state = fresh.popleft() if fresh else heapq.heappop(retries)[2]
            state.attempts += 1
            try:
                worker.send((state.slot, state.key, state.attempts,
                             state.experiment, state.params))
            except OSError:  # died between results: liveness reclaims it
                pass
            inflight.setdefault(worker, deque()).append(state)

        def conclude(state: _TaskState, status: str, *, error=None,
                     elapsed=0.0, text=None, result=None,
                     worker_pid=None) -> None:
            state.history.append(status)
            retrying = status != "ok" and self.retry.should_retry(
                status, state.attempts
            )
            outcome: Optional[str] = None
            if status == "ok":
                outcome = "completed"
            elif not retrying:
                outcome = self.retry.terminal_outcome(status)
            self._journal(state, status, outcome, error, elapsed, worker_pid)
            if retrying:
                state.ready_at = (
                    time.monotonic() + self.retry.delay(state.attempts + 1)
                )
                heapq.heappush(retries, (state.ready_at, state.slot, state))
                return
            final = ExecutionResult(
                key=state.key,
                experiment=state.experiment,
                status=outcome,
                result=json.loads(text) if text is not None else result,
                error=error,
                elapsed=elapsed,
                attempts=state.attempts,
                history=tuple(state.history),
                text=text,
            )
            results[state.slot] = final
            if completed is not None:
                completed(state.slot, final)

        def reclaim(worker: Child, status: str) -> None:
            """Stop a dead (``crashed``) or overdue (``timeout``) worker and
            respawn it; its head is charged, the tasks behind it requeued."""
            queue = inflight.pop(worker, None)
            if queue is None:
                return
            del started[worker]
            workers.remove(worker)
            exitcode = worker.kill()
            error = (
                f"scenario exceeded timeout of {self.timeout}s; worker killed"
                if status == "timeout" else f"worker died with exit code "
                f"{exitcode} while running this scenario"
            )
            spawn()
            head = queue.popleft()
            for state in queue:  # never started: same attempt next time
                state.attempts -= 1
                if state.attempts:
                    heapq.heappush(retries, (state.ready_at, state.slot, state))
                else:  # back among the fresh, in slot order
                    at = bisect.bisect(fresh, state.slot, key=attrgetter("slot"))
                    fresh.insert(at, state)
            conclude(head, status, worker_pid=worker.pid, error=error,
                     elapsed=self.timeout if status == "timeout" else 0.0)

        def dispatch(now: float) -> None:
            """Every ready task to an idle worker, then queue one behind a
            busy worker's head while the ready backlog outnumbers the
            workers (never in the tail)."""
            while idle and (fresh or (retries and retries[0][0] <= now)):
                worker = idle.pop(0)
                send(worker)
                started[worker] = now
            ready = len(fresh) + sum(1 for entry in retries if entry[0] <= now)
            for worker, queue in inflight.items():
                while len(queue) < DEPTH and ready > worker_count:
                    send(worker)
                    ready -= 1

        if self.workers == 0:
            # In process an attempt is "ok" or "error", never retried.
            for state in states:
                state.attempts = 1
                result, error, elapsed = self.execute(
                    state.experiment, state.params, 1
                )
                conclude(state, "ok" if error is None else "error",
                         error=error, elapsed=elapsed, result=result)
            return list(results)  # type: ignore[return-value]

        try:
            for _ in range(worker_count):
                spawn()
            while fresh or retries or inflight:
                now = time.monotonic()
                dispatch(now)

                # How long we may block: next deadline, next backoff
                # expiry, or the liveness poll interval.
                wait = POLL_INTERVAL
                if self.timeout is not None and started:
                    wait = min(wait, min(started.values()) + self.timeout - now)
                if idle and retries:  # a worker left idle: nothing fresh
                    wait = min(wait, retries[0][0] - now)
                wait = max(wait, 0.005)

                # Drain results.  A hang-up (EOF) means the worker died
                # mid-scenario: it is its channel's only other holder.
                received = []
                for worker in wait_ready(inflight, wait):
                    try:
                        message = worker.recv(now)  # ready: never waits
                    except (EOFError, OSError):
                        reclaim(worker, "crashed")
                        continue
                    queue = inflight.get(worker)
                    if not queue:
                        continue
                    received.append((worker, queue.popleft(), message))
                    if queue:  # the worker has started the next one
                        started[worker] = time.monotonic()
                    else:
                        del inflight[worker], started[worker]
                        idle.append(worker)
                # Refill the workers before the bookkeeping of what they sent.
                if received:
                    dispatch(time.monotonic())
                for worker, state, (text, error, elapsed, checksum) in received:
                    if error is not None:
                        conclude(state, "error", error=error,
                                 elapsed=elapsed, worker_pid=worker.pid)
                    elif text is None or checksum != _text_checksum(text):
                        conclude(state, "corrupt", elapsed=elapsed,
                                 worker_pid=worker.pid,
                                 error="result checksum mismatch "
                                       f"(expected {checksum})")
                    else:
                        conclude(state, "ok", text=text,
                                 elapsed=elapsed, worker_pid=worker.pid)

                # Deadlines: kill + respawn expired workers.
                now = time.monotonic()
                for worker in list(inflight):
                    if self.timeout is not None and now >= started[worker] + self.timeout:
                        reclaim(worker, "timeout")

                # Liveness: a dead worker with an in-flight task and
                # nothing readable on its channel crashed mid-scenario.
                # (Usually the channel's EOF gets there first and the
                # drain above reclaims it; this is the backstop.)
                for worker in list(inflight):
                    if not (worker.alive() or worker.poll(0)):
                        reclaim(worker, "crashed")
        finally:
            stop_all(workers, grace=2.0)

        return list(results)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _journal(
        self,
        state: _TaskState,
        status: str,
        outcome: Optional[str],
        error: Optional[str],
        elapsed: float,
        worker_pid: Optional[int],
    ) -> None:
        if self.ledger is None:
            return
        keys = state.members or (state.key,)
        for key in keys:
            self.ledger.record(
                AttemptRecord(
                    key=key,
                    experiment=state.experiment,
                    attempt=state.attempts,
                    status=status,
                    outcome=outcome,
                    error=error,
                    elapsed=float(elapsed) / len(keys),
                    worker=worker_pid,
                    wall_time=time.time(),
                )
            )
