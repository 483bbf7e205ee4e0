"""Campaign execution: supervised, memoized, seeded, journaled.

The :class:`CampaignRunner` takes a list of
:class:`~repro.campaign.spec.Scenario` and

* *resolves* each scenario -- validates its parameters against the
  driver signature and, when the driver accepts a ``seed`` the scenario
  did not pin, injects a deterministic per-scenario seed derived from
  the campaign base seed and the scenario key (so the randomness a
  scenario sees never depends on execution order, worker count, or
  which attempt finally succeeds);
* *memoizes* against the result store -- scenarios whose resolved key
  is already stored are skipped, which makes re-running a completed
  campaign a no-op;
* *executes* the rest -- one scenario, or one lockstep group under
  ``batch``, per unit -- through the supervised executor
  (:mod:`repro.campaign.executor`), appending each success to the store
  as it arrives;
* has the executor *journal* every attempt -- success or failure -- of
  every scenario to the :class:`~repro.campaign.executor.FailureLedger`
  sidecar next to the store, so failures survive the process and
  ``campaign run --retry-failed`` can re-target exactly the
  failed/quarantined set.

The supervised executor treats workers the way FT-GMRES treats its
inner solver: an unreliable resource whose faults (crashes, hangs,
corrupted results) are detected, bounded by timeouts and attempt
budgets, and recovered from by respawn + retry.  Workers receive only
picklable payloads (experiment id + params) and return plain dicts, so
execution works under both fork and spawn start methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.executor import (
    BATCH_PARAMS_KEY,
    BATCH_RESULTS_KEY,
    ChaosFault,
    ExecutionResult,
    FailureLedger,
    RetryPolicy,
    SupervisedExecutor,
    parse_chaos,
)
from repro.campaign.registry import ExperimentRegistry, default_registry
from repro.campaign.spec import Scenario, scenario_key
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentResult, batch_signature

# The per-scenario seed derivation is shared with the reliability
# layer (repro.reliability.seeding), so fault models built from a
# scenario seed draw the same streams at every entry point.
from repro.reliability.seeding import derive_seed

__all__ = [
    "CampaignRunner",
    "ScenarioOutcome",
    "derive_seed",
    "plan_batch_groups",
]


@dataclass(frozen=True)
class ScenarioOutcome:
    """What happened to one scenario during a campaign run.

    ``status`` is ``"completed"`` (executed this run), ``"cached"``
    (already in the store; skipped), ``"failed"`` (driver raised;
    ``error`` holds the traceback), ``"timeout"`` (exceeded the
    per-scenario deadline on its final attempt) or ``"quarantined"``
    (transient failures -- worker crashes, timeouts, corrupt results --
    exhausted the retry budget).  ``result`` is the serialized
    :class:`ExperimentResult` dict for completed/cached scenarios, and
    ``attempts`` how many tries the scenario consumed.
    """

    scenario: Scenario
    key: str
    status: str
    result: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1

    def experiment_result(self) -> Optional[ExperimentResult]:
        return ExperimentResult.from_dict(self.result) if self.result else None


def plan_batch_groups(
    scenarios: Sequence[Scenario],
    registry: Optional[ExperimentRegistry] = None,
    limit: int = 0,
) -> List[List[int]]:
    """Partition scenario indices into batch-compatible dispatch groups.

    Returns index groups covering every scenario exactly once (no
    drops, no duplicates), ordered by first member.  Scenarios share a
    group exactly when their driver exposes ``run_batch`` and their
    :func:`~repro.experiments.common.batch_signature` agrees (every
    declared parameter except ``seed``) -- the same function the
    drivers' ``run_batch`` groups by -- so a group can be
    executed as one lockstep ``run_batch`` call.  Everything else
    (no batch driver, or a unique parameter signature) stays a
    singleton.  ``limit`` caps the group size (``0`` = unbounded);
    oversized groups split into consecutive chunks.
    """
    registry = registry or default_registry()
    groups: List[List[int]] = []
    slots: Dict[Tuple[str, str], int] = {}
    for index, scenario in enumerate(scenarios):
        driver = registry.get(scenario.experiment)
        if driver.run_batch is None:
            groups.append([index])
            continue
        signature = (driver.experiment, batch_signature(scenario.params))
        at = slots.get(signature)
        if at is None:
            slots[signature] = len(groups)
            groups.append([index])
        else:
            groups[at].append(index)
    if limit and limit > 0:
        groups = [
            group[start : start + limit]
            for group in groups
            for start in range(0, len(group), limit)
        ]
    return groups


class CampaignRunner:
    """Execute scenarios against a registry, store and supervised workers.

    Parameters
    ----------
    store:
        Result store for memoization and persistence; ``None`` disables
        both (every scenario always runs).
    workers:
        ``1`` executes in the calling process (unless ``timeout`` or
        ``chaos`` require a supervised subprocess); ``> 1`` uses a
        supervised pool of long-lived worker processes.  Either way the
        :class:`~repro.campaign.executor.SupervisedExecutor` runs every
        unit.
    base_seed:
        Root of the per-scenario seed derivation (and of the chaos
        injection draws).
    registry:
        Defaults to the auto-discovered experiment registry.
    progress:
        Optional callback invoked with each :class:`ScenarioOutcome`
        as it is produced (the CLI uses this for line-per-scenario
        output).
    timeout:
        Per-scenario wall-clock budget in seconds; expired workers are
        killed and respawned, the attempt classified ``timeout``.
        ``None`` (default) disables deadlines.
    retry:
        :class:`~repro.campaign.executor.RetryPolicy`; defaults to
        3 attempts with a 50 ms doubling backoff.
    chaos:
        Optional :class:`~repro.campaign.executor.ChaosFault` (or spec
        string such as ``"worker_crash:p=0.1"``) injecting faults into
        the runner's own workers -- the chaos harness.
    ledger:
        ``True`` (default) journals every attempt to the store's sidecar
        (``<store>.ledger.jsonl``) when a store is configured; ``False``
        disables journaling.
    batch:
        Batched dispatch: ``1`` (default) runs scenario-at-a-time;
        any other value groups pending scenarios that share a driver
        ``run_batch`` and a parameter signature (everything equal
        except ``seed``) into lockstep units of at most ``batch``
        members (``0`` = unbounded), each executed as *one* supervised
        task -- one retry budget, one chaos draw stream, one timeout.
        Results are bit-identical to the sequential path (the driver
        batch protocol guarantees it); the ledger records every attempt
        of the unit under each member's key.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        workers: int = 1,
        base_seed: int = 2013,
        registry: Optional[ExperimentRegistry] = None,
        progress: Optional[Callable[[ScenarioOutcome], None]] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Union[ChaosFault, str, Mapping, None] = None,
        ledger: bool = True,
        batch: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch < 0:
            raise ValueError("batch must be >= 0 (0 = unbounded group size)")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.store = store
        self.workers = int(workers)
        self.base_seed = int(base_seed)
        self.registry = registry or default_registry()
        self.progress = progress
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = parse_chaos(chaos)
        self.ledger = (
            FailureLedger(FailureLedger.path_for(store.path))
            if ledger and store is not None else None
        )
        self.batch = int(batch)

    # ------------------------------------------------------------------
    def resolve(self, scenario: Scenario) -> Scenario:
        """Validate a scenario and pin its per-scenario seed.

        The seed is derived from the key of the *unseeded* scenario, so
        the resolved scenario (and therefore its store key) is a pure
        function of the campaign base seed and the declared overrides.
        Resolution happens once, before dispatch -- attempt 3 on a
        respawned worker sees byte-identical parameters (seed included)
        to attempt 1, which is what makes retried results bit-identical
        to first-try ones.
        """
        driver = self.registry.get(scenario.experiment)
        driver.validate_params(scenario.params)
        if driver.accepts("seed") and "seed" not in scenario.params:
            return scenario.with_params(
                seed=derive_seed(self.base_seed, scenario.key)
            )
        return scenario

    # ------------------------------------------------------------------
    def run(self, scenarios: Sequence[Scenario]) -> List[ScenarioOutcome]:
        """Execute ``scenarios``; returns outcomes in input order."""
        resolved = [self.resolve(s) for s in scenarios]
        outcomes: List[ScenarioOutcome] = [None] * len(resolved)  # type: ignore

        failed_in_ledger = (
            set(self.ledger.failed_keys()) if self.ledger is not None else set()
        )
        pending: List[Tuple[int, Scenario]] = []
        for index, scenario in enumerate(resolved):
            key = scenario.key
            record = self.store.get(key) if self.store is not None else None
            if record is not None:
                if key in failed_in_ledger:
                    # Store and ledger disagree: the key has a stored
                    # result (completed in some run the ledger did not
                    # see terminally -- e.g. quarantined here, later
                    # completed alongside its batch siblings) but its
                    # latest ledger outcome is still a failure.  The
                    # store is authoritative for results; reconcile so
                    # failed_keys()/--retry-failed stop reporting it.
                    self.ledger.mark_completed(key, scenario.experiment)
                    failed_in_ledger.discard(key)
                outcomes[index] = ScenarioOutcome(
                    scenario=scenario, key=key, status="cached",
                    result=record.result, elapsed=record.elapsed,
                )
                self._report(outcomes[index])
            else:
                pending.append((index, scenario))

        if self.batch == 1:
            units = [[slot] for slot in range(len(pending))]
        else:
            units = plan_batch_groups(
                [s for _, s in pending], self.registry, self.batch
            )

        def unit_task(unit: List[int]) -> tuple:
            members = [pending[slot][1] for slot in unit]
            if len(members) == 1:
                return (members[0].key, members[0].experiment, members[0].params)
            payload = {BATCH_PARAMS_KEY: [dict(m.params) for m in members]}
            # Content-derived unit key: stable across runs, so chaos
            # draws and retry histories of a batched unit reproduce.
            return (
                scenario_key(members[0].experiment, payload),
                members[0].experiment,
                payload,
                tuple(m.key for m in members),
            )

        def conclude_unit(number: int, final: ExecutionResult) -> None:
            # Called as each unit reaches a terminal state, so the store
            # grows incrementally: killing a long campaign loses only the
            # units still in flight, and the re-run resumes from
            # everything already appended.  A unit shares one fate; a
            # completed batch unpacks per-member results in member order,
            # and members report an equal share of the unit's wall time.
            unit = units[number]
            completed = final.status == "completed"
            results = [None] * len(unit)
            if completed:
                results = (final.result[BATCH_RESULTS_KEY] if len(unit) > 1
                           else [final.result])
            for slot, result in zip(unit, results):
                index, scenario = pending[slot]
                outcome = ScenarioOutcome(
                    scenario=scenario, key=scenario.key, status=final.status,
                    result=result, error=final.error,
                    elapsed=final.elapsed / len(unit), attempts=final.attempts,
                )
                if completed and self.store is not None:
                    self.store.append(
                        scenario.key,
                        experiment=scenario.experiment,
                        tag=scenario.tag,
                        params=scenario.params,
                        result=result,
                        elapsed=outcome.elapsed,
                        result_text=final.text if len(unit) == 1 else None,
                    )
                outcomes[index] = outcome
                self._report(outcome)

        in_process = (
            self.workers == 1 and self.timeout is None and not self.chaos.active
        )
        SupervisedExecutor(
            workers=0 if in_process else self.workers,
            timeout=self.timeout,
            retry=self.retry,
            chaos=self.chaos,
            chaos_seed=self.base_seed,
            ledger=self.ledger,
        ).run([unit_task(unit) for unit in units], completed=conclude_unit)
        return outcomes

    # ------------------------------------------------------------------
    def _report(self, outcome: ScenarioOutcome) -> None:
        if self.progress is not None:
            self.progress(outcome)
