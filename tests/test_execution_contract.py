"""One execution contract: how a scenario is executed never changes its answer.

The paper's selective-reliability argument (§II–III) lets a reliable
outer loop retry an unreliable inner resource without changing the
answer; the campaign executor applies it to its own workers.  One
derandomized property checks the rule over the declared scenario space
(the union of the builtin campaigns, each scenario resolved through
:meth:`CampaignRunner.resolve`) and every execution mode: one or two
workers, scenario-at-a-time or lockstep batches of any cap, and worker
chaos.  Each example runs into a fresh store and ledger and asserts

(a) the store holds exactly the keys and payloads of an in-process
    reference run (one worker, no chaos, no batching), byte for byte
    (a result is a function of its parameters: none holds a wall-clock
    value);
(b) a re-run with the same configuration reports every scenario
    ``cached`` and leaves the store and ledger bytes unchanged;
(c) the ledger accounts for every chaos attempt: each scenario's key
    holds its unit's attempt statuses, in order, as
    :meth:`ChaosFault.hits` predicts them -- a batched unit's members
    each hold the whole unit history.

The explicit examples make every chaos path run on every run; the
``worker_hang`` one over E7 cells (each < 20 ms of honest work) is the
property's only wall-clock wait.  Six drawn examples plus the four
explicit ones keep the property inside its 2.5 s budget (≈ 1.5 s on a
2-core host).
"""

from __future__ import annotations

import pathlib
import tempfile
from operator import attrgetter
from typing import Dict, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.builtin import builtin_campaign, builtin_campaign_names
from repro.campaign.executor import (
    BATCH_PARAMS_KEY,
    ChaosFault,
    FailureLedger,
    RetryPolicy,
    parse_chaos,
)
from repro.campaign.runner import CampaignRunner, plan_batch_groups
from repro.campaign.spec import Scenario, canonical_json, scenario_key
from repro.campaign.store import ResultStore

BASE_SEED = 2013

#: No backoff; every drawn fault is capped below the budget, so every
#: unit converges.
RETRY = RetryPolicy(max_attempts=3, backoff=0.0)

#: The attempt status each chaos kind produces when it fires.
CHAOS_STATUS = {
    "worker_crash": "crashed",
    "worker_hang": "timeout",
    "result_corrupt": "corrupt",
}


def _declared_space() -> List[Scenario]:
    runner = CampaignRunner(base_seed=BASE_SEED)
    space: Dict[str, Scenario] = {}
    for name in builtin_campaign_names():
        for scenario in builtin_campaign(name):
            resolved = runner.resolve(scenario)
            space.setdefault(resolved.key, resolved)
    return list(space.values())


SPACE = _declared_space()


def _cells(experiment: str, tag: str, count: int) -> List[Scenario]:
    found = [s for s in SPACE if s.experiment == experiment and s.tag == tag]
    return found[:count]


def _cell(experiment: str, tag: str, **params) -> Scenario:
    """The one declared scenario with exactly these resolved parameters."""
    (found,) = [s for s in SPACE if s.experiment == experiment and s.tag == tag
                and dict(s.params) == params]
    return found


#: Reference payload per scenario key, kept across examples.
_REFERENCE: Dict[str, str] = {}


def _reference(scenarios: List[Scenario]) -> Dict[str, str]:
    missing = [s for s in scenarios if s.key not in _REFERENCE]
    for outcome in CampaignRunner(base_seed=BASE_SEED, ledger=False).run(missing):
        assert outcome.status == "completed", outcome.error
        _REFERENCE[outcome.key] = canonical_json(outcome.result)
    return {s.key: _REFERENCE[s.key] for s in scenarios}


def _predicted(chaos: ChaosFault, key: str) -> List[str]:
    """Attempt statuses of unit ``key``: crash and hang fire before the
    driver runs and corruption after it, each kind in fault order."""
    statuses: List[str] = []
    for attempt in range(1, RETRY.max_attempts + 1):
        fired = sorted(
            (f.kind for f in chaos.components if f.hits(BASE_SEED, key, attempt)),
            key=lambda kind: kind == "result_corrupt",
        )
        if not fired:
            return statuses + ["ok"]
        statuses.append(CHAOS_STATUS[fired[0]])
    raise AssertionError(f"unit {key} cannot converge: {statuses}")


def _unit_keys(scenarios: List[Scenario], batch: int) -> Dict[str, str]:
    """Scenario key -> key of the unit it is dispatched in."""
    if batch == 1:
        return {s.key: s.key for s in scenarios}
    units = {}
    for group in plan_batch_groups(scenarios, limit=batch):
        members = [scenarios[i] for i in group]
        unit = members[0].key if len(members) == 1 else scenario_key(
            members[0].experiment,
            {BATCH_PARAMS_KEY: [dict(m.params) for m in members]},
        )
        units.update((m.key, unit) for m in members)
    return units


@st.composite
def _chaos(draw) -> str:
    kinds = draw(st.lists(st.sampled_from(("worker_crash", "result_corrupt")),
                          unique=True, max_size=2))
    faults = [
        f"{kind}:p={draw(st.sampled_from((0.3, 0.6, 1.0)))},"
        f"attempts={draw(st.integers(1, RETRY.max_attempts - 1))}"
        for kind in kinds
    ]
    return "+".join(faults) or "none"


def _check_contract(scenarios, workers, batch, chaos, timeout):
    """One example of the property.  It lives outside the test function
    because ``derandomize`` seeds the draws from that function's source."""
    spec = parse_chaos(chaos)
    reference = _reference(scenarios)
    units = _unit_keys(scenarios, batch)
    predicted = {s.key: _predicted(spec, units[s.key]) for s in scenarios}
    with tempfile.TemporaryDirectory() as tmp:
        store = pathlib.Path(tmp, "store.jsonl")
        ledger = pathlib.Path(FailureLedger.path_for(str(store)))

        def run():
            return CampaignRunner(
                ResultStore(str(store)), workers=workers, base_seed=BASE_SEED,
                timeout=timeout, retry=RETRY, chaos=spec, batch=batch,
            ).run(scenarios)

        outcomes = run()
        assert [(o.status, o.attempts) for o in outcomes] == [
            ("completed", len(predicted[s.key])) for s in scenarios
        ]

        # (a) the reference's keys and payloads, and nothing else.
        stored = {r.key: canonical_json(r.result)
                  for r in ResultStore(str(store)).records()}
        assert stored == reference

        # (c) every attempt accounted for, under every member's key.
        history = FailureLedger(str(ledger)).history()
        assert set(history) == set(reference)
        for key, statuses in predicted.items():
            expected = list(enumerate(statuses, 1))
            assert [(r.attempt, r.status) for r in history[key]] == expected
            assert history[key][-1].outcome == "completed"
        # Every predicted status is seen.  (A p=1 kind need not be: a
        # crash on attempt 1 can close a one-attempt corrupt window.)
        seen = {r.status for records in history.values() for r in records}
        assert {status for statuses in predicted.values() for status in statuses} <= seen

        # (b) a re-run executes nothing and writes nothing.
        before = store.read_bytes(), ledger.read_bytes()
        assert [o.status for o in run()] == ["cached"] * len(scenarios)
        assert (store.read_bytes(), ledger.read_bytes()) == before


@settings(derandomize=True, deadline=None, max_examples=6)
@given(
    scenarios=st.lists(st.sampled_from(SPACE), min_size=1, max_size=6,
                       unique_by=attrgetter("key")),
    workers=st.sampled_from((1, 2)),
    batch=st.sampled_from((1, 0, 2, 3)),
    chaos=_chaos(),
    timeout=st.none(),
)
@example(scenarios=_cells("E1", "replicas", 1) + _cells("E6", "smoke", 1),
         workers=2, batch=1, chaos="worker_crash:p=1,attempts=2", timeout=None)
@example(scenarios=_cells("E7", "default", 2), workers=1, batch=1,
         chaos="result_corrupt:p=1,attempts=1", timeout=None)
@example(scenarios=_cells("E7", "smoke", 2), workers=2, batch=1,
         chaos="worker_hang:p=1,attempts=1,seconds=60", timeout=0.3)
@example(scenarios=[_cell("E1", "default", grid=10, n_trials=4, inject_at=6,
                          check_period=1, seed=1227665446)],
         workers=1, batch=1, timeout=None,
         chaos="worker_crash:p=0.3,attempts=1+result_corrupt:p=1.0,attempts=1")
def test_execution_never_changes_the_answer(scenarios, workers, batch, chaos, timeout):
    _check_contract(scenarios, workers, batch, chaos, timeout)
