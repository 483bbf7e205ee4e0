"""``python -m repro.campaign`` -- list / run / report.

Examples
--------
List every sweepable axis and built-in campaign::

    python -m repro.campaign list

``list`` prints one table per registry -- the auto-discovered
experiment drivers (:mod:`repro.campaign.registry`), then every declared
axis that has named entries (:func:`repro.axes.declared_axes`: solvers,
fault models, preconditioners, precisions, communicator backends), each
with the columns its registry declares -- and the built-in campaigns
(name, scenario count, experiments covered).

Show the scenarios of a campaign::

    python -m repro.campaign list smoke

Run a built-in campaign by name (``default`` when none is given)::

    python -m repro.campaign run precond
    python -m repro.campaign run --workers 2 --store campaign_results.jsonl

Run only the E1/E6 slice of the smoke campaign::

    python -m repro.campaign run smoke --experiment E1 --experiment E6

Run under supervision -- per-scenario timeout, retry budget, chaos
injection into the runner's own workers -- then re-execute exactly the
failed/quarantined set::

    python -m repro.campaign run smoke --timeout 30 --retries 5 \
        --chaos "worker_crash:p=0.3+worker_hang:p=0.1"
    python -m repro.campaign run smoke --retry-failed

Render the aggregate report (including the failure history from the
ledger sidecar) of everything completed so far::

    python -m repro.campaign report --store campaign_results.jsonl

See CAMPAIGNS.md for the full manual.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.axes import declared_axes
from repro.campaign.builtin import builtin_campaign, builtin_campaign_names
from repro.campaign.registry import default_registry
from repro.campaign.executor import FAILURE_OUTCOMES, FailureLedger, RetryPolicy
from repro.campaign.report import render_report
from repro.campaign.runner import CampaignRunner, ScenarioOutcome
from repro.campaign.spec import Scenario
from repro.campaign.store import ResultStore
from repro.utils.tables import Table

__all__ = ["main"]

DEFAULT_STORE = "campaign_results.jsonl"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative scenario sweeps over the E1-E10 experiment drivers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser(
        "list", help="list experiments, campaigns, or a campaign's scenarios"
    )
    list_cmd.add_argument(
        "campaign", nargs="?", default=None,
        help="show the scenarios of this built-in campaign",
    )
    list_cmd.add_argument("--experiment", action="append", default=None,
                          help="filter by experiment id or name (repeatable)")
    list_cmd.add_argument("--tag", help="filter scenarios by tag")

    run_cmd = commands.add_parser("run", help="execute a campaign")
    run_cmd.add_argument(
        "campaign", nargs="?", default="default",
        help=f"built-in campaign to run (default: 'default'; "
             f"known: {', '.join(builtin_campaign_names())})",
    )
    run_cmd.add_argument("--experiment", action="append", default=None,
                         help="run only these experiments (repeatable)")
    run_cmd.add_argument("--tag", help="run only scenarios with this tag")
    run_cmd.add_argument("--workers", type=int, default=2,
                         help="worker processes (1 = in-process; default 2)")
    run_cmd.add_argument("--store", default=DEFAULT_STORE,
                         help=f"JSONL result store (default {DEFAULT_STORE})")
    run_cmd.add_argument("--no-store", action="store_true",
                         help="do not persist or memoize results")
    run_cmd.add_argument("--base-seed", type=int, default=2013,
                         help="root of per-scenario seed derivation")
    run_cmd.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-scenario wall-clock budget; an expired "
                              "worker is killed and respawned")
    run_cmd.add_argument("--retries", type=int, default=3, metavar="N",
                         help="attempt budget per scenario, first try "
                              "included (default 3)")
    run_cmd.add_argument("--backoff", type=float, default=0.05, metavar="SECONDS",
                         help="delay before the second attempt, doubling "
                              "per retry (default 0.05)")
    run_cmd.add_argument("--chaos", default=None, metavar="SPEC",
                         help="inject faults into the runner's own workers, "
                              "e.g. 'worker_crash:p=0.1+worker_hang:p=0.05'")
    run_cmd.add_argument("--retry-failed", action="store_true",
                         help="run only the scenarios the ledger marks "
                              "failed/timeout/quarantined")
    run_cmd.add_argument("--no-ledger", action="store_true",
                         help="do not journal attempts to the failure ledger")
    run_cmd.add_argument("--batch", type=int, default=1, metavar="S",
                         help="group compatible pending scenarios (same "
                              "driver run_batch, same params except seed) "
                              "into lockstep batches of at most S, each "
                              "one supervised unit; 0 = unbounded group "
                              "size, 1 (default) = scenario-at-a-time")

    report_cmd = commands.add_parser("report", help="render the aggregate report")
    report_cmd.add_argument("--store", default=DEFAULT_STORE)
    report_cmd.add_argument("--ledger", default=None,
                            help="failure-ledger path (default: the store's "
                                 "'.ledger.jsonl' sidecar)")
    report_cmd.add_argument("--experiment", help="restrict to one experiment")
    report_cmd.add_argument("--tag", help="restrict to one tag")
    return parser


def _filter_scenarios(
    scenarios: List[Scenario],
    experiments: Optional[List[str]],
    tag: Optional[str],
) -> List[Scenario]:
    registry = default_registry()
    if experiments:
        wanted = {registry.get(e).experiment for e in experiments}
        scenarios = [s for s in scenarios if s.experiment in wanted]
    if tag:
        scenarios = [s for s in scenarios if s.tag == tag]
    return scenarios


def _print_registry(registry, entries=None) -> None:
    """One listing table: the registry's columns, one ``row()`` per entry."""
    entries = list(registry) if entries is None else entries
    table = Table(list(registry.COLUMNS),
                  title=f"registered {registry.NOUN}s ({len(entries)})")
    for entry in entries:
        table.add_row(*entry.row())
    print(table.render())
    print()


def _cmd_list(args) -> int:
    if args.campaign:
        scenarios = _filter_scenarios(
            builtin_campaign(args.campaign), args.experiment, args.tag
        )
        table = Table(["key", "experiment", "tag", "overrides"],
                      title=f"campaign '{args.campaign}' ({len(scenarios)} scenarios)")
        for scenario in scenarios:
            table.add_row(scenario.key, scenario.experiment, scenario.tag or "-",
                          scenario.describe())
        print(table.render())
        return 0

    registry = default_registry()
    drivers = list(registry)
    if args.experiment:
        wanted = {registry.get(e).experiment for e in args.experiment}
        drivers = [d for d in drivers if d.experiment in wanted]
    _print_registry(registry, drivers)
    for axis in declared_axes():
        if axis.registry is not None:
            _print_registry(axis.registry())
    campaigns = Table(["campaign", "scenarios", "experiments"],
                      title="built-in campaigns")
    for name in builtin_campaign_names():
        scenarios = builtin_campaign(name)
        campaigns.add_row(
            name, len(scenarios),
            ",".join(sorted({s.experiment for s in scenarios})),
        )
    print(campaigns.render())
    return 0


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    campaign = args.campaign

    def progress(outcome: ScenarioOutcome) -> None:
        marker = {
            "completed": "ran", "cached": "skip", "failed": "FAIL",
            "timeout": "TIME", "quarantined": "QUAR",
        }[outcome.status]
        retries = f" x{outcome.attempts}" if outcome.attempts > 1 else ""
        print(f"[{marker:>4}] {outcome.key}  {outcome.scenario.experiment:<3} "
              f"{outcome.scenario.describe()}  ({outcome.elapsed:.2f}s{retries})")
        if outcome.error:
            print(outcome.error, file=sys.stderr)

    try:  # every input is resolved here, before anything runs
        scenarios = _filter_scenarios(
            builtin_campaign(campaign), args.experiment, args.tag
        )
        store = None if args.no_store else ResultStore(args.store)
        runner = CampaignRunner(
            store,
            workers=args.workers,
            base_seed=args.base_seed,
            progress=progress,
            timeout=args.timeout,
            retry=RetryPolicy(max_attempts=args.retries, backoff=args.backoff),
            chaos=args.chaos,
            ledger=not args.no_ledger,
            batch=args.batch,
        )
    except (KeyError, ValueError) as error:
        parser.error(error.args[0])
    if not scenarios:
        print("nothing to run (filters matched no scenarios)", file=sys.stderr)
        return 2

    if args.retry_failed:
        # Re-target exactly the failed/quarantined set the ledger
        # recorded: resolved keys whose latest terminal outcome is a
        # failure and that never made it into the store.  Nothing
        # cached is re-run -- the store stays authoritative.
        if runner.ledger is None:
            print("--retry-failed needs a ledger (drop --no-ledger/--no-store)",
                  file=sys.stderr)
            return 2
        failed_keys = set(runner.ledger.failed_keys())
        if store is not None:
            failed_keys -= set(store.keys())
        scenarios = [s for s in scenarios if runner.resolve(s).key in failed_keys]
        if not scenarios:
            print("nothing to retry: the ledger records no failed/quarantined "
                  "scenarios for this campaign")
            return 0

    outcomes = runner.run(scenarios)
    ran = sum(o.status == "completed" for o in outcomes)
    cached = sum(o.status == "cached" for o in outcomes)
    failed = sum(o.status in FAILURE_OUTCOMES for o in outcomes)
    retried = sum(o.attempts > 1 for o in outcomes)
    experiments = sorted({o.scenario.experiment for o in outcomes})
    print(
        f"\ncampaign '{campaign}': {len(outcomes)} scenarios over "
        f"{len(experiments)} experiments ({', '.join(experiments)}) -- "
        f"{ran} ran, {cached} cached, {failed} failed"
        + (f", {retried} retried" if retried else "")
        + (f"; store: {store.path}" if store is not None else "")
    )
    return 1 if failed else 0


def _cmd_report(args) -> int:
    store = ResultStore(args.store)
    ledger_path = args.ledger or FailureLedger.path_for(args.store)
    ledger = FailureLedger(ledger_path) if os.path.exists(ledger_path) else None
    print(render_report(store, experiment=args.experiment, tag=args.tag,
                        ledger=ledger))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; a bad input (unknown campaign or experiment, an
    out-of-range number, a malformed chaos spec) exits with status 2 and
    a one-line usage error before any scenario runs."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        try:  # listing only looks things up
            return _cmd_list(args)
        except (KeyError, ValueError) as error:
            parser.error(error.args[0])
    if args.command == "run":
        return _cmd_run(args, parser)
    return _cmd_report(args)
