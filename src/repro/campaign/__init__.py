"""Declarative scenario sweeps over the experiment drivers.

The campaign subsystem turns the hand-wired ``e*.py`` drivers into a
sweepable scenario space:

* :mod:`repro.campaign.spec` -- :class:`Scenario` (experiment id +
  parameter overrides), :class:`Sweep` (grid/zip expansion), and
  stable scenario keys.
* :mod:`repro.campaign.registry` -- auto-discovers every driver that
  implements the ``SPEC`` + ``run(**params) -> ExperimentResult``
  protocol of :mod:`repro.experiments`.
* :mod:`repro.campaign.runner` -- :class:`CampaignRunner`: sequential
  or supervised-multiprocessing execution with deterministic
  per-scenario seeding and memoization against the result store.
* :mod:`repro.campaign.executor` -- the resilient execution layer:
  :class:`SupervisedExecutor` (long-lived workers, per-scenario
  timeouts, crash detection + respawn), :class:`RetryPolicy`
  (deterministic backoff, transient-vs-poison classification,
  quarantine), :class:`FailureLedger` (crash-consistent JSONL attempt
  journal) and :class:`ChaosFault` (fault injection into the runner's
  own workers, composed with ``+``).
* :mod:`repro.campaign.store` -- :class:`ResultStore`: a JSONL file of
  completed scenarios, round-tripping
  :class:`~repro.experiments.common.ExperimentResult`.
* :mod:`repro.campaign.report` -- aggregate report rendering,
  including the ledger's failure history.
* :mod:`repro.campaign.builtin` -- the six named campaigns.
* ``python -m repro.campaign`` -- the ``list`` / ``run`` / ``report``
  command line (see CAMPAIGNS.md).
"""

from repro.campaign.spec import Scenario, Sweep, scenario_key
from repro.campaign.registry import ExperimentRegistry, default_registry
from repro.campaign.store import ResultStore
from repro.campaign.executor import (
    AttemptRecord,
    ChaosFault,
    FailureLedger,
    RetryPolicy,
    SupervisedExecutor,
)
from repro.campaign.runner import CampaignRunner, ScenarioOutcome
from repro.campaign.report import render_report
from repro.campaign.builtin import builtin_campaign, builtin_campaign_names

__all__ = [
    "Scenario",
    "Sweep",
    "scenario_key",
    "ExperimentRegistry",
    "default_registry",
    "ResultStore",
    "AttemptRecord",
    "ChaosFault",
    "FailureLedger",
    "RetryPolicy",
    "SupervisedExecutor",
    "CampaignRunner",
    "ScenarioOutcome",
    "render_report",
    "builtin_campaign",
    "builtin_campaign_names",
]
