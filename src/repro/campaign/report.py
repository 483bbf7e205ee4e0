"""Aggregate reporting over the campaign result store and ledger.

Three views:

* a per-experiment rollup (scenario counts, table rows, wall time),
* a per-scenario listing (key, tag, parameter digest, headline), and
* a failure-history listing from the
  :class:`~repro.campaign.executor.FailureLedger` sidecar: every
  scenario that ever crashed, hung, corrupted a result, raised, or
  needed a retry, with its attempt-by-attempt status trail.

The *headline* of a scenario is a compact digest of its result
summary: the first few scalar entries, which for every E1-E9 driver
carry the qualitative claim (detection rates, speedups, efficiency
gaps).  Full tables stay in each record's ``result``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.campaign.executor import FailureLedger
from repro.campaign.store import ResultStore, StoreRecord
from repro.utils.tables import Table, one_line

__all__ = [
    "rollup_table",
    "scenario_table",
    "failure_table",
    "render_report",
]

_HEADLINE_ENTRIES = 3
_HEADLINE_WIDTH = 64


def _headline(record: StoreRecord) -> str:
    """First few scalar summary entries of a stored result."""
    summary = record.result.get("summary", {})
    parts = []
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        parts.append(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}")
        if len(parts) >= _HEADLINE_ENTRIES:
            break
    text = ", ".join(parts)
    if len(text) > _HEADLINE_WIDTH:
        text = text[: _HEADLINE_WIDTH - 3] + "..."
    return text


def _params_digest(record: StoreRecord, max_width: int = 48) -> str:
    return one_line(
        ", ".join(f"{k}={v}" for k, v in sorted(record.params.items())), max_width
    )


def _select(
    records: Iterable[StoreRecord],
    experiment: Optional[str] = None,
    tag: Optional[str] = None,
) -> List[StoreRecord]:
    selected = []
    for record in records:
        if experiment and record.experiment.lower() != experiment.lower():
            continue
        if tag and record.tag != tag:
            continue
        selected.append(record)
    return selected


def rollup_table(records: Iterable[StoreRecord]) -> Table:
    """One row per experiment: scenario count, rows, wall time."""
    by_experiment = {}
    for record in records:
        by_experiment.setdefault(record.experiment, []).append(record)
    table = Table(
        ["experiment", "scenarios", "tags", "table_rows", "total_elapsed_s"],
        title="campaign rollup",
    )
    for experiment in sorted(by_experiment):
        group = by_experiment[experiment]
        tags = sorted({r.tag for r in group if r.tag})
        rows = sum(len(r.result.get("table", {}).get("rows", [])) for r in group)
        elapsed = sum(r.elapsed for r in group)
        table.add_row(experiment, len(group), ",".join(tags) or "-", rows, elapsed)
    return table


def scenario_table(records: Iterable[StoreRecord]) -> Table:
    """One row per stored scenario."""
    table = Table(
        ["key", "experiment", "tag", "params", "elapsed_s", "headline"],
        title="completed scenarios",
    )
    for record in records:
        table.add_row(
            record.key,
            record.experiment,
            record.tag or "-",
            _params_digest(record),
            record.elapsed,
            _headline(record) or "-",
        )
    return table


def failure_table(
    ledger: FailureLedger, experiment: Optional[str] = None
) -> Optional[Table]:
    """Failure history from the ledger: one row per troubled scenario.

    Scenarios whose only record is a clean first-try success are
    omitted -- the table is the *failure* history.  Returns ``None``
    when there is nothing to show.
    """
    rows = []
    for key, attempts in ledger.history().items():
        if experiment and attempts[0].experiment.lower() != experiment.lower():
            continue
        outcome = next(
            (r.outcome for r in reversed(attempts) if r.outcome is not None),
            "in-flight",
        )
        clean = len(attempts) == 1 and attempts[0].status == "ok"
        if clean:
            continue
        trail = ">".join(r.status for r in attempts)
        last_error = next(
            (r.error for r in reversed(attempts) if r.error), ""
        )
        rows.append(
            (
                key,
                attempts[0].experiment,
                len(attempts),
                trail,
                outcome,
                one_line(last_error.strip().splitlines()[-1] if last_error else "-", 48),
            )
        )
    if not rows:
        return None
    table = Table(
        ["key", "experiment", "attempts", "history", "outcome", "last_error"],
        title="failure history",
    )
    for row in rows:
        table.add_row(*row)
    return table


def render_report(
    store: ResultStore,
    *,
    experiment: Optional[str] = None,
    tag: Optional[str] = None,
    ledger: Optional[FailureLedger] = None,
) -> str:
    """Render rollup + scenario listing (+ failure history) for a store."""
    records = _select(store.records(), experiment=experiment, tag=tag)
    failures = failure_table(ledger, experiment) if ledger is not None else None
    if not records and failures is None:
        return f"no completed scenarios in {store.path}" + (
            f" matching experiment={experiment!r} tag={tag!r}"
            if experiment or tag else ""
        )
    lines = [
        f"store: {store.path} ({len(records)} of {len(store)} scenarios shown)",
    ]
    if records:
        lines += ["", rollup_table(records).render(),
                  "", scenario_table(records).render()]
    if failures is not None:
        lines += [
            "",
            f"ledger: {ledger.path} ({len(ledger)} attempt records)",
            "",
            failures.render(),
        ]
    return "\n".join(lines)
