"""Shared experiment infrastructure.

Six pieces live here:

* :class:`ExperimentResult` -- the value every driver's ``run()``
  returns, now JSON round-trippable (:meth:`ExperimentResult.to_dict` /
  :meth:`ExperimentResult.from_dict`) so the campaign result store can
  persist it.
* :func:`records_parameters` -- the one place a result's
  ``parameters`` are filled: it decorates every driver's ``run``, and
  :func:`run_batch_by_seed` fills each lane's from its binding.
* :class:`ExperimentSpec` -- the registry protocol.  Each driver module
  ``e*.py`` exposes a module-level ``SPEC`` describing itself (id,
  short name, claim, tags) plus two canonical reduced configurations:
  a ``smoke`` one for quick campaign sweeps and a ``golden`` one
  pinned by the golden regression tests.  A driver builds its results
  with :meth:`ExperimentSpec.result`, so the id and claim are stated
  once.  :mod:`repro.campaign.registry` auto-discovers drivers by
  scanning this package for modules that define both ``SPEC`` and
  ``run(**params) -> ExperimentResult``.
* :func:`run_batch_by_seed` -- the one ``run_batch`` every
  batch-capable driver exports, and :func:`batch_signature`, the one
  definition of "same except ``seed``" it shares with the campaign
  runner's :func:`~repro.campaign.runner.plan_batch_groups`.  It binds
  defaults against :func:`run_signature`, the one introspection of a
  driver, which the campaign registry and :func:`records_parameters`
  read too.
* :class:`TrustedProblem`, :func:`as_axis` and :func:`iteration_budget`
  -- what the sweeping drivers (E8-E10) share: the lane scaffold (the
  SPD model problem with one trusted direct solution, one table and
  one outcome counter per lane; :meth:`TrustedProblem.solve`, the one
  cell body, and :meth:`TrustedProblem.results`), the ``None | str |
  sequence`` convention of their axis parameters, and each solver's
  share of their ``maxiter``.
* :func:`classify_outcome` -- the outcome taxonomy (benign, detected,
  SDC, crash) that :class:`TrustedProblem` and E1 classify runs into.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.registry import resolve_backend
from repro.krylov.registry import batch_solve
from repro.linalg.matgen import poisson_2d
from repro.reliability.registry import resolve_faults
from repro.utils.rng import RngFactory
from repro.utils.serialization import canonical_json, jsonify
from repro.utils.tables import Table, one_line
from repro.utils.validation import check_positive

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "TrustedProblem",
    "as_axis",
    "batch_signature",
    "classify_outcome",
    "iteration_budget",
    "records_parameters",
    "run_batch_by_seed",
    "run_signature",
]

# Parameter/summary lines longer than this are wrapped one-per-line.
_WRAP_WIDTH = 88
# Individual values longer than this force the wrapped layout too.
_WRAP_CELL = 40


def _render_mapping(label: str, mapping: Mapping[str, Any]) -> List[str]:
    """Render ``label: k=v, ...`` compactly, or aligned one-per-line.

    Multi-line values are escaped (``\\n``) so a single logical entry
    never spans physical lines; when any value is long, or the joined
    line would overflow, entries are laid out one per line with the
    keys left-aligned to a common width.
    """
    cells = [(k, one_line(str(v))) for k, v in sorted(mapping.items())]
    joined = label + ": " + ", ".join(f"{k}={v}" for k, v in cells)
    if len(joined) <= _WRAP_WIDTH and all(len(v) <= _WRAP_CELL for _, v in cells):
        return [joined]
    width = max(len(k) for k, _ in cells)
    return [label + ":"] + [f"  {k.ljust(width)} = {v}" for k, v in cells]


@dataclass
class ExperimentResult:
    """What every experiment driver returns.

    A pure function of its parameters: it holds no wall-clock value,
    so the campaign store, the goldens and the execution-contract
    property compare it byte for byte.

    Attributes
    ----------
    experiment:
        Identifier ("E1" ... "E10").
    claim:
        One-sentence statement of the paper claim being tested.
    table:
        The reproduced table (``tests/goldens/`` holds the recorded
        copy at each driver's golden parameters).
    summary:
        Headline scalars extracted from the table (detection rate,
        speedup at the largest scale, crossover point, ...), used by the
        tests that assert the qualitative claim holds.
    parameters:
        Every name ``run`` accepts and its value, derived from ``run``'s
        signature by :func:`records_parameters`; a driver supplies only
        the values it resolves from ``None`` (E8's ``solvers``, say).
    """

    experiment: str
    claim: str
    table: Table
    summary: Dict[str, Any] = field(default_factory=dict)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable rendering (claim, parameters, table, summary)."""
        lines = [f"[{self.experiment}] {self.claim}", ""]
        if self.parameters:
            lines.extend(_render_mapping("parameters", self.parameters))
        lines.append(self.table.render())
        if self.summary:
            lines.append("")
            lines.extend(_render_mapping("summary", self.summary))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible description; inverse of :meth:`from_dict`."""
        return {
            "experiment": self.experiment,
            "claim": self.claim,
            "table": self.table.to_dict(),
            "summary": jsonify(self.summary),
            "parameters": jsonify(self.parameters),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            experiment=data["experiment"],
            claim=data["claim"],
            table=Table.from_dict(data["table"]),
            summary=dict(data.get("summary", {})),
            parameters=dict(data.get("parameters", {})),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry metadata a driver module attaches to itself as ``SPEC``.

    Attributes
    ----------
    experiment:
        Canonical identifier ("E1" ... "E10").
    name:
        Short slug used in CLI listings and scenario tags
        (e.g. ``"sdc_detection"``).
    title:
        One-line human description.
    claim:
        One-sentence statement of the paper claim the driver tests;
        every result :meth:`result` builds carries it.
    tags:
        Free-form labels campaigns can filter on
        (``campaign run --tag gmres``).
    smoke:
        Reduced parameter overrides that finish in roughly a second;
        the ``smoke`` campaign and quick sweeps start from these.
    golden:
        Pinned parameters of the golden regression tests
        (``tests/test_goldens.py``).  Changing them invalidates the
        checked-in golden files, so treat them as frozen.
    """

    experiment: str
    name: str
    title: str = ""
    claim: str = ""
    tags: Tuple[str, ...] = ()
    smoke: Mapping[str, Any] = field(default_factory=dict)
    golden: Mapping[str, Any] = field(default_factory=dict)

    def result(self, table: Table, summary: Dict[str, Any], **resolved) -> ExperimentResult:
        """A result of this experiment: its id and claim, ``table`` and
        ``summary``, and the parameter values the driver ``resolved``
        from a ``None`` default (the rest :func:`records_parameters`
        derives)."""
        return ExperimentResult(self.experiment, self.claim, table, summary, resolved)


def batch_signature(params: Mapping[str, Any]) -> str:
    """What two scenarios must share to run as lanes of one batch.

    The canonical JSON of every parameter except ``seed``, so container
    flavour does not matter: ``("gmres",)`` and ``["gmres"]`` (params
    reloaded from JSON) sign alike.
    """
    return canonical_json({k: v for k, v in params.items() if k != "seed"})


@functools.lru_cache(maxsize=None)
def run_signature(run: Callable[..., Any]) -> inspect.Signature:
    """The signature of a driver's ``run``, inspected once per callable.

    The one place a driver is introspected: the campaign registry reads
    its accepted parameter names from here when the driver is
    registered, and :func:`run_batch_by_seed` binds defaults against
    the same object, so neither resolving a scenario nor a ``run_batch``
    call inspects anything.  The memo keeps each callable alive for the
    life of the process: drivers are module-level functions.
    """
    return inspect.signature(run)


def _bind_defaults(
    signature: inspect.Signature, params: Mapping[str, Any]
) -> Dict[str, Any]:
    """Apply ``run``'s keyword defaults to one scenario's parameters."""
    bound = signature.bind(**dict(params))
    bound.apply_defaults()
    return dict(bound.arguments)


# Recorded as canonical spec strings, and left out when ``None``.
_SPEC_PARAMETERS = {
    "faults": lambda value: resolve_faults(value).describe(),
    "backend": lambda value: resolve_backend(value).spec.to_string(),
}


def _recorded(params: Mapping[str, Any], resolved: Mapping[str, Any]) -> Dict[str, Any]:
    """What a result records of ``params``, every name ``run`` accepts:
    the value the driver ``resolved`` from a ``None`` default, else
    sequences as tuples and specs as :data:`_SPEC_PARAMETERS` says."""
    recorded = {}
    for name, value in params.items():
        if name in resolved:
            value = resolved[name]
        elif name in _SPEC_PARAMETERS:
            if value is None:
                continue
            value = _SPEC_PARAMETERS[name](value)
        elif isinstance(value, (list, tuple)):
            value = tuple(value)
        recorded[name] = value
    return recorded


def records_parameters(run: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Decorate a driver's ``run`` so its result records every name it
    accepts: ``run``'s defaults, read once off :func:`run_signature`,
    overlaid with the call's keywords (see :func:`_recorded`)."""
    defaults = {name: p.default for name, p in run_signature(run).parameters.items()}

    @functools.wraps(run)
    def recorded(**params) -> ExperimentResult:
        result = run(**params)
        result.parameters = _recorded({**defaults, **params}, result.parameters)
        return result

    return recorded


def run_batch_by_seed(
    run: Callable[..., ExperimentResult],
    run_lanes: Callable[..., List[ExperimentResult]],
    params_list: Sequence[Mapping[str, Any]],
) -> List[ExperimentResult]:
    """The ``run_batch`` of every driver whose body is written over seeds.

    ``run_lanes(seeds, **shared)`` is the driver's one body: it returns
    one result per seed, each identical to ``run(seed=seed, **shared)``
    (which is that body with a single lane).  Scenarios are bound to
    ``run``'s defaults, grouped by :func:`batch_signature`, and each
    group is one ``run_lanes`` call; results come back in input order,
    recording their bound parameters as ``run``'s results do.
    """
    signature = run_signature(run)
    resolved = [_bind_defaults(signature, params) for params in params_list]
    groups: Dict[str, List[int]] = {}
    for index, params in enumerate(resolved):
        groups.setdefault(batch_signature(params), []).append(index)
    results: List[Optional[ExperimentResult]] = [None] * len(resolved)
    for members in groups.values():
        shared = {k: v for k, v in resolved[members[0]].items() if k != "seed"}
        seeds = [resolved[index]["seed"] for index in members]
        for index, result in zip(members, run_lanes(seeds, **shared)):
            result.parameters = _recorded(resolved[index], result.parameters)
            results[index] = result
    return results


def iteration_budget(solver_name: str, maxiter: int) -> Dict[str, int]:
    """A sweeping driver's ``maxiter`` as ``solver_name``'s budget keywords.

    ``ft_gmres`` has no ``maxiter``: it gets ``min(maxiter, 50)`` outer
    FGMRES iterations of at most 20 inner GMRES iterations each.
    """
    if solver_name == "ft_gmres":
        return {"outer_maxiter": min(maxiter, 50), "inner_maxiter": 20}
    return {"maxiter": maxiter}


def as_axis(value, default: Sequence) -> list:
    """An axis parameter as a list: ``None`` = ``default``, a string = one value."""
    if value is None:
        return list(default)
    if isinstance(value, str):
        return [value]
    return list(value)


def classify_outcome(
    *, converged: bool, error_norm: float, tolerance: float, detected: bool
) -> str:
    """Classify one faulty run into the SDC literature's outcome taxonomy.

    ``benign``
        converged to a correct answer without any check firing;
    ``detected``
        a check fired and the run still produced a correct answer;
    ``sdc``
        the solver reported success but the answer is wrong -- the
        dangerous case the paper warns about;
    ``crash``
        no convergence, non-finite output, or a check fired and the
        answer is still wrong.

    ``error_norm`` is a trusted measure of answer quality (a true
    residual, or the error against a fault-free reference), and the
    answer is correct when it is finite and at most ``tolerance``.
    """
    check_positive(tolerance, "tolerance")
    correct = bool(converged) and np.isfinite(error_norm) and error_norm <= tolerance
    if detected:
        return "detected" if correct else "crash"
    if correct:
        return "benign"
    return "sdc" if bool(converged) else "crash"


class TrustedProblem:
    """The lane scaffold of a sweeping driver: the 2-D Poisson problem,
    one lane per seed.

    Holds the matrix, each lane's right-hand side (the ``"rhs"`` stream
    of its seed), the direct solution every solver outcome of that lane
    is classified against, each lane's table (:attr:`tables`: the
    driver's ``columns`` under ``title``; the driver adds the rows) and
    each lane's outcome counts (:attr:`counts`, which :meth:`solve`
    adds to and a driver may add its own keys to).
    """

    def __init__(
        self, grid: int, seeds: Sequence[int], columns: Sequence[str], title: str
    ) -> None:
        self.matrix = poisson_2d(grid)
        dense = self.matrix.to_dense()
        self.b_list = [
            RngFactory(seed).spawn("rhs").standard_normal(self.matrix.n_rows)
            for seed in seeds
        ]
        self._x_refs = [np.linalg.solve(dense, b) for b in self.b_list]
        self._x_ref_norms = [float(np.linalg.norm(x)) for x in self._x_refs]
        self.tables = [Table(list(columns), title=title) for _ in seeds]
        self.counts = [Counter() for _ in seeds]

    def solve(
        self, solver: str, error_tolerance: float, regions, **options
    ) -> List[Tuple[Any, int, str, str, bool]]:
        """One cell of the sweep: ``solver`` over every lane.

        The lanes run as one :func:`repro.krylov.registry.batch_solve`
        call with ``options``; overflow and NaN are the injected faults'
        expected effect, so they do not warn.  ``regions`` are the
        lanes' fault-injecting regions (``None`` when the cell runs
        clean).  Returns one ``(result, faults, error cell,
        outcome, correct)`` per lane: ``faults`` its region injected,
        the error relative to the trusted solution (``inf`` for a
        non-finite iterate), :func:`classify_outcome`'s outcome, and
        ``correct`` meaning converged *and* within ``error_tolerance``.
        Each run, and its faults, is counted in ``counts[lane]``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            results = batch_solve(solver, self.matrix, self.b_list, **options)
        cells = []
        for lane, result in enumerate(results):
            faults = regions[lane].faults_injected() if regions else 0
            x = np.asarray(result.x, dtype=np.float64)
            finite = bool(np.all(np.isfinite(x)))
            error = (
                float(np.linalg.norm(x - self._x_refs[lane])) / self._x_ref_norms[lane]
                if finite
                else float("inf")
            )
            detected = result.detected_faults > 0
            outcome = classify_outcome(
                converged=result.converged,
                error_norm=error,
                tolerance=error_tolerance,
                detected=detected,
            )
            correct = bool(result.converged and error <= error_tolerance)
            self.counts[lane].update(
                n_runs=1, n_correct=int(correct), n_detected=int(detected),
                n_silent=int(outcome == "sdc"), total_faults=faults,
            )
            error_cell = f"{error:.3e}" if finite else "inf"
            cells.append((result, faults, error_cell, outcome, correct))
        return cells

    def results(
        self,
        spec: ExperimentSpec,
        summary: Callable[[Counter], Dict[str, Any]],
        **resolved,
    ) -> List[ExperimentResult]:
        """One result per lane: its table, the ``summary`` of its
        :attr:`counts`, and the ``resolved`` parameter values
        (:meth:`ExperimentSpec.result`)."""
        return [
            spec.result(table, summary(counts), **resolved)
            for table, counts in zip(self.tables, self.counts)
        ]
