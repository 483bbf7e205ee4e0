"""Named solver registry: every engine configuration under a stable name.

The campaign layer treats *experiments* as first-class sweepable axes
through :mod:`repro.campaign.registry`; this module does the same for
*solvers*.  Each :class:`RegisteredSolver` names one configuration of
the :mod:`repro.krylov.engine` (strategy combination plus resilience
wiring) and exposes a uniform ``solve(operator, b, x0=None, *,
policy=..., **params)`` entry point, so drivers and campaigns resolve
solvers by name and sweep solver x policy x fault-schedule grids
without importing solver modules.

Policies are resolved per solver: every entry lists the policy names it
supports, and :meth:`RegisteredSolver.resolve_policy` maps the generic
sweep values (``"none"``, ``"guard"``, ``"skeptical"``) onto the
strongest supported concrete policy -- full Arnoldi-state skeptical
checks for GMRES, the solver-agnostic residual guard for the rest, and
selective reliability (which is always on) for FT-GMRES.

Preconditioning is declarative too: ``solve(..., precond=...)`` accepts
anything :func:`repro.precond.resolve_preconds` does -- a registry name
(``"jacobi"``), a compact spec string (``"ssor:omega=1.2"``,
``"poly:k=4"``, ``"bjacobi:bs=8"``), a dict, a
:class:`~repro.precond.PrecondSpec`, or an already-built
preconditioner object such as the fault-injecting wrap returned by
:meth:`repro.reliability.Region.preconditioner`.  Specs are built
against the operator when it is matrix-like; pass the clean matrix via
``precond_matrix=`` when the operator is wrapped (e.g. by
:meth:`repro.reliability.Region.operator`).  Each
entry's :attr:`RegisteredSolver.precond_param` records which underlying
keyword receives the built object (``preconditioner=`` everywhere
except FGMRES, whose variable preconditioner is its ``inner_solve=``),
and the canonical spec string is recorded in
``result.info["precond"]``.

Precision is the fourth declarative axis: ``solve(..., precision=...)``
accepts anything :func:`repro.reliability.parse_precision` does -- a
registry name (``"fp32"``), a compact spec string
(``"fp32:storage=fp16"``), a dict or a
:class:`~repro.reliability.PrecisionSpec`.  The default (``"fp64"`` or
``None``) leaves the solve bit-for-bit identical to the historical
path; any lower precision casts the operator, right-hand side and
initial guess down before the solve, records the canonical spec string
in ``result.info["precision"]`` and returns the answer cast back to
float64 so callers always receive a double-precision ``x``.

``python -m repro.campaign list`` prints this registry as the solver
table (one row per solver: name, family, supported policies, title)
next to the experiment, fault-model and preconditioner tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.krylov.cg import cg, cg_engine
from repro.krylov.engine import ResidualGuardPolicy, batch
from repro.krylov.fgmres import fgmres, ft_gmres
from repro.krylov.gmres import gmres, gmres_engine
from repro.krylov.pipelined_cg import pipelined_cg
from repro.krylov.pipelined_gmres import pipelined_gmres
from repro.krylov.result import SolveResult
from repro.precond import parse_precond, resolve_preconds
from repro.reliability.precision import cast_operator, cast_vector, parse_precision
from repro.skeptical.gmres_sdc import SdcLane, sdc_detecting_gmres
from repro.spec import Axis, Registry

__all__ = [
    "RegisteredSolver",
    "SolverRegistry",
    "default_solver_registry",
    "batch_solve",
    "AXIS",
]

# Generic policy axis values campaigns sweep; resolve_policy maps them
# onto each solver's concrete policies.
GENERIC_POLICIES = ("none", "guard", "skeptical")


# The skeptical policies: ``sdc_detecting_gmres`` under this response.
SKEPTICAL_RESPONSES = {"skeptical_restart": "restart", "skeptical_abort": "abort"}


@dataclass
class PreparedSolve:
    """One resolved :meth:`RegisteredSolver.solve` call, not yet run.

    The solver function the policy picked, the arguments it will
    receive, and the labels its result is annotated with.
    :meth:`RegisteredSolver.solve` runs it at once; :func:`batch_solve`
    first looks whether the same call has a lockstep lane.
    """

    function: Callable
    operator: object
    b: object
    x0: object
    options: dict
    solver_name: str
    policy_name: str
    precond_label: Optional[str]
    precision_label: Optional[str]

    def run(self) -> SolveResult:
        return self.finish(self.function(self.operator, self.b, self.x0, **self.options))

    def finish(self, result: SolveResult) -> SolveResult:
        """Annotate a result of this call (whichever engine produced it)."""
        result.info.setdefault("solver_name", self.solver_name)
        result.info["policy_name"] = self.policy_name
        if self.precond_label is not None:
            result.info.setdefault("precond", self.precond_label)
        if self.precision_label is not None:
            result.info["precision"] = self.precision_label
            if isinstance(result.x, np.ndarray) and result.x.dtype != np.float64:
                result.x = np.asarray(result.x, dtype=np.float64)
        return result


@dataclass(frozen=True)
class RegisteredSolver:
    """One named solver configuration.

    Attributes
    ----------
    name:
        Stable registry key (``"gmres"``, ``"pipelined_cg"``, ...).
    family:
        ``"gmres"`` (nonsymmetric Arnoldi), ``"cg"`` (SPD recurrence)
        or ``"outer_inner"`` (composed reliable-outer solvers).
    title:
        One-line human description.
    policies:
        Concrete resilience-policy names this solver supports; the
        first entry is the default.
    function:
        The solver function a call runs, but under a ``skeptical_*``
        policy, which runs :func:`sdc_detecting_gmres` instead.
    distributed:
        Whether the solver runs on the simulated distributed backend.
    precond_param:
        The underlying solver keyword that receives a preconditioner
        built from ``solve(..., precond=...)`` (``"preconditioner"``
        for the fixed-preconditioner solvers, ``"inner_solve"`` for
        FGMRES, whose preconditioner is the variable inner solve).
    """

    name: str
    family: str
    title: str
    policies: Tuple[str, ...]
    function: Callable = field(repr=False)
    distributed: bool = True
    precond_param: str = "preconditioner"

    @property
    def default_policy(self) -> str:
        return self.policies[0]

    def row(self) -> tuple:
        return (self.name, self.family, ",".join(self.policies), self.title)

    def resolve_policy(self, requested: Optional[str]) -> str:
        """Map a requested (possibly generic) policy onto a supported one.

        ``None`` selects the solver default.  Generic values degrade
        gracefully: ``"skeptical"`` prefers the full Arnoldi-state
        checks, then the residual guard, then whatever resilience the
        solver has built in; ``"guard"`` prefers the residual guard.
        Concrete names must be supported exactly.
        """
        if requested is None:
            return self.default_policy
        requested = requested.lower()
        if requested in self.policies:
            return requested
        preferences = {
            "none": ("none",),
            "guard": ("residual_guard", "none"),
            "skeptical": ("skeptical_restart", "residual_guard", "srp"),
        }
        for candidate in preferences.get(requested, ()):
            if candidate in self.policies:
                return candidate
        if requested in GENERIC_POLICIES:
            # Solver has a single built-in behaviour (e.g. FT-GMRES's
            # selective reliability); every generic request maps to it.
            return self.default_policy
        raise ValueError(
            f"solver {self.name!r} does not support policy {requested!r} "
            f"(supported: {self.policies}; generic: {GENERIC_POLICIES})"
        )

    def solve(self, operator, b, x0=None, **request) -> SolveResult:
        """Run this solver with a named resilience policy: :meth:`prepare`
        (which documents the arguments), then run."""
        return self.prepare(operator, b, x0, **request).run()

    def prepare(
        self,
        operator,
        b,
        x0=None,
        *,
        policy: Optional[str] = None,
        precond=None,
        precond_matrix=None,
        precision=None,
        **params,
    ) -> PreparedSolve:
        """Resolve a :meth:`solve` call without running it.

        The one mapping from the declarative surface to a solver call,
        for one lane and for many (:func:`batch_solve`): casts for
        ``precision``, builds ``precond``, and maps the policy --
        ``residual_guard`` adds a
        :class:`~repro.krylov.engine.ResidualGuardPolicy` to the call,
        ``skeptical_*`` runs :func:`sdc_detecting_gmres` on the same
        keywords with ``policy=<response>``.

        ``params`` are forwarded to the solver function, which refuses
        any keyword it does not take.  ``precond`` is anything
        :func:`repro.precond.resolve_preconds` accepts (registry name,
        compact spec string, dict, :class:`~repro.precond.PrecondSpec`
        or a built preconditioner object); spec-shaped values are built
        against ``precond_matrix`` when given, else against the
        operator itself.  ``precision`` is anything
        :func:`repro.reliability.parse_precision` accepts; ``None`` and
        ``"fp64"`` leave the solve bit-for-bit identical to the
        historical path, while lower precisions cast the operator and
        vectors down (spec-shaped preconditioners are then built from
        the cast operator, so ``M^{-1} v`` runs at the swept precision
        too) and the answer is cast back to float64.  The effective
        policy name is recorded in ``result.info["policy_name"]``, the
        preconditioner in ``result.info["precond"]`` and -- whenever
        ``precision`` was requested -- the canonical precision string
        in ``result.info["precision"]``.
        """
        precision_label = None
        if precision is not None:
            pspec = parse_precision(precision)
            precision_label = pspec.to_string()
            if not pspec.is_default:
                operator = cast_operator(operator, pspec)
                if precond_matrix is not None:
                    precond_matrix = cast_operator(precond_matrix, pspec)
                b = cast_vector(b, pspec)
                if x0 is not None:
                    x0 = cast_vector(x0, pspec)
        precond_label = None
        if precond is not None:
            built = resolve_preconds(
                precond,
                matrix=precond_matrix if precond_matrix is not None else operator,
            )
            if built is precond:
                # An already-built object passed through; its type is
                # the most descriptive stable label available.
                precond_label = type(precond).__name__
            else:
                precond_label = parse_precond(precond).to_string()
            if built is not None:
                params[self.precond_param] = built
        effective = self.resolve_policy(policy)
        function = self.function
        if effective == "residual_guard":
            params["policy"] = ResidualGuardPolicy()
        elif effective in SKEPTICAL_RESPONSES:
            function = sdc_detecting_gmres
            params["policy"] = SKEPTICAL_RESPONSES[effective]
        return PreparedSolve(
            function, operator, b, x0, params, self.name, effective, precond_label,
            precision_label,
        )


def _builtin_solvers() -> List[RegisteredSolver]:
    guard_only = ("none", "residual_guard")
    return [
        RegisteredSolver(
            name="gmres",
            family="gmres",
            title="Restarted GMRES, right preconditioning, blocking CGS2",
            policies=("none", "residual_guard", "skeptical_restart", "skeptical_abort"),
            function=gmres,
        ),
        RegisteredSolver(
            name="fgmres",
            family="gmres",
            title="Flexible GMRES (variable preconditioner, reliable outer)",
            policies=guard_only,
            function=fgmres,
            precond_param="inner_solve",
        ),
        RegisteredSolver(
            name="pipelined_gmres",
            family="gmres",
            title="Single-reduction (latency-tolerant) GMRES",
            policies=guard_only,
            function=pipelined_gmres,
        ),
        RegisteredSolver(
            name="cg",
            family="cg",
            title="Preconditioned conjugate gradients",
            policies=guard_only,
            function=cg,
        ),
        RegisteredSolver(
            name="pipelined_cg",
            family="cg",
            title="Pipelined (overlapped single-reduction) CG",
            policies=guard_only,
            function=pipelined_cg,
        ),
        RegisteredSolver(
            name="sdc_gmres",
            family="gmres",
            title="SDC-detecting (skeptical) GMRES",
            policies=("skeptical_restart", "skeptical_abort"),
            function=sdc_detecting_gmres,
            distributed=False,
        ),
        RegisteredSolver(
            name="ft_gmres",
            family="outer_inner",
            title="Fault-tolerant GMRES (selective reliability, unreliable inner)",
            policies=("srp",),
            function=ft_gmres,
            distributed=False,
        ),
    ]


class SolverRegistry(Registry[RegisteredSolver]):
    """Index of named solver configurations."""

    NOUN = "solver"
    COLUMNS = ("solver", "family", "policies", "title")
    builtin = staticmethod(_builtin_solvers)


#: The process-wide registry of named solver configurations.
default_solver_registry = SolverRegistry.default


AXIS = Axis(name="solver", registry=default_solver_registry)


def _default_precision(value) -> bool:
    """Whether a lane's precision request keeps the float64 fast path."""
    if value is None:
        return True
    return parse_precision(value).is_default


#: Fewest lanes for which a lockstep batch beats as many sequential
#: solves, per lane class (``cg``'s is the lockstep engine's own,
#: :data:`repro.krylov.engine.batch._CG_MIN_LANES`).  ``batch_solve``
#: relative to ``len(bs)`` ``solve`` calls at n = 64 (PERFORMANCE.md,
#: "Lockstep engine"):
#:
#: =============  =====  =====  =====  =====  =====
#: lanes            2      3      4      5      8
#: =============  =====  =====  =====  =====  =====
#: ``gmres``      0.53x  0.74x  0.94x  1.13x  1.62x
#: ``sdc_gmres``  0.68x  0.95x  1.15x  1.35x  1.87x
#: =============  =====  =====  =====  =====  =====
_GMRES_MIN_LANES = 5
_SDC_MIN_LANES = 4


def _lockstep_lane(call: PreparedSolve) -> Optional[Tuple[int, Callable[[], object]]]:
    """The fewest lanes the lockstep engine takes of ``call``'s class, and
    how it builds the lane of ``call``; ``None`` when it has none.

    ``gmres``, ``cg`` and ``sdc_detecting_gmres`` under the
    ``"restart"`` response (aborting one lane must not kill its
    siblings) have lanes; anything else stays with the sequential
    engine.  A lane is built on the engine
    its solver function builds from the same keywords, so it accepts or
    refuses them as a separate solve does.  Nothing is built here: a
    lane may touch its operator (and a fault stream) as it starts, which
    only a batch that goes lockstep as a whole may do.
    """
    function, options = call.function, call.options
    if function is gmres:
        return _GMRES_MIN_LANES, lambda: batch.ArnoldiLane(
            gmres_engine(call.operator, **options), call.b, call.x0
        )
    if function is cg:
        return batch._CG_MIN_LANES, lambda: (cg_engine(call.operator, **options), call.b, call.x0)
    if function is sdc_detecting_gmres and options["policy"] == "restart":
        return _SDC_MIN_LANES, lambda: SdcLane(call.operator, call.b, call.x0, **options)
    return None


def batch_solve(
    solver: str,
    operator,
    bs,
    x0s=None,
    *,
    policy: Optional[str] = None,
    precond=None,
    precond_matrix=None,
    precision=None,
    lane_params: Optional[List[Mapping]] = None,
    operators: Optional[List] = None,
    registry: Optional[SolverRegistry] = None,
    **params,
) -> List[SolveResult]:
    """Solve ``S`` independent right-hand sides of one named solver.

    The batched counterpart of :meth:`RegisteredSolver.solve`: the same
    declarative surface (named solver, named policy, declarative
    ``precond``), applied to a list of right-hand sides ``bs``
    (optionally per-lane ``x0s`` and per-lane parameter overrides
    ``lane_params``, e.g. a per-scenario ``iteration_hook``).
    Every lane is resolved by :meth:`RegisteredSolver.prepare`, as a
    separate ``solve`` call would be, so the same input is accepted, or
    refused with the same error, at any lane count, and results are
    bit-identical to ``S`` separate ``solve`` calls.

    Lanes whose resolved call has a lockstep lane (:func:`_lockstep_lane`:
    ``gmres``, ``cg``, and ``sdc_detecting_gmres`` but for the skeptical
    ``"abort"`` response) advance together through
    :func:`repro.krylov.engine.batch.run_arnoldi_batch` /
    :func:`~repro.krylov.engine.batch.run_cg_batch` when there are at
    least as many as their class's measured crossover -- 5 for
    ``gmres``, 4 for ``sdc_detecting_gmres``, 3 for ``cg``
    (:data:`_GMRES_MIN_LANES`, :data:`_SDC_MIN_LANES`,
    ``batch._CG_MIN_LANES``; below it a stacked step costs more than
    the sequential steps it replaces, and one lane is never a batch).
    A smaller group, and anything without a lockstep lane
    (``skeptical_abort``, the pipelined / flexible / distributed
    solvers), runs as per-lane sequential solves, so callers never need
    to special-case batchability.  A lockstep CG batch hands its last
    lanes to the sequential step the same way.

    ``precision`` (batch-wide, or per lane via a ``"precision"`` key in
    ``lane_params``) is the same declarative axis as
    :meth:`RegisteredSolver.solve`.  The lockstep engine is pinned to
    the bit-exact float64 contract, so any lane requesting a
    non-default precision routes the whole batch through the
    sequential fallback -- results stay identical to ``S`` separate
    ``solve`` calls either way.  (On current NumPy the stacked fp32
    kernels do match the per-lane forms bit for bit, so lifting this
    restriction is measured headroom, not a correctness risk.)

    ``operators`` optionally gives each lane its own operator (e.g. a
    per-scenario fault-injecting wrapper); the shared ``operator`` then
    only anchors the batch (and builds spec-shaped preconditioners when
    no ``precond_matrix`` is given).  Lanes with private operators still
    advance in lockstep, each applying its own operator per step.
    """
    entry = (registry or default_solver_registry()).get(solver)
    effective = entry.resolve_policy(policy)
    bs = list(bs)
    n_lanes = len(bs)
    if x0s is None:
        x0s = [None] * n_lanes
    elif len(x0s) != n_lanes:
        raise ValueError("x0s must match the number of right-hand sides")
    if lane_params is None:
        lane_params = [{}] * n_lanes
    elif len(lane_params) != n_lanes:
        raise ValueError("lane_params must match the number of right-hand sides")
    if operators is None:
        operators = [None] * n_lanes
    elif len(operators) != n_lanes:
        raise ValueError("operators must match the number of right-hand sides")

    merged_all = [dict(params, **dict(extra)) for extra in lane_params]
    lane_precisions = [merged.pop("precision", precision) for merged in merged_all]
    # Every lane is resolved exactly as a separate solve() call resolves
    # it (preconditioners per lane: stateful injecting proxies must not
    # be shared), whichever engine then runs it.
    calls = (
        entry.prepare(
            lane_op if lane_op is not None else operator,
            b,
            x0,
            policy=effective,
            precond=merged.pop("precond", precond),
            # A lane's private operator is a wrapper; the shared one anchors.
            precond_matrix=operator if precond_matrix is None and lane_op is not None else precond_matrix,
            precision=lane_precision,
            **merged,
        )
        for b, x0, merged, lane_op, lane_precision in zip(
            bs, x0s, merged_all, operators, lane_precisions
        )
    )
    if n_lanes < 2 or not all(_default_precision(value) for value in lane_precisions):
        # Sequential engine: S independent solve() calls, one at a time.
        return [call.run() for call in calls]
    calls = list(calls)
    lanes = [_lockstep_lane(call) for call in calls]
    if None in lanes or n_lanes < lanes[0][0]:
        # No lockstep lane, or fewer lanes than the stacked step pays for.
        return [call.run() for call in calls]
    run = batch.run_cg_batch if calls[0].function is cg else batch.run_arnoldi_batch
    results = run([build() for _, build in lanes])
    return [call.finish(result) for call, result in zip(calls, results)]
