"""Rule ``determinism`` -- no ambient randomness or wall-clock reads.

The whole regression surface of this repo (goldens, the execution
contract property, memoizing store) assumes a scenario's result is a
pure function of its parameters and seed.  Randomness must flow from
explicit ``numpy.random.Generator`` objects seeded via
:func:`repro.reliability.seeding.derive_seed` /
:class:`repro.utils.rng.RngFactory`; time must come from
``time.perf_counter`` (kernel counters, excluded from parity checks)
or ``time.monotonic`` (supervisor deadlines), never from calendar
clocks that leak into results.

Flagged:

* global-state numpy RNG calls (``np.random.rand`` and friends --
  anything under ``np.random`` except ``default_rng`` / ``Generator``
  / ``SeedSequence`` and the bit-generator classes);
* the stdlib ``random`` module (imports and ``random.<fn>()`` calls);
* calendar-clock reads: ``time.time()``, ``time.time_ns()``,
  ``datetime.now()`` / ``utcnow()`` / ``today()``;
* iteration order taken from a ``set`` (``for x in {...}`` /
  ``set(...)`` -- string hashing is randomized per process, so the
  order is not reproducible) and unsorted directory listings
  (``os.listdir`` / ``glob.glob`` / ``Path.iterdir`` / ``rglob`` not
  wrapped in ``sorted(...)``).

Allow-listed without a comment: a ``time.time()`` call passed directly
as a ``wall_time=`` keyword -- the ledger/metadata timestamp idiom in
``campaign/executor.py`` and ``campaign/runner.py``, which is recorded
for humans and excluded from every parity comparison.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.core import Finding, Rule, SourceFile, dotted_name

__all__ = ["DeterminismRule"]

# np.random attributes that construct explicitly-seeded streams rather
# than touching the global state.
_NP_RANDOM_OK = {
    "Generator",
    "default_rng",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

_LISTING_CALLS = {"os.listdir", "glob.glob", "glob.iglob", "os.scandir"}
_LISTING_METHODS = {"iterdir", "rglob", "glob"}


class DeterminismRule(Rule):
    id = "determinism"
    title = "no global RNG, wall clocks, or unordered iteration"
    rationale = (
        "results must be pure functions of (parameters, seed); ambient "
        "randomness or calendar time silently breaks goldens, memoization "
        "and the chaos/batch parity gates"
    )

    def check_file(self, source: SourceFile, ctx) -> Iterable[Finding]:
        tree = source.tree
        if tree is None:
            return []
        findings: List[Finding] = []

        # Calls appearing directly as a wall_time= keyword value: the
        # sanctioned metadata-timestamp idiom.
        wall_time_values: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "wall_time":
                        wall_time_values.add(keyword.value)

        # Calls whose result is consumed directly by sorted(...): the
        # directory-listing checks accept that as explicit ordering.
        sorted_args: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "frozenset", "set", "len")
            ):
                for arg in node.args:
                    sorted_args.add(arg)

        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(self._check_import(source, node))
            elif isinstance(node, ast.Call):
                findings.extend(
                    self._check_call(source, node, wall_time_values, sorted_args)
                )
            elif isinstance(node, (ast.For, ast.comprehension)):
                findings.extend(self._check_iteration(source, node, sorted_args))
        return findings

    # ------------------------------------------------------------------
    def _check_import(self, source: SourceFile, node) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""]
        for module in modules:
            if module == "random" or module.startswith("random."):
                yield Finding(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        "stdlib 'random' is global-state RNG; use an explicit "
                        "numpy Generator seeded via reliability.seeding"
                    ),
                )

    def _check_call(
        self, source: SourceFile, node: ast.Call, wall_time_values, sorted_args
    ) -> Iterable[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        if name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                yield Finding(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"global-state RNG call {name}(); seed an explicit "
                        "Generator (np.random.default_rng / "
                        "reliability.seeding.derive_seed) instead"
                    ),
                )
        elif name.startswith("random."):
            yield Finding(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f"stdlib global-state RNG call {name}(); use an explicit "
                    "numpy Generator instead"
                ),
            )
        elif name in _WALL_CLOCK_CALLS:
            if node in wall_time_values:
                return  # the sanctioned wall_time= metadata stamp
            yield Finding(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f"wall-clock read {name}(); use time.perf_counter / "
                    "time.monotonic, or pass it as an excluded-from-parity "
                    "wall_time= metadata stamp"
                ),
            )
        elif name in _LISTING_CALLS and node not in sorted_args:
            yield Finding(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f"{name}() returns files in filesystem order; wrap it in "
                    "sorted(...) for a deterministic sweep"
                ),
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
            and dotted_name(node.func.value) not in ("glob", "os")
            and node not in sorted_args
        ):
            # Path.iterdir()/glob()/rglob() not fed straight to sorted().
            yield Finding(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f".{node.func.attr}() yields paths in filesystem order; "
                    "wrap it in sorted(...) for a deterministic sweep"
                ),
            )

    def _check_iteration(
        self, source: SourceFile, node, sorted_args
    ) -> Iterable[Finding]:
        iterable = node.iter
        is_set_literal = isinstance(iterable, (ast.Set, ast.SetComp))
        is_set_call = (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if (is_set_literal or is_set_call) and iterable not in sorted_args:
            line = getattr(node, "lineno", getattr(iterable, "lineno", 1))
            yield Finding(
                rule=self.id,
                path=source.rel,
                line=line,
                message=(
                    "iteration over a set draws hash order (randomized for "
                    "strings); iterate a sorted(...) or a tuple instead"
                ),
            )
