"""Declarative scenario specifications and sweep expansion.

A :class:`Scenario` is one run of one experiment driver: the experiment
identifier plus keyword-parameter overrides for its ``run()``.  A
:class:`Sweep` expands to many scenarios, either as a cartesian
*grid* over parameter axes or by *zipping* axes of equal length.

Every scenario has a stable content-derived key
(:func:`scenario_key`): the SHA-256 of its canonical JSON.  The key is
what the result store memoizes on -- re-running a campaign skips every
scenario whose key is already present -- and what the runner derives
per-scenario RNG seeds from, so parallel and sequential execution see
identical randomness.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterator, List, Mapping, Sequence, Tuple

from repro.utils.serialization import canonical_json
from repro.utils.tables import one_line

__all__ = [
    "Scenario",
    "Sweep",
    "scenario_key",
    "canonical_json",
]


def scenario_key(experiment: str, params: Mapping[str, Any]) -> str:
    """Stable 16-hex-digit key of ``(experiment, params)``.

    Independent of parameter insertion order, of the Python process
    (no ``hash()`` involved), and of container flavour (tuples and
    lists of the same values produce the same key).
    """
    payload = canonical_json({"experiment": experiment.upper(), "params": params})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One experiment run: driver id plus parameter overrides.

    Attributes
    ----------
    experiment:
        Canonical experiment id ("E1" ... "E7"); matched
        case-insensitively against the registry.
    params:
        Keyword overrides passed to the driver's ``run()``.  Parameters
        not listed keep the driver's defaults.  Stored as a read-only
        view of a private copy (item assignment raises ``TypeError``);
        use :meth:`with_params` to derive a changed scenario.
    tag:
        Free-form label (usually the sweep/campaign name) used for
        filtering in the CLI and the report.
    """

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    tag: str = ""

    def __post_init__(self):
        # Freeze the mapping so scenarios are safely hashable-by-key
        # and cannot drift after their key has been computed.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "experiment", self.experiment.upper())

    @cached_property
    def key(self) -> str:
        """Stable content key (see :func:`scenario_key`), computed once."""
        return scenario_key(self.experiment, self.params)

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies; rebuild from
        # a plain dict (the key is recomputed on demand, never carried).
        return (type(self), (self.experiment, dict(self.params), self.tag))

    def with_params(self, **overrides: Any) -> "Scenario":
        """Return a copy with ``overrides`` merged into the params."""
        merged = dict(self.params)
        merged.update(overrides)
        return Scenario(self.experiment, merged, self.tag)

    def describe(self, max_width: int = 60) -> str:
        """One-line ``k=v`` digest of the overrides, for listings."""
        text = one_line(
            ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())),
            max_width,
        )
        return text or "(driver defaults)"


@dataclass(frozen=True)
class Sweep:
    """A declarative family of scenarios for one experiment.

    Attributes
    ----------
    experiment:
        Experiment id the scenarios target.
    axes:
        Mapping ``param -> sequence of values``.  ``mode="grid"``
        takes the cartesian product of all axes; ``mode="zip"`` pairs
        the i-th value of every axis (all axes must then have equal
        length).
    base:
        Overrides shared by every expanded scenario (axis values win
        on conflict).
    mode:
        ``"grid"`` or ``"zip"``.
    tag:
        Label stamped on every expanded scenario.

    Examples
    --------
    >>> sweep = Sweep("E7", axes={"node_mtbf_years": (1.0, 5.0),
    ...                           "checkpoint_time": (60.0, 300.0)})
    >>> len(sweep.expand())
    4
    """

    experiment: str
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    mode: str = "grid"
    tag: str = ""

    def __post_init__(self):
        if self.mode not in ("grid", "zip"):
            raise ValueError(f"mode must be 'grid' or 'zip', got {self.mode!r}")
        object.__setattr__(self, "axes", {k: list(v) for k, v in self.axes.items()})
        object.__setattr__(self, "base", dict(self.base))
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        if self.mode == "zip" and self.axes:
            lengths = {len(v) for v in self.axes.values()}
            if len(lengths) > 1:
                raise ValueError(
                    f"zip sweep axes must have equal lengths, got {sorted(lengths)}"
                )

    def expand(self) -> List[Scenario]:
        """Materialize the scenarios, in deterministic axis order."""
        names = sorted(self.axes)
        if not names:
            return [Scenario(self.experiment, self.base, self.tag)]
        if self.mode == "zip":
            combos: Iterator[Tuple[Any, ...]] = zip(*(self.axes[n] for n in names))
        else:
            combos = itertools.product(*(self.axes[n] for n in names))
        scenarios = []
        for combo in combos:
            params = dict(self.base)
            params.update(zip(names, combo))
            scenarios.append(Scenario(self.experiment, params, self.tag))
        return scenarios
