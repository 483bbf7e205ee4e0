"""Golden-table regression tests for every experiment driver (E1-E7).

Each driver runs at the small, pinned parameters of its
``SPEC.golden`` configuration; the full rendered table plus the scalar
summary entries must match the checked-in golden file byte-for-byte.
This locks the qualitative claims of the paper reproduction (who wins,
by how much, at which scale) against silent drift: any change to solver
numerics, fault schedules, RNG streams, or table formatting shows up as
a golden diff.

Regenerating after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
    git diff tests/goldens/   # review every change before committing

Excluded from the golden text (and only these):

* wall-clock timings (``kernel_seconds`` -- the one summary entry that
  is not a pure function of the seed), and
* nested renderings (multi-line strings such as E3's ``anchor_table``),
  which are covered by the drivers' own claim tests instead.
"""

from __future__ import annotations

import pathlib
import warnings

import pytest

from repro.campaign.registry import default_registry
from repro.campaign.spec import canonical_json

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

# Summary keys that are wall-clock derived and therefore not golden.
_NONDETERMINISTIC_KEYS = {"kernel_seconds"}

_DRIVERS = list(default_registry())


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(float(value))  # full precision: exact-match regression
    return str(value)


def golden_text(result) -> str:
    """The canonical golden rendering of an ExperimentResult."""
    lines = [
        f"experiment: {result.experiment}",
        f"claim: {result.claim}",
        f"parameters: {canonical_json(result.parameters)}",
        "",
        result.table.render(),
        "",
        "summary scalars:",
    ]
    for key in sorted(result.summary):
        value = result.summary[key]
        if key in _NONDETERMINISTIC_KEYS or isinstance(value, dict):
            continue
        if isinstance(value, str) and "\n" in value:
            continue
        lines.append(f"  {key} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def _golden_path(driver) -> pathlib.Path:
    return GOLDEN_DIR / f"{driver.experiment.lower()}_{driver.name}.txt"


@pytest.mark.parametrize("driver", _DRIVERS, ids=lambda d: d.experiment)
def test_driver_matches_golden(driver, update_goldens):
    result = driver.run(**driver.spec.golden)
    assert result.experiment == driver.experiment
    text = golden_text(result)
    path = _golden_path(driver)

    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"updated {path}")

    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        f"pytest tests/test_goldens.py --update-goldens"
    )
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"{driver.experiment} drifted from its golden table. If the change "
        f"is intentional, rerun with --update-goldens and review the diff."
    )


@pytest.mark.parametrize(
    "driver",
    [d for d in _DRIVERS if d.experiment in ("E1", "E5", "E7")],
    ids=lambda d: d.experiment,
)
def test_golden_text_is_deterministic_in_process(driver):
    """Two back-to-back runs at golden parameters render identically."""
    first = golden_text(driver.run(**driver.spec.golden))
    second = golden_text(driver.run(**driver.spec.golden))
    assert first == second


def test_goldens_cover_all_seven_experiments():
    assert {d.experiment for d in _DRIVERS} >= {f"E{i}" for i in range(1, 8)}


@pytest.mark.parametrize("experiment", ["E1", "E8"])
def test_fault_drivers_scope_their_floating_point_warnings(experiment):
    # Overflow/NaN is the injected fault's expected effect inside these
    # drivers' solves; they must not leak it as RuntimeWarnings.
    driver = default_registry().get(experiment)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        driver.run(**driver.spec.golden)
