"""JSON-friendly normalization of experiment data.

The campaign result store (:mod:`repro.campaign.store`) persists
:class:`~repro.experiments.common.ExperimentResult` objects as JSON
lines.  Experiment tables and summaries freely mix Python scalars with
NumPy scalars and arrays, and parameters are often tuples; ``jsonify``
maps all of those onto the plain JSON value model so that

* ``json.dumps`` never raises on an experiment result, and
* two logically equal values always serialize to the same text (which
  is what makes scenario keys stable -- see
  :func:`repro.campaign.spec.scenario_key`).

The mapping is lossy only in ways round-tripping does not care about:
tuples come back as lists and NumPy scalars come back as Python
scalars.  Float values are preserved exactly (``json`` round-trips
IEEE-754 doubles bit-for-bit).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = ["jsonify", "canonical_json"]


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` to plain JSON-compatible types.

    Handles NumPy scalars and arrays, tuples/lists/sets, mappings with
    non-string keys (coerced via ``str``), and the basic Python
    scalars.  Anything else falls back to ``str(value)`` so that
    serialization never fails on incidental payload (the fallback is
    applied to *values*, never silently to containers).
    """
    kind = type(value)
    # Nearly every container is exactly one of these three: recognise
    # them before the scalar and NumPy tests (subclasses fall through).
    if kind is dict:
        return {str(k): jsonify(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        # Sort by repr so mixed-type sets (unorderable in Python 3)
        # still serialize, and element order stays deterministic.
        return sorted((jsonify(v) for v in value), key=repr)
    return str(value)


def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON text of ``value``.

    Scenario keys hash this form, batch grouping compares it
    (:func:`repro.experiments.common.batch_signature`), and the
    supervised executor (:mod:`repro.campaign.executor`) checksums
    result payloads with it to detect corruption in transit from a
    worker.
    """
    return json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))
