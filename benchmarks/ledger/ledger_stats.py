"""Median/quartile/bound arithmetic shared by ``run.py`` and ``compare.py``.

Standard library only.  Quartiles are the ones
``statistics.quantiles(values, n=4)`` gives -- the same rule the
builder's driver applies to its ten runs -- so a spread quoted here
means what the acceptance check means by it.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

__all__ = ["summarize", "spread", "worse_by", "separated", "verdict"]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric's rounds."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def spread(row: Dict[str, object]) -> float:
    """Inter-quartile distance as a share of the median (0 for median 0)."""
    median = float(row["median"])
    if median == 0.0:
        return 0.0
    return (float(row["q3"]) - float(row["q1"])) / abs(median)


def worse_by(old: float, new: float, better: str, absolute: bool = False) -> float:
    """How much worse ``new`` is than ``old``; negative means better.

    A share of ``old`` unless ``absolute`` (then a plain difference, for
    metrics such as ``failed_frac`` whose expected value is 0).
    """
    delta = (new - old) if better == "lower" else (old - new)
    if absolute:
        return delta
    if old == 0.0:
        return 0.0 if delta == 0.0 else (float("inf") if delta > 0 else float("-inf"))
    return delta / abs(old)


def separated(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether every sample of one side lies beyond every sample of the other."""
    return max(a) < min(b) or max(b) < min(a)


def verdict(
    a: Dict[str, object],
    b: Dict[str, object],
    *,
    better: str,
    bound: Optional[float],
    absolute: bool = False,
    exact: bool = False,
) -> str:
    """Compare side ``b`` (the change) with side ``a`` (the parent).

    * exact counts: ``same`` or ``changed``;
    * a metric without a bound (per-layer timings): ``ok`` -- it is
      shown, never gated;
    * otherwise ``regressed`` when ``b``'s median is worse than ``a``'s
      by more than the bound, ``improved`` when it is better by more
      than the bound, ``ok`` in between -- except that when either
      side's inter-quartile spread exceeds the bound the row is
      ``unresolved`` (not unchanged) unless every round of one side
      beats every round of the other.
    """
    if exact:
        # Every round must read the same number on both sides.
        return "same" if set(a["values"]) == set(b["values"]) else "changed"
    if bound is None:
        return "ok"
    delta = worse_by(float(a["median"]), float(b["median"]), better, absolute)
    if not absolute:
        noisy = spread(a) > bound or spread(b) > bound
        if noisy and not separated(a["values"], b["values"]):
            return "unresolved"
    if delta > bound:
        return "regressed"
    if delta < -bound:
        return "improved"
    return "ok"
