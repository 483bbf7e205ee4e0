"""Hard-fault (process-failure) models.

The LFLR and checkpoint/restart experiments need to know *when which
rank dies*.  Failure interarrival times follow the standard models used
in the resilience literature:

* exponential interarrivals (memoryless, parameterized by a per-node
  MTBF), the model underlying the Young/Daly checkpoint-interval
  formulas;
* Weibull interarrivals, which empirically fit HPC failure logs better
  (infant-mortality-shaped hazard for shape < 1).

A :class:`FailurePlan` materializes a model into a concrete, replayable
list of ``(time, rank)`` failures for a run of given length and rank
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive, check_non_negative, check_integer

__all__ = [
    "ProcessFailureModel",
    "ExponentialFailureModel",
    "WeibullFailureModel",
    "FailurePlan",
    "system_mtbf",
]


def system_mtbf(node_mtbf: float, n_nodes: int) -> float:
    """Mean time between failures of an ``n_nodes`` system.

    With independent exponential node failures the system failure rate
    is the sum of node rates, so the system MTBF is the node MTBF
    divided by the node count.  This is the scaling that makes global
    checkpoint/restart untenable at extreme scale (paper §I, §II-C).
    """
    check_positive(node_mtbf, "node_mtbf")
    check_integer(n_nodes, "n_nodes")
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    return node_mtbf / n_nodes


class ProcessFailureModel:
    """Base class: samples failure interarrival times for a single node."""

    def sample_interarrival(self, rng: np.random.Generator) -> float:
        """Sample one interarrival time (seconds)."""
        raise NotImplementedError

    def node_mtbf(self) -> float:
        """Mean of the interarrival distribution."""
        raise NotImplementedError


class ExponentialFailureModel(ProcessFailureModel):
    """Memoryless failures with mean time between failures ``mtbf``."""

    def __init__(self, mtbf: float):
        self.mtbf = check_positive(mtbf, "mtbf")

    def sample_interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mtbf))

    def node_mtbf(self) -> float:
        return self.mtbf


class WeibullFailureModel(ProcessFailureModel):
    """Weibull-distributed failure interarrivals.

    Parameters
    ----------
    scale:
        Weibull scale parameter (seconds).
    shape:
        Weibull shape parameter; ``shape < 1`` gives the decreasing
        hazard rate observed in production failure logs.
    """

    def __init__(self, scale: float, shape: float = 0.7):
        self.scale = check_positive(scale, "scale")
        self.shape = check_positive(shape, "shape")

    def sample_interarrival(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def node_mtbf(self) -> float:
        # Mean of Weibull(scale, shape) = scale * Gamma(1 + 1/shape)
        from math import gamma

        return self.scale * gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class RankFailure:
    """A single planned rank failure."""

    time: float
    rank: int


class FailurePlan:
    """A concrete, replayable list of rank failures.

    Parameters
    ----------
    failures:
        Sequence of ``(time, rank)`` pairs; it is sorted by time on
        construction.
    """

    def __init__(self, failures: Sequence[Tuple[float, int]]):
        items = [RankFailure(float(t), int(r)) for t, r in failures]
        for item in items:
            check_non_negative(item.time, "failure time")
            if item.rank < 0:
                raise ValueError("rank must be non-negative")
        self._failures: List[RankFailure] = sorted(items, key=lambda f: f.time)

    @classmethod
    def sample(
        cls,
        model: ProcessFailureModel,
        n_ranks: int,
        horizon: float,
        rng: Union[None, int, np.random.Generator] = None,
        *,
        max_failures: Optional[int] = None,
    ) -> "FailurePlan":
        """Sample a plan: each rank fails independently per the model.

        Only failures within ``[0, horizon]`` are kept.  A rank can
        fail more than once in the horizon (modelling its replacement
        failing again), unless the caller trims with ``max_failures``.
        """
        check_integer(n_ranks, "n_ranks")
        check_non_negative(horizon, "horizon")
        gen = as_generator(rng)
        failures: List[Tuple[float, int]] = []
        for rank in range(n_ranks):
            t = 0.0
            while True:
                t += model.sample_interarrival(gen)
                if t > horizon:
                    break
                failures.append((t, rank))
        failures.sort(key=lambda f: f[0])
        if max_failures is not None:
            failures = failures[:max_failures]
        return cls(failures)

    @classmethod
    def single(cls, time: float, rank: int) -> "FailurePlan":
        """Plan with exactly one failure (the common test case)."""
        return cls([(time, rank)])

    @classmethod
    def none(cls) -> "FailurePlan":
        """An empty plan (fault-free control)."""
        return cls([])

    @property
    def failures(self) -> List[RankFailure]:
        """All planned failures, sorted by time."""
        return list(self._failures)

    def failures_for_rank(self, rank: int) -> List[RankFailure]:
        """Planned failures of one rank."""
        return [f for f in self._failures if f.rank == rank]

    def __len__(self) -> int:
        return len(self._failures)

    def __iter__(self):
        return iter(self._failures)
