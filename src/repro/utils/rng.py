"""Reproducible random-number-generator management.

Every stochastic component in :mod:`repro` (fault schedules, noise
models, workload generators) draws its randomness from a
:class:`numpy.random.Generator` obtained through this module, so that

* a single integer seed reproduces an entire experiment, and
* independent components receive *statistically independent* streams
  (via :class:`numpy.random.SeedSequence` spawning) even when they are
  created in different orders.

The typical pattern is::

    factory = RngFactory(seed=1234)
    rng_faults = factory.spawn("faults")
    rng_noise = factory.spawn("noise")

Named spawning is deterministic: the same ``(seed, name)`` pair always
produces the same stream, regardless of how many other streams were
spawned in between.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

__all__ = ["RngFactory", "as_generator"]


def _name_to_key(name: str) -> int:
    """Map an arbitrary string to a stable 64-bit integer key.

    The mapping uses SHA-256 so that distinct names essentially never
    collide and the result does not depend on Python's per-process
    string hashing.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Factory of independent, reproducible random streams.

    Parameters
    ----------
    seed:
        Root seed of the experiment.  ``None`` produces
        non-reproducible entropy (allowed, but discouraged in tests and
        benchmarks).

    Notes
    -----
    Streams created via :meth:`spawn` with the same name are
    *identical*; streams with different names are independent.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    def spawn(self, name: str) -> np.random.Generator:
        """Return a generator keyed by ``name``.

        The same ``(seed, name)`` pair always yields the same stream.
        """
        key = _name_to_key(name)
        seq = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=(key,))
        return np.random.default_rng(seq)


def as_generator(
    rng: Union[None, int, np.random.Generator]
) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged).  This is the standard argument
    normalization used across the toolkit.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"expected None, int or numpy Generator, got {type(rng).__name__}"
    )
