"""The deterministic simulated backend (``"sim"``).

The simulator's :class:`repro.simmpi.comm.Comm` subclasses
:class:`~repro.comm.base.BaseCommunicator` like every backend, so this
module holds only :func:`launch_sim`, a thin spec-aware shim over
:func:`repro.simmpi.runtime.run_spmd`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.simmpi.runtime import run_spmd

__all__ = ["launch_sim"]


def launch_sim(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine=None,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
    timeout: Optional[float] = None,
    **kwargs: Any,
) -> List[Any]:
    """Run ``func`` on the simulated runtime (uniform launch contract).

    ``timeout`` -- the backend-neutral per-wait bound -- maps onto the
    simulator's wall-clock ``watchdog``; everything else forwards to
    :func:`~repro.simmpi.runtime.run_spmd` verbatim.
    """
    extra = {}
    if timeout is not None:
        extra["watchdog"] = timeout
    return run_spmd(
        n_ranks,
        func,
        *args,
        machine=machine,
        failure_plan=failure_plan,
        faults=faults,
        fault_seed=fault_seed,
        **extra,
        **kwargs,
    )
