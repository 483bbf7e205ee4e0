"""One round: one workload (or the layer probes) in a fresh process.

``run.py`` starts this file once per round so that every round sees a
cold ``matgen`` LRU, cold registries and its own RSS.  The last line of
standard output is one JSON object with the round's raw numbers; the
parent turns rounds into medians.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
# Scratch space for stores and ledgers; inside the checkout (the
# benchmark may write nowhere else) and listed in .gitignore.
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")

_NO_SPAN = nullcontext()


class Tracer:
    """In-memory spans around the harness's own calls into each layer.

    A span is ``{id, parent, name, layer, start, end}`` (seconds since
    this process started timing) plus optional ``counts`` taken at the
    same boundary.  When tracing is off ``span`` hands back one shared
    no-op context manager, so an untraced timed section pays nothing
    beyond the call.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def span(self, name: str, layer: str):
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, layer)

    @contextmanager
    def _span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": self.now(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    def scenario_hook(self) -> Optional[Callable]:
        """A ``CampaignRunner(progress=...)`` callback recording one span
        per scenario, synthesized from ``outcome.elapsed`` (the runner
        reports a duration, not a start time)."""
        if not self.enabled:
            return None

        def hook(outcome) -> None:
            end = self.now()
            self.spans.append({
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": outcome.scenario.experiment,
                "layer": "experiments",
                "start": end - outcome.elapsed,
                "end": end,
                "counts": {"attempts": outcome.attempts, "status": outcome.status},
            })

        return hook


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def run_workload(name: str, seed: int, passes: int, trace: bool,
                 spawned_at: float, workdir: str) -> dict:
    from ledger_workloads import WORKLOAD_CLASSES, pin_to_cores

    tracer = Tracer(trace)
    workload = WORKLOAD_CLASSES[name](seed, passes, workdir)
    pin_to_cores(workload.cores)
    # The host's speed on either side of the set-up; the time the first
    # burst takes is not set-up.
    calibrator = workload.calibrator
    burst_started = time.perf_counter()
    with tracer.span("calibrate", "harness"):
        cal_before = calibrator.burst()
    burst_s = time.perf_counter() - burst_started
    with tracer.span("setup", "harness"):
        workload.setup()
    setup_s = time.time() - spawned_at - burst_s
    with tracer.span("calibrate", "harness"):
        cal_after = calibrator.burst()
    with tracer.span("timed", "harness"):
        workload.timed(tracer)
    rss = peak_rss_mb()
    checked = workload.check()
    return {
        "workload": name,
        "passes": passes,
        "setup_s": setup_s,
        "wall_s": workload.passes_s,
        "peak_rss_mb": rss,
        "op_names": list(workload.op_names),
        "op_units": list(workload.op_units),
        "op_wall_s": workload.wall,
        "op_cpu_s": workload.cpu,
        "op_cal_wall_s": [[wall for wall, _ in ops] for ops in workload.cal],
        "op_cal_cpu_s": [[cpu for _, cpu in ops] for ops in workload.cal],
        "setup_cal_s": 0.5 * (cal_before + cal_after),
        "cal_s": calibrator.seconds,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "iterations": checked.iterations,
        "attributed_s": workload.attributed_s,
        "notes": checked.notes,
        "spans": tracer.spans,
    }


def run_probes(seed: int, workdir: str) -> dict:
    from ledger_probes import run_all

    tracer = Tracer(True)
    metrics = run_all(seed, workdir, tracer)
    return {"workload": "probes", "metrics": metrics, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started this process")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK_ROOT)
    try:
        if args.workload == "probes":
            record = run_probes(args.seed, workdir)
        else:
            record = run_workload(args.workload, args.seed, args.passes,
                                  bool(args.trace), spawned_at, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    record["versions"] = {"numpy": numpy.__version__}
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
