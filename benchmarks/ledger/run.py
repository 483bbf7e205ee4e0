"""The benchmark ledger: run workloads in fresh subprocesses, report medians.

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 2013 --out FILE

runs every workload, checks its outputs and prints every end-to-end
metric by name with its unit.  ``--trace`` makes the separate traced
run (per-layer metrics, spans written as ``trace.jsonl`` beside FILE);
``--workload NAME`` and ``--rounds R`` narrow it.  With ``--workload``
the last line of standard output is the one JSON object the builder's
driver reads (``correct`` / ``attempted`` / ``failed`` / ``metrics``).

This process only schedules rounds and does arithmetic: it imports
neither numpy nor ``repro``, so it stays small (a round's RSS is its
own) and it is the single load generator -- rounds run one after
another, each using at most ``nproc`` busy processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

from ledger_spec import (  # noqa: E402
    CONTRACT_END_TO_END,
    END_TO_END,
    PER_LAYER,
    REFERENCE_CAL_S,
    WORKLOADS,
    Metric,
    Workload,
    plan_rounds,
)
from ledger_stats import summarize  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
ROUND_SCRIPT = os.path.join(LEDGER_DIR, "ledger_round.py")
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")
SHM_DIR = "/dev/shm"
ROUND_TIMEOUT_S = 150.0
GROUP_EXIT_GRACE_S = 2.0
# The stated configuration of every round.  One BLAS thread per process:
# the pool's two workers and shmem's two ranks already fill the two
# cores, and on this host a second OpenBLAS thread buys no wall time on
# solves_large while doubling its CPU time in spin-waits.  A fixed hash
# seed keeps dict/set layouts the same from round to round.
ROUND_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SCHEMA = "ledger/1"


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def _listing(path: str) -> set:
    return set(os.listdir(path)) if os.path.isdir(path) else set()


def _live_members(pgid: int) -> List[int]:
    """Pids of the process group that are still running (zombies waiting
    for init to reap them have already ended and do not count)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                # pid (comm) state ppid pgrp ...; comm may contain spaces
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


def _kill_group(pgid: int, grace_s: float = 0.0) -> bool:
    """SIGKILL whatever is left of a round's process group; True if any.

    ``grace_s`` gives helpers that exit on their own once the round is
    gone (multiprocessing's resource tracker leaves on EOF of its pipe)
    that long to do so before they count as leftovers.
    """
    deadline = time.monotonic() + grace_s
    while True:
        live = _live_members(pgid)
        if not live:
            return False
        if time.monotonic() >= deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            return True
        time.sleep(0.01)


def run_round(workload: str, seed: int, passes: int, trace: bool) -> dict:
    """Run one round in a fresh subprocess and check it cleaned up.

    The round gets its own session, so anything it leaves running is
    found (and killed) through its process group.  Hygiene findings --
    live children, leftover ``/dev/shm`` segments, leftover scratch
    files -- are returned under ``hygiene`` and make the run incorrect.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(ROUND_ENV)
    shm_before, work_before = _listing(SHM_DIR), _listing(WORK_ROOT)
    command = [
        sys.executable, ROUND_SCRIPT,
        "--workload", workload, "--seed", str(seed), "--passes", str(passes),
        "--trace", str(int(trace)), "--spawned-at", repr(time.time()),
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload}: round exceeded {ROUND_TIMEOUT_S:.0f} s")
    hygiene = []
    if _kill_group(process.pid, grace_s=GROUP_EXIT_GRACE_S):
        hygiene.append("round left live child processes (killed)")
    leaked = sorted(_listing(SHM_DIR) - shm_before)
    if leaked:
        hygiene.append(f"leftover /dev/shm segments: {leaked[:5]}")
    leaked = sorted(_listing(WORK_ROOT) - work_before)
    if leaked:
        hygiene.append(f"leftover scratch files: {leaked[:5]}")
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload}: round exited with code {process.returncode}"
        )
    record = json.loads(stdout.strip().splitlines()[-1])
    record["hygiene"] = hygiene
    return record


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
def _row(metric: Metric, workload: Optional[str], values: Sequence[float],
         kind: str) -> dict:
    row = {
        "metric": metric.name,
        "workload": workload,
        "kind": kind,
        "layer": metric.layer,
        "unit": metric.unit,
        "better": metric.better,
        "bound": metric.bound,
        "absolute": metric.absolute,
        "exact": metric.exact,
    }
    row.update(summarize(values))
    return row


def slowdown(rounds: Sequence[dict]) -> float:
    """How much slower than the reference host these rounds ran (1 = as fast)."""
    return statistics.median(c for r in rounds for c in r["cal_s"]) / REFERENCE_CAL_S


def _per_pass(rounds: Sequence[dict], key: str, reference: bool = True) -> float:
    """Seconds one pass takes: the sum over operations of the median of
    each operation's samples (every pass of every given round).

    The host is shared and its speed moves in two ways.  Bursts of
    about a second are handled by the median per operation: a burst
    costs one sample of one operation instead of shifting a round.
    Drift over minutes is handled by reporting *reference seconds*:
    each sample is scaled by ``REFERENCE_CAL_S`` over the time the
    calibration composite took right around that operation -- its wall
    time for wall samples, its CPU time for CPU samples.
    ``reference=False`` gives the unscaled seconds.
    """
    n_ops = len(rounds[0]["op_names"])
    yardstick = key.replace("op_", "op_cal_")
    return sum(
        statistics.median(
            sample[op] * (REFERENCE_CAL_S / r[yardstick][p][op] if reference else 1.0)
            for r in rounds for p, sample in enumerate(r[key])
        )
        for op in range(n_ops)
    )


def work_per_s(rounds: Sequence[dict], reference: bool = True) -> float:
    units = sum(rounds[0]["op_units"])
    done = 1.0 - sum(r["failed"] for r in rounds) / sum(r["attempted"] for r in rounds)
    return done * units / _per_pass(rounds, "op_wall_s", reference)


def cpu_ms_per_work(rounds: Sequence[dict], reference: bool = True) -> float:
    return 1e3 * _per_pass(rounds, "op_cpu_s", reference) / sum(rounds[0]["op_units"])


def setup_s(round_: dict, reference: bool = True) -> float:
    """Set-up time, scaled by the composite's time on either side of it."""
    scale = REFERENCE_CAL_S / round_["setup_cal_s"] if reference else 1.0
    return round_["setup_s"] * scale


def end_to_end_rows(workload: str, rounds: Sequence[dict]) -> List[dict]:
    """The five end-to-end rows of one workload from its untraced rounds.

    ``values`` are per round; for the two throughput metrics the
    headline ``median`` pools the operation samples of all rounds (see
    ``_per_pass``), which is steadier than the median of the per-round
    values and equal to it when nothing interferes.  The three time
    metrics are in reference seconds; ``raw_median`` is the same
    statistic in plain seconds.
    """
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {
        "setup_s": [setup_s(r) for r in rounds],
        "work_per_s": [work_per_s([r]) for r in rounds],
        "cpu_ms_per_work": [cpu_ms_per_work([r]) for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        # One number for the whole set: a median over rounds could hide
        # a round that failed.
        "failed_frac": [failed / attempted],
    }
    rows = {m.name: _row(m, workload, values[m.name], "end_to_end") for m in END_TO_END}
    rows["work_per_s"]["median"] = work_per_s(rounds)
    rows["cpu_ms_per_work"]["median"] = cpu_ms_per_work(rounds)
    rows["setup_s"]["raw_median"] = statistics.median(setup_s(r, False) for r in rounds)
    rows["work_per_s"]["raw_median"] = work_per_s(rounds, False)
    rows["cpu_ms_per_work"]["raw_median"] = cpu_ms_per_work(rounds, False)
    for name in ("setup_s", "work_per_s", "cpu_ms_per_work"):
        rows[name]["slowdown"] = slowdown(rounds)
    return list(rows.values())


def traced_rows(workload: str, untraced: dict, traced: dict) -> List[dict]:
    """The per-workload layer rows: exact iteration count, the
    unattributed remainder of the traced round, and the tracing cost."""
    by_name = {m.name: m for m in PER_LAYER if m.per_workload}
    speed = lambda r: work_per_s([r])
    values = {
        "krylov.engine.iterations": [untraced["iterations"], traced["iterations"]],
        "unattributed_frac": [1.0 - traced["attributed_s"] / traced["wall_s"]],
        "trace.overhead_frac": [speed(untraced) / speed(traced) - 1.0],
    }
    return [_row(by_name[n], workload, v, "per_layer") for n, v in values.items()]


def probe_rows(metrics: Dict[str, float]) -> List[dict]:
    """Rows for the workload-independent layer probes."""
    rows = []
    for metric in PER_LAYER:
        if metric.per_workload:
            continue
        rows.append(_row(metric, None, [metrics[metric.name]], "per_layer"))
    return rows


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg1": os.getloadavg()[0],
        "round_env": dict(ROUND_ENV),
    }


# ----------------------------------------------------------------------
# A set of runs
# ----------------------------------------------------------------------
def run_set(names: Sequence[str], seed: int, seconds: float, trace: bool,
            rounds_override: Optional[int] = None, log=print) -> dict:
    """Run the selected workloads; returns the ledger document."""
    by_name: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
    host = host_facts()
    rows: List[dict] = []
    raw: Dict[str, List[dict]] = {}
    spans: List[dict] = []
    problems: List[str] = []
    attempted = failed = 0

    def absorb(record: dict, label: str) -> None:
        for note in record.get("notes", []) + record["hygiene"]:
            problems.append(f"{label}: {note}")
        for span in record.pop("spans", []):
            span["round"] = label
            spans.append(span)
        host.update(record.pop("versions", {}))
        raw.setdefault(label.split("/")[0], []).append(record)

    if trace:
        log("probes: layer probes in one fresh process")
        probes = run_round("probes", seed, 1, True)
        absorb(probes, "probes")
        rows.extend(probe_rows(probes["metrics"]))

    for name in names:
        workload = by_name[name]
        n_rounds, passes = plan_rounds(workload, seconds)
        if trace:
            n_rounds = 1
        elif rounds_override:
            n_rounds = rounds_override
        log(f"{name}: {n_rounds} round(s) x {passes} pass(es)"
            + (" + 1 traced round" if trace else ""))
        untraced = []
        for index in range(n_rounds):
            record = run_round(name, seed, passes, False)
            absorb(record, f"{name}/{index}")
            untraced.append(record)
        records = list(untraced)
        if trace:
            traced = run_round(name, seed, passes, True)
            absorb(traced, f"{name}/traced")
            records.append(traced)
            rows.extend(traced_rows(name, untraced[0], traced))
        else:
            rows.extend(end_to_end_rows(name, untraced))
        attempted += sum(r["attempted"] for r in records)
        failed += sum(r["failed"] for r in records)

    return {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workloads": list(names),
        "host": host,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rows": rows,
        "rounds": raw,
        "spans": spans,
    }


def render(document: dict) -> str:
    """Every metric by name with its unit, one row per (metric, workload).

    Times are reference seconds; ``plain`` repeats the median in plain
    seconds and ``slow`` says how much slower than the reference host
    the rounds ran.
    """
    lines = [
        f"{'metric':44s} {'workload':16s} {'unit':8s} "
        f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s} {'plain':>12s} {'slow':>5s}"
    ]
    for row in document["rows"]:
        name = row["metric"]
        if row["kind"] == "per_layer" and row["workload"]:
            name = f"{name}.{row['workload']}"
        plain = (
            f"{row['raw_median']:12.6g} {row['slowdown']:5.2f}"
            if "raw_median" in row else ""
        )
        lines.append(
            f"{name:44s} {row['workload'] or '-':16s} {row['unit']:8s} "
            f"{row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
            f"{row['n']:3d} {plain}".rstrip()
        )
    lines.append(
        f"attempted {document['attempted']}  failed {document['failed']}"
    )
    lines.extend(f"PROBLEM {p}" for p in document["problems"])
    return "\n".join(lines)


def contract_result(document: dict) -> dict:
    """The one-object result of a single-workload run, as the driver reads it."""
    wanted = (
        [m.name for m in PER_LAYER] if document["trace"]
        else list(CONTRACT_END_TO_END)
    )
    by_name = {row["metric"]: row for row in document["rows"]}
    return {
        "correct": document["failed"] == 0 and not document["problems"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": by_name[name]["median"], "unit": by_name[name]["unit"]}
            for name in wanted
        },
    }


def write_outputs(document: dict, out: str) -> None:
    spans = document.pop("spans")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if document["trace"]:
        path = os.path.join(os.path.dirname(os.path.abspath(out)), "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def default_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json: one source for the run length."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="make the traced run (per-layer metrics) instead")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the number of rounds per workload")
    parser.add_argument("--out", default=None, help="write the ledger JSON here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"run.py: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    log = lambda message: print(message, file=sys.stderr, flush=True)
    try:
        document = run_set(names, args.seed, seconds, bool(args.trace),
                           args.rounds, log)
    except RuntimeError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(render(document))
    result = contract_result(document) if args.workload else None
    if args.out:
        write_outputs(document, args.out)
    if result is not None:
        # The driver reads correctness from the object, not the exit code.
        print(json.dumps(result))
        return 0
    return 1 if document["failed"] or document["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
