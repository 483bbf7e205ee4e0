"""Tier-1 tests of the ledger's arithmetic and schema (no workload runs).

Covers the median/quartile/bound arithmetic, ``compare.py`` verdicts on
synthetic pairs, and the agreement between ``BENCHMARK.json`` and the
names the harness emits.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import compare  # noqa: E402
import ledger_spec as spec  # noqa: E402
import run as ledger_run  # noqa: E402
from ledger_stats import separated, spread, summarize, verdict, worse_by  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_summarize_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    row = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (row["median"], row["q1"], row["q3"], row["n"]) == (4.0, q1, q3, 7)
    assert spread(row) == pytest.approx((q3 - q1) / 4.0)
    single = summarize([2.5])
    assert (single["median"], single["q1"], single["q3"], single["n"]) == (2.5, 2.5, 2.5, 1)
    with pytest.raises(ValueError):
        summarize([])


def test_worse_by_respects_direction_and_absolute():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(0.0, 0.02, "lower", absolute=True) == pytest.approx(0.02)
    assert worse_by(0.0, 0.0, "lower") == 0.0
    assert worse_by(0.0, 1.0, "lower") == float("inf")


def test_separated():
    assert separated([1, 2, 3], [4, 5])
    assert separated([4, 5], [1, 2, 3])
    assert not separated([1, 2, 4], [3, 5])


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        # tight spreads: the medians decide
        ([100, 101, 99, 100, 100], [115, 116, 114, 115, 115], "lower", 0.10, "regressed"),
        ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "lower", 0.10, "improved"),
        ([100, 101, 99, 100, 100], [104, 105, 103, 104, 104], "lower", 0.10, "ok"),
        ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "higher", 0.10, "regressed"),
        # a wide side with overlapping rounds says nothing
        ([100, 130, 80, 100, 120], [104, 105, 103, 104, 104], "lower", 0.10, "unresolved"),
        ([100, 101, 99, 100, 100], [90, 140, 100, 70, 125], "lower", 0.10, "unresolved"),
        # ... unless every round of one side beats every round of the other
        ([100, 130, 80, 100, 120], [150, 151, 149, 150, 150], "lower", 0.10, "regressed"),
        ([100, 130, 80, 100, 120], [50, 51, 49, 50, 50], "lower", 0.10, "improved"),
    ],
)
def test_verdict_on_bounded_metrics(a, b, better, bound, expected):
    assert verdict(summarize(a), summarize(b), better=better, bound=bound) == expected


def test_verdict_exact_absolute_and_unbounded():
    assert verdict(summarize([42, 42]), summarize([42]), better="lower", bound=None, exact=True) == "same"
    assert verdict(summarize([42, 42]), summarize([43]), better="lower", bound=None, exact=True) == "changed"
    zero, some = summarize([0.0]), summarize([0.01])
    assert verdict(zero, zero, better="lower", bound=0.0, absolute=True) == "ok"
    assert verdict(zero, some, better="lower", bound=0.0, absolute=True) == "regressed"
    # per-layer timings have no bound: shown, never gated
    assert verdict(summarize([1.0]), summarize([9.0]), better="lower", bound=None) == "ok"


# ----------------------------------------------------------------------
# run.py aggregation on synthetic rounds
# ----------------------------------------------------------------------
def _round(wall, cpu=None, units=(1, 1), failed=0, iterations=7, setup=1.0, rss=50.0,
           slow=1.0):
    """A synthetic round record; ``slow`` is the host slowdown it ran under."""
    passes = len(wall)
    cal = spec.REFERENCE_CAL_S * slow
    return {
        "op_names": ["a", "b"], "op_units": list(units),
        "op_wall_s": wall, "op_cpu_s": cpu or wall,
        "op_cal_wall_s": [[cal] * 2] * passes, "op_cal_cpu_s": [[cal] * 2] * passes,
        "cal_s": [cal] * (passes + 10), "setup_cal_s": cal,
        "setup_s": setup, "wall_s": sum(map(sum, wall)), "peak_rss_mb": rss,
        "attempted": passes * sum(units), "failed": failed,
        "iterations": iterations, "attributed_s": 0.5 * sum(map(sum, wall)),
    }


def test_throughput_takes_the_median_per_operation():
    clean = _round([[0.1, 0.3], [0.1, 0.3], [0.1, 0.3]])
    # a burst of interference hits one sample of one operation
    burst = _round([[0.1, 0.3], [0.1, 0.9], [0.1, 0.3]])
    assert ledger_run.work_per_s([clean]) == pytest.approx(2 / 0.4)
    assert ledger_run.work_per_s([burst]) == pytest.approx(2 / 0.4)
    assert ledger_run.cpu_ms_per_work([burst]) == pytest.approx(1e3 * 0.4 / 2)
    # failed units are not completed work
    half = _round([[0.1, 0.3]], failed=1)
    assert ledger_run.work_per_s([half]) == pytest.approx(1 / 0.4)


def test_reference_seconds_cancel_a_slow_host():
    quiet = _round([[0.1, 0.3], [0.1, 0.3]], setup=1.0)
    # the same work on a host running 1.5x slower: every time is 1.5x longer
    slow = _round([[0.15, 0.45], [0.15, 0.45]], setup=1.5, slow=1.5)
    assert ledger_run.slowdown([slow]) == pytest.approx(1.5)
    assert ledger_run.work_per_s([slow]) == pytest.approx(ledger_run.work_per_s([quiet]))
    assert ledger_run.cpu_ms_per_work([slow]) == pytest.approx(ledger_run.cpu_ms_per_work([quiet]))
    assert ledger_run.setup_s(slow) == pytest.approx(ledger_run.setup_s(quiet))
    assert ledger_run.work_per_s([slow], reference=False) == pytest.approx(2 / 0.6)
    rows = {row["metric"]: row for row in ledger_run.end_to_end_rows("tables", [slow])}
    assert rows["work_per_s"]["raw_median"] == pytest.approx(2 / 0.6)
    assert rows["work_per_s"]["slowdown"] == pytest.approx(1.5)


def test_end_to_end_rows_report_every_metric():
    rounds = [_round([[0.1, 0.3]], setup=s, rss=r) for s, r in ((1.0, 50), (1.2, 51), (1.1, 52))]
    rows = {row["metric"]: row for row in ledger_run.end_to_end_rows("tables", rounds)}
    assert list(rows) == [m.name for m in spec.END_TO_END]
    assert rows["setup_s"]["median"] == 1.1 and rows["setup_s"]["n"] == 3
    assert rows["failed_frac"]["median"] == 0.0
    assert rows["work_per_s"]["bound"] == 0.25 and rows["work_per_s"]["unit"] == "work/s"
    assert all(row["workload"] == "tables" for row in rows.values())


def test_plan_rounds_fixes_counts():
    by_name = {w.name: w for w in spec.WORKLOADS}
    for workload in spec.WORKLOADS:
        rounds, passes = spec.plan_rounds(workload, 8)
        assert (rounds, passes) == spec.plan_rounds(workload, 8)
        assert rounds == spec.ROUNDS and passes >= 1
    assert spec.plan_rounds(by_name["tables"], 18)[1] == 2 * spec.plan_rounds(by_name["tables"], 9)[1]


def test_hygiene_finds_and_kills_a_leftover_process():
    import subprocess

    leader = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"],
        start_new_session=True,
    )
    leader.wait(timeout=10)
    # the round is gone, its child is not
    assert ledger_run._kill_group(leader.pid, grace_s=0.2) is True
    assert ledger_run._kill_group(leader.pid, grace_s=1.0) is False


# ----------------------------------------------------------------------
# compare.py on synthetic pairs
# ----------------------------------------------------------------------
def _document(tmp_path, name, work_values, iterations=100, seed=1):
    metrics = spec.metric_index()
    rows = [
        ledger_run._row(metrics["work_per_s"], "tables", work_values, "end_to_end"),
        ledger_run._row(metrics["failed_frac"], "tables", [0.0], "end_to_end"),
        ledger_run._row(metrics["krylov.engine.iterations"], "tables", [iterations], "per_layer"),
        ledger_run._row(metrics["linalg.matvec_us.n64"], None, [5.0], "per_layer"),
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"seed": seed, "seconds": 8, "rows": rows}))
    return str(path)


@pytest.mark.parametrize(
    "b_values, b_iterations, word, code",
    [
        ([100, 101, 99, 100, 100], 100, "ok", 0),
        ([60, 61, 59, 60, 60], 100, "regressed", 1),
        ([140, 141, 139, 140, 140], 100, "improved", 0),
        ([50, 170, 100, 140, 80], 100, "unresolved", 0),
        ([100, 101, 99, 100, 100], 101, "changed", 1),
    ],
)
def test_compare_cli_verdicts(tmp_path, capsys, b_values, b_iterations, word, code):
    a = _document(tmp_path, "a.json", [100, 101, 99, 100, 100])
    b = _document(tmp_path, "b.json", b_values, b_iterations)
    assert compare.main([a, b]) == code
    out = capsys.readouterr().out
    assert word in out
    assert "work_per_s" in out and "tables" in out


def test_compare_leaves_counts_out_when_seeds_differ(tmp_path, capsys):
    a = _document(tmp_path, "a.json", [100, 101, 99, 100, 100], iterations=100, seed=1)
    b = _document(tmp_path, "b.json", [100, 101, 99, 100, 100], iterations=250, seed=2)
    assert compare.main([a, b]) == 0
    assert "krylov.engine.iterations" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# BENCHMARK.json against the harness
# ----------------------------------------------------------------------
def test_benchmark_json_shape(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["paths"] == ["benchmarks/ledger"]
    assert benchmark_json["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(benchmark_json["run_seconds"], int)
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_json[key]
    ]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for entry in benchmark_json["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in benchmark_json["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in benchmark_json["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    size = os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_benchmark_json_agrees_with_the_declarations(benchmark_json):
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    declared = spec.metric_index()
    assert [m["name"] for m in benchmark_json["end_to_end"]] == list(spec.CONTRACT_END_TO_END)
    for entry in benchmark_json["end_to_end"]:
        metric = declared[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound,
        )
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()), "set-up has the largest bound"
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]


def test_harness_emits_exactly_the_declared_names(benchmark_json):
    """Both result objects carry every declared name and no other."""
    rounds = [_round([[0.1, 0.3]]), _round([[0.1, 0.3]])]
    untraced = {
        "trace": 0, "failed": 0, "attempted": 4, "problems": [],
        "rows": ledger_run.end_to_end_rows("tables", rounds),
    }
    result = ledger_run.contract_result(untraced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in benchmark_json["end_to_end"]]
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())

    probes = {m.name: 1.0 for m in spec.PER_LAYER if not m.per_workload}
    traced = {
        "trace": 1, "failed": 0, "attempted": 4, "problems": [],
        "rows": ledger_run.probe_rows(probes)
        + ledger_run.traced_rows("tables", rounds[0], rounds[1]),
    }
    emitted = ledger_run.contract_result(traced)["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in benchmark_json["per_layer"])
    by_name = {row["metric"]: row for row in traced["rows"]}
    assert by_name["unattributed_frac"]["median"] == pytest.approx(0.5)
    assert by_name["krylov.engine.iterations"]["exact"] is True
    # a probe that forgets a declared metric fails the traced run loudly
    probes.pop("linalg.matvec_us.n64")
    with pytest.raises(KeyError):
        ledger_run.probe_rows(probes)


def test_exact_counts_are_counts(benchmark_json):
    units = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    exact = [m for m in spec.PER_LAYER if m.exact]
    assert {"krylov.engine.iterations", "reliability.injections",
            "campaign.runner.batch_groups",
            "campaign.executor.attempts_per_scenario",
            "skeptical.detection_rate"} <= {m.name for m in exact}
    for metric in exact:
        assert metric.bound is None and units[metric.name] in ("count", "ratio")
