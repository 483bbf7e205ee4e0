"""Tests of the static-analysis layer (``repro.analysis``).

Every rule gets at least one true-positive fixture and one
suppressed/allow-listed fixture, exercised through the same
:func:`repro.analysis.runner.run_analysis` entry point the CLI and the
verify gate use.  The suite also self-hosts: the final test runs the
full pass over this repository and asserts it is clean against the
checked-in baseline, which is exactly the contract scripts/verify.sh
enforces.
"""

import functools
import importlib
import json
import pathlib
import textwrap

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.core import SUPPRESSION_RE, Baseline, Finding, Rule, SourceFile
from repro.analysis.registry import (
    RuleRegistry,
    default_rule_registry,
    resolve_rules,
    rule_names,
)
from repro.analysis.runner import find_repo_root, run_analysis

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

EXPECTED_RULES = [
    "determinism",
    "doc-links",
    "driver-contract",
    "dtype-flow",
    "process-safety",
    "spec-strings",
]


def run_rules(tmp_path, files, rule_ids, baseline=None):
    """Write fixture ``files`` under ``tmp_path`` and run ``rule_ids``."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    registry = default_rule_registry()
    rules = [registry.get(rule_id) for rule_id in rule_ids]
    return run_analysis([tmp_path], rules, baseline=baseline, repo_root=tmp_path)


# ---------------------------------------------------------------------------
# Suppression grammar
# ---------------------------------------------------------------------------


class TestSuppressionGrammar:
    @pytest.mark.parametrize(
        "comment,expected",
        [
            ("# repro: allow(determinism)", {"determinism"}),
            ("#repro:allow(dtype-flow)", {"dtype-flow"}),
            ("x = 1  # repro: allow(a, b-c) -- why", {"a", "b-c"}),
            ("# repro: deny(determinism)", None),
            ("# allow(determinism)", None),
        ],
    )
    def test_regex(self, comment, expected):
        match = SUPPRESSION_RE.search(comment)
        if expected is None:
            assert match is None
        else:
            assert match is not None
            assert {p.strip() for p in match.group(1).split(",")} == expected

    def test_comment_covers_own_line_and_line_below(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "x = 1  # repro: allow(some-rule)\n"
            "# repro: allow(other-rule)\n"
            "y = 2\n",
            encoding="utf-8",
        )
        source = SourceFile(path, "mod.py")
        assert source.allows(1, "some-rule")
        assert source.allows(2, "some-rule")  # the line below line 1
        assert source.allows(2, "other-rule")  # its own line
        assert source.allows(3, "other-rule")  # the line below
        assert not source.allows(4, "other-rule")
        assert not source.allows(3, "some-rule")
        assert not source.allows(1, "other-rule")


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    def test_global_numpy_rng_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import numpy as np

                def draw():
                    return np.random.rand(4)

                def seeded():
                    return np.random.default_rng(7).random(4)
                """
            },
            ["determinism"],
        )
        assert len(report.findings) == 1
        assert "np.random.rand" in report.findings[0].message
        assert report.findings[0].line == 4

    def test_wall_clock_flagged_but_wall_time_keyword_allowed(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import time

                def stamp(record):
                    record(wall_time=time.time())
                    return time.time()
                """
            },
            ["determinism"],
        )
        assert [f.line for f in report.findings] == [5]
        assert "wall-clock read" in report.findings[0].message

    def test_stdlib_random_and_set_iteration_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import random

                def pick():
                    out = []
                    for item in {"a", "b"}:
                        out.append(item)
                    for item in sorted({"a", "b"}):
                        out.append(item)
                    return out
                """
            },
            ["determinism"],
        )
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert "hash order" in messages[0]
        assert "stdlib 'random'" in messages[1]

    def test_unsorted_listing_flagged_sorted_accepted(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import glob

                def scan(pattern):
                    unsorted_hits = glob.glob(pattern)
                    ordered = sorted(glob.glob(pattern))
                    return unsorted_hits, ordered
                """
            },
            ["determinism"],
        )
        assert [f.line for f in report.findings] == [4]

    def test_suppression_comment_above(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import time

                def now():
                    # repro: allow(determinism) -- ledger metadata only
                    return time.time()
                """
            },
            ["determinism"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: spec-strings
# ---------------------------------------------------------------------------


class TestSpecStringsRule:
    def test_invalid_keyword_spec_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                def configure(solver):
                    return solver.solve(precond="ilu")
                """
            },
            ["spec-strings"],
        )
        assert len(report.findings) == 1
        assert "invalid precond spec 'ilu'" in report.findings[0].message

    def test_valid_specs_pass(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                def configure(solver):
                    return solver.solve(
                        precond="ssor:omega=1.2",
                        faults="bitflip:p=0.02",
                        precision="fp32",
                        chaos="worker_crash:p=0.5",
                    )

                SWEEP = {"preconds": ["jacobi", "poly:k=4"]}
                """
            },
            ["spec-strings"],
        )
        assert report.findings == []

    def test_dict_literal_sweep_values_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": 'SWEEP = {"faults": ["none", "warpdrive:p=0.1"]}\n'
            },
            ["spec-strings"],
        )
        assert len(report.findings) == 1
        assert "warpdrive" in report.findings[0].message

    def test_markdown_grammar_tables_validated(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "GRAMMAR.md": """\
                The smoke sweep uses `poly:k=4` everywhere.

                A stale example: `poly:q=4` no longer parses.

                Placeholders: `perturb:p=...,scale=...`, `perturb:p=…,scale=…`.
                """
            },
            ["spec-strings"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].path == "GRAMMAR.md"
        assert report.findings[0].line == 3

    def test_every_watched_entry_point_is_a_real_callable(self):
        """The rule's tables are derived from the axis declarations.

        The hand-kept table they replace listed ``resolve_precisions``,
        a function that existed nowhere in the tree.
        """
        from repro.analysis.rules.specs import _tables
        from repro.axes import AXIS_MODULES

        modules = [importlib.import_module(name) for name in AXIS_MODULES]
        calls = _tables().calls
        assert {"resolve_faults", "FaultSpec.parse", "parse_precond",
                "resolve_preconds", "build_preconditioner", "parse_precision",
                "resolve_backend", "CommSpec.parse", "ChaosSpec.parse"} <= set(calls)
        assert "resolve_precisions" not in calls
        for name in calls:
            head, *rest = name.split(".")
            found = [functools.reduce(getattr, rest, getattr(module, head))
                     for module in modules if hasattr(module, head)]
            assert found and all(callable(func) for func in found), name

    def test_suppression(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                def configure(solver):
                    # repro: allow(spec-strings) -- negative fixture
                    return solver.solve(precond="ilu")
                """
            },
            ["spec-strings"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: driver-contract
# ---------------------------------------------------------------------------


class TestDriverContractRule:
    def test_conforming_driver_passes(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e3_demo.py": """\
                SPEC = ExperimentSpec(
                    experiment="E3",
                    smoke={"n": 2},
                    golden={"n": 4, "tol": 1e-8},
                )

                def run(n=8, tol=1e-6):
                    return n, tol

                def run_batch(params_list, check=True):
                    return [run(**p) for p in params_list]
                """
            },
            ["driver-contract"],
        )
        assert report.findings == []

    def test_smoke_keys_must_name_run_parameters(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e1_demo.py": """\
                SPEC = ExperimentSpec(
                    experiment="E1",
                    smoke={"n": 4},
                )

                def run(m=1):
                    return m
                """
            },
            ["driver-contract"],
        )
        assert len(report.findings) == 1
        assert "smoke= keys ['n']" in report.findings[0].message

    def test_run_parameters_need_defaults_and_id_must_match(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e2_demo.py": """\
                SPEC = ExperimentSpec(experiment="E7")

                def run(n, *extras):
                    return n
                """
            },
            ["driver-contract"],
        )
        messages = "\n".join(f.message for f in report.findings)
        assert "does not match the module filename prefix 'e2'" in messages
        assert "have no defaults" in messages
        assert "*args/**kwargs" in messages

    def test_batch_driver_may_not_own_grouping_code(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e5_demo.py": """\
                SPEC = ExperimentSpec(experiment="E5")

                def run(n=8, seed=1):
                    return n

                def run_batch(params_list):
                    resolved = [_bind_defaults(p) for p in params_list]
                    assert _compatible(resolved)
                    return [run(**p) for p in resolved]

                def _bind_defaults(params):
                    return dict(params)

                def _compatible(resolved):
                    return True
                """,
                # Without run_batch the names are just private helpers.
                "experiments/e6_demo.py": """\
                SPEC = ExperimentSpec(experiment="E6")

                def run(n=8):
                    return _compatible(n)

                def _compatible(n):
                    return n
                """,
            },
            ["driver-contract"],
        )
        assert [f.path for f in report.findings] == ["experiments/e5_demo.py"] * 2
        messages = "\n".join(f.message for f in report.findings)
        assert "its own _bind_defaults()" in messages
        assert "its own _compatible()" in messages

    def test_missing_spec_and_non_driver_files(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e4_demo.py": "def run(n=1):\n    return n\n",
                "helpers/e4_demo.py": "x = 1\n",
                "experiments/common.py": "x = 1\n",
            },
            ["driver-contract"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].path == "experiments/e4_demo.py"
        assert "SPEC = ExperimentSpec" in report.findings[0].message

    def test_suppression(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "experiments/e1_demo.py": """\
                SPEC = ExperimentSpec(
                    experiment="E1",
                    smoke={"n": 4},  # repro: allow(driver-contract) -- fixture
                )

                def run(m=1):
                    return m
                """
            },
            ["driver-contract"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: dtype-flow
# ---------------------------------------------------------------------------


class TestDtypeFlowRule:
    def test_dtypeless_allocation_flagged_in_kernel_path_only(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "linalg/kern.py": """\
                import numpy as np

                def alloc(n):
                    return np.zeros(n)

                def alloc_typed(n, dtype):
                    return np.zeros(n, dtype=dtype)
                """,
                "campaign/kern.py": """\
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
                """,
            },
            ["dtype-flow"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].path == "linalg/kern.py"
        assert "np.zeros() without dtype=" in report.findings[0].message

    def test_mixed_dtype_product_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "krylov/engine/prod.py": """\
                import numpy as np

                def mixed(a, b):
                    return np.dot(a.astype(np.float32), b)

                def both_cast(a, b):
                    return np.dot(a.astype(np.float32), b.astype(np.float32))
                """
            },
            ["dtype-flow"],
        )
        assert [f.line for f in report.findings] == [4]
        assert "silently promotes" in report.findings[0].message

    def test_bare_float_literal_in_template_kernel_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "linalg/lit.py": """\
                def halve(x, dtype):
                    return 0.5 * x

                def untemplated(x):
                    return 0.5 * x
                """
            },
            ["dtype-flow"],
        )
        assert [f.line for f in report.findings] == [2]
        assert "bare float literal" in report.findings[0].message

    def test_suppression(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "linalg/kern.py": """\
                import numpy as np

                def alloc(n):
                    return np.zeros(n)  # repro: allow(dtype-flow) -- fp64 intended
                """
            },
            ["dtype-flow"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: process-safety
# ---------------------------------------------------------------------------


class TestProcessSafetyRule:
    def test_shared_queue_and_bare_pool_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import multiprocessing

                def build():
                    return multiprocessing.Queue(), multiprocessing.Pool(2)
                """
            },
            ["process-safety"],
        )
        messages = "\n".join(f.message for f in report.findings)
        assert len(report.findings) == 2
        assert "orphans its writer lock" in messages
        assert "bypasses SupervisedExecutor" in messages

    def test_unbounded_ipc_blocking_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import multiprocessing
                from multiprocessing.connection import wait

                def drain(conn, conns):
                    ready = wait(conns)
                    bounded = wait(conns, timeout=1.0)
                    if conn.poll(None):
                        pass
                    if conn.poll(0.1):
                        pass
                    return conn.recv()
                """
            },
            ["process-safety"],
        )
        assert [f.line for f in report.findings] == [5, 7, 11]

    def test_select_poll_without_finite_timeout_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import select

                def wait_forever(conn):
                    poller = select.poll()
                    poller.register(conn.fileno(), select.POLLIN)
                    poller.poll()
                    poller.poll(-1)
                    poller.poll(timeout=None)
                    return factory.Queue()
                """
            },
            ["process-safety"],
        )
        # The queue is not multiprocessing's: only the polls are reported.
        assert [f.line for f in report.findings] == [6, 7, 8]
        assert all("finite" in f.message for f in report.findings)

    def test_select_poll_with_finite_timeout_passes(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import multiprocessing
                import select
                from select import poll

                def wait_bounded(conn, remaining):
                    poller = select.poll()
                    other = poll()
                    poller.register(conn.fileno(), select.POLLIN)
                    if poller.poll(250):
                        return True
                    return bool(other.poll(min(remaining, 0.25) * 1000.0))
                """
            },
            ["process-safety"],
        )
        assert report.findings == []

    def test_gated_on_multiprocessing_import(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                def build(factory):
                    return factory.Queue(), factory.recv()
                """
            },
            ["process-safety"],
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "mod.py": """\
                import multiprocessing

                def drain(conn):
                    return conn.recv()  # repro: allow(process-safety) -- gated by wait()
                """
            },
            ["process-safety"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: doc-links
# ---------------------------------------------------------------------------


class TestDocLinksRule:
    def test_dangling_relative_link_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "DOC.md": """\
                [good](exists.md) and [external](https://example.com/x)
                [anchor](#section) and [sub](sub/other.md#part)
                [bad](missing.md)
                """,
                "exists.md": "ok\n",
                "sub/other.md": "ok\n",
            },
            ["doc-links"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 3
        assert "missing.md" in report.findings[0].message

    def test_quoted_path_to_a_missing_file_flagged(self, tmp_path):
        report = run_rules(
            tmp_path,
            {
                "DOC.md": """\
                Run `scripts/present.sh`, then (see `scripts/present.sh::main`
                and `/elsewhere/scripts/gone.py`):

                ```bash
                python scripts/present.sh --out /tmp/x.json
                python benchmarks/gone.py --smoke
                ```
                """,
                "scripts/present.sh": "ok\n",
            },
            ["doc-links"],
        )
        assert [(f.line, f.message) for f in report.findings] == [
            (6, "dangling file path -> benchmarks/gone.py")
        ]

    def test_globs_history_documents_and_quoted_links_not_flagged(self, tmp_path):
        gone = "`benchmarks/gone.py` and `[text](gone.md)`\n"
        report = run_rules(
            tmp_path,
            {
                "DOC.md": "`benchmarks/bench_*.py`, `tests/goldens/<id>.txt`, "
                          "`src/pkg/`, `[text](gone.md)`\n",
                "CHANGES.md": gone,
                "benchmarks/ledger/README.md": gone,
            },
            ["doc-links"],
        )
        assert report.findings == []

    def test_baseline_allowlists_doc_finding(self, tmp_path):
        # Markdown has no suppression comments; the baseline is the
        # allow-listing mechanism, and its fingerprint is line-free.
        grandfathered = Finding(
            rule="doc-links",
            path="DOC.md",
            line=0,
            message="dangling relative link -> missing.md",
        )
        baseline = Baseline(fingerprints=frozenset({grandfathered.fingerprint}))
        report = run_rules(
            tmp_path,
            {"DOC.md": "intro\n\n[bad](missing.md)\n"},
            ["doc-links"],
            baseline=baseline,
        )
        assert report.findings == []
        assert len(report.baselined) == 1


# ---------------------------------------------------------------------------
# Runner mechanics
# ---------------------------------------------------------------------------


class TestRunnerMechanics:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = run_rules(
            tmp_path,
            {"broken.py": "def broken(:\n"},
            ["determinism"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].rule == "parse-error"
        assert "does not parse" in report.findings[0].message

    def test_fingerprint_is_line_independent(self):
        first = Finding(rule="r", path="p.py", line=3, message="m")
        second = Finding(rule="r", path="p.py", line=30, message="m")
        assert first.fingerprint == second.fingerprint
        assert first.render() == "p.py:3: [r] m"

    def test_baseline_roundtrip(self, tmp_path):
        finding = Finding(rule="r", path="p.py", line=3, message="m")
        target = tmp_path / "baseline.json"
        Baseline.dump([finding], target)
        loaded = Baseline.load(target)
        assert loaded.contains(finding)
        assert not loaded.contains(
            Finding(rule="r", path="p.py", line=3, message="other")
        )

    def test_find_repo_root(self, tmp_path):
        (tmp_path / "ROADMAP.md").write_text("x\n", encoding="utf-8")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_repo_root(nested) == tmp_path.resolve()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_default_registry_names(self):
        assert rule_names() == EXPECTED_RULES

    def test_duplicate_and_anonymous_rules_rejected(self):
        class Dummy(Rule):
            id = "dummy"
            title = "dummy"

        class Anonymous(Rule):
            pass

        registry = RuleRegistry([])
        registry.add(Dummy())
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(Dummy())
        with pytest.raises(ValueError, match="no id"):
            registry.add(Anonymous())

    def test_resolve_rules_subset_order_and_unknown(self):
        rules = resolve_rules("dtype-flow, determinism")
        assert [rule.id for rule in rules] == ["dtype-flow", "determinism"]
        assert [rule.id for rule in resolve_rules(None)] == EXPECTED_RULES
        with pytest.raises(KeyError, match="unknown analysis rule"):
            resolve_rules("no-such-rule")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list_text(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "registered analysis rules (6):" in out
        for name in EXPECTED_RULES:
            assert name in out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == EXPECTED_RULES
        assert all(entry["title"] and entry["rationale"] for entry in payload)

    def test_run_json_baseline_roundtrip(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "import numpy as np\nx = np.random.rand(4)\n", encoding="utf-8"
        )

        code = cli_main(["run", str(pkg), "--format", "json", "--no-baseline"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts"]["active"] == 1
        assert payload["findings"][0]["rule"] == "determinism"

        baseline_path = tmp_path / "baseline.json"
        code = cli_main(
            ["run", str(pkg), "--baseline", str(baseline_path), "--update-baseline"]
        )
        assert code == 0
        assert "1 findings recorded" in capsys.readouterr().out

        code = cli_main(
            ["run", str(pkg), "--format", "json", "--baseline", str(baseline_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["counts"]["baselined"] == 1

    def test_run_text_summary(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert cli_main(["run", str(pkg), "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "analysis OK: 0 finding(s)" in out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "nope")]) == 2
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert cli_main(["run", str(tmp_path), "--rules", "no-such-rule"]) == 2
        assert (
            cli_main(
                ["run", str(tmp_path), "--baseline", str(tmp_path / "missing.json")]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "no such path" in err
        assert "unknown analysis rule" in err
        assert "not found" in err


# ---------------------------------------------------------------------------
# Self-hosting: the repository passes its own lint
# ---------------------------------------------------------------------------


class TestSelfRun:
    def test_repo_tree_clean_against_checked_in_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "scripts" / "analysis_baseline.json")
        report = run_analysis(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"],
            list(default_rule_registry()),
            baseline=baseline,
            repo_root=REPO_ROOT,
        )
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        # src/repro needs no waiver at all; the suppressions left are the
        # tests' deliberate negative fixtures.
        assert [f.render() for f in report.suppressed if f.path.startswith("src/")] == []
        # The verify gate budgets 10s for the whole pass.
        assert report.elapsed < 10.0
