"""Rule ``driver-contract`` -- experiment drivers honor the protocol.

The campaign layer auto-discovers drivers through a structural
protocol (module-level ``SPEC = ExperimentSpec(...)`` plus
``run(**params)``; see :mod:`repro.campaign.registry`).  Nothing
checks the protocol until a sweep actually touches the driver, so a
renamed parameter or a ``smoke={...}`` key that ``run()`` no longer
accepts only explodes mid-campaign.  This rule enforces the contract
statically on every ``experiments/e*.py`` module:

* ``SPEC`` exists and is a literal ``ExperimentSpec(...)`` call;
* ``run`` exists, takes no ``*args``/``**kwargs`` (they would defeat
  the registry's parameter validation), and every parameter carries a
  default -- a bare ``run()`` must be callable, which is what the
  smoke campaign and the partial ``golden=`` overrides rely on;
* every key of the ``smoke=`` and ``golden=`` literal dicts names a
  ``run()`` parameter;
* ``SPEC``'s ``experiment=`` id matches the module filename prefix
  (``e8_solvers.py`` must declare ``"E8"``);
* ``run_batch``, when exported, takes ``params_list`` first and no
  other required parameters -- the lockstep batch entry point the
  runner's ``--batch`` grouping calls as ``run_batch(params_list)``,
  so its surface must stay a superset of what ``run`` needs with
  everything extra defaulted;
* a driver that exports ``run_batch`` defines no ``_bind_defaults`` /
  ``_compatible`` of its own: default binding and "same except seed"
  grouping live once, in
  :func:`repro.experiments.common.run_batch_by_seed`, so the runner's
  grouping and the drivers' cannot drift apart.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional

from repro.analysis.core import Finding, Rule, SourceFile

__all__ = ["DriverContractRule"]

_DRIVER_FILE_RE = re.compile(r"^(e\d+)_[a-z0-9_]+\.py$")


def _is_driver(source: SourceFile) -> Optional[str]:
    """The experiment id prefix ("e8") when the file is a driver module."""
    parts = source.rel.split("/")
    if "experiments" not in parts[:-1]:
        return None
    match = _DRIVER_FILE_RE.match(parts[-1])
    return match.group(1) if match else None


def _param_names(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


def _required_params(fn: ast.FunctionDef) -> List[str]:
    """Parameters of ``fn`` that have no default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    n_without = len(positional) - len(args.defaults)
    required = [a.arg for a in positional[:n_without]]
    required.extend(
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is None
    )
    return required


class DriverContractRule(Rule):
    id = "driver-contract"
    title = "experiments/e*.py export SPEC + run() with matching parameters"
    rationale = (
        "the campaign registry discovers drivers structurally; a contract "
        "violation only surfaces mid-sweep unless it is caught statically"
    )

    def check_file(self, source: SourceFile, ctx) -> Iterable[Finding]:
        prefix = _is_driver(source)
        if prefix is None or source.tree is None:
            return []
        findings: List[Finding] = []

        def report(line: int, message: str) -> None:
            findings.append(
                Finding(rule=self.id, path=source.rel, line=line, message=message)
            )

        spec_call: Optional[ast.Call] = None
        spec_line = 1
        functions: Dict[str, ast.FunctionDef] = {}
        for node in source.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPEC" for t in node.targets
            ):
                spec_line = node.lineno
                if (
                    isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
                    == "ExperimentSpec"
                ):
                    spec_call = node.value
            elif isinstance(node, ast.FunctionDef):
                functions[node.name] = node

        if spec_call is None:
            report(
                spec_line,
                "driver module must bind SPEC = ExperimentSpec(...) at module level",
            )
        run = functions.get("run")
        if run is None:
            report(1, "driver module must define run(**params) -> ExperimentResult")
        if spec_call is None or run is None:
            return findings

        # -- run() surface ---------------------------------------------
        if run.args.vararg is not None or run.args.kwarg is not None:
            report(
                run.lineno,
                "run() must not take *args/**kwargs -- they defeat the "
                "registry's parameter validation",
            )
        required = _required_params(run)
        if required:
            report(
                run.lineno,
                f"run() parameters {required} have no defaults; every driver "
                "parameter needs one so bare run() works for smoke/golden sweeps",
            )
        run_params = set(_param_names(run))

        # -- SPEC keyword payloads -------------------------------------
        spec_kwargs = {kw.arg: kw.value for kw in spec_call.keywords if kw.arg}
        experiment = spec_kwargs.get("experiment")
        if isinstance(experiment, ast.Constant) and isinstance(experiment.value, str):
            if experiment.value.lower() != prefix:
                report(
                    experiment.lineno,
                    f"SPEC experiment id {experiment.value!r} does not match the "
                    f"module filename prefix {prefix!r}",
                )
        for field_name in ("smoke", "golden"):
            value = spec_kwargs.get(field_name)
            if value is None:
                continue
            try:
                payload = ast.literal_eval(value)
            except ValueError:
                continue  # non-literal configuration: out of static reach
            if not isinstance(payload, dict):
                continue
            unknown = sorted(set(payload) - run_params)
            if unknown:
                report(
                    value.lineno,
                    f"SPEC {field_name}= keys {unknown} are not parameters of "
                    f"run() (accepted: {sorted(run_params)})",
                )

        # -- run_batch surface -----------------------------------------
        run_batch = functions.get("run_batch")
        if run_batch is not None:
            names = _param_names(run_batch)
            if not names or names[0] != "params_list":
                report(
                    run_batch.lineno,
                    "run_batch() must take 'params_list' as its first "
                    "parameter (the runner calls run_batch(params_list))",
                )
            extra_required = [p for p in _required_params(run_batch) if p != "params_list"]
            if extra_required:
                report(
                    run_batch.lineno,
                    f"run_batch() parameters {extra_required} have no defaults; "
                    "the runner only ever passes params_list",
                )
            for private in ("_bind_defaults", "_compatible"):
                if private in functions:
                    report(
                        functions[private].lineno,
                        f"batch-capable driver defines its own {private}(); "
                        "repro.experiments.common.run_batch_by_seed is the "
                        "only grouping code",
                    )
        return findings
