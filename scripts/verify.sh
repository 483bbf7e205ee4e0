#!/usr/bin/env bash
# CI gate: tier-1 tests + registry self-checks (solver / fault /
# preconditioner / precision / communicator-backend / analysis-rule
# axes) + backend conformance gate + sim-vs-shmem differential
# + fp64-parity gate
# + static-analysis gate (repro.analysis, includes the doc-link rule)
# + golden determinism + smoke, precond and precision campaigns with
# memoization re-runs + the chaos gate
# (smoke campaign under worker_crash chaos must reproduce the clean
# store byte for byte) + the batch-parity gate (the replicas campaign
# run in lockstep batches must reproduce the sequential store byte for
# byte).
#
#   scripts/verify.sh            # everything (~2 min)
#   scripts/verify.sh --fast     # skip the second golden pass
#
# Exits non-zero on the first failure.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== solver registry self-check =="
listing="$(python -m repro.campaign list)"
grep -q "registered solvers" <<<"$listing" || {
    echo "ERROR: 'campaign list' does not include the solver axis" >&2
    exit 1
}
for solver in gmres fgmres pipelined_gmres cg pipelined_cg ft_gmres sdc_gmres; do
    # Anchored: the solver table renders one row per solver with the
    # name in the first column, so a bare substring match ('gmres' via
    # 'fgmres') must not count.
    grep -qE "^$solver " <<<"$listing" || {
        echo "ERROR: solver '$solver' missing from the registry listing" >&2
        exit 1
    }
done
python -m repro.campaign list --campaign solvers > /dev/null
echo "registry OK (7 solvers, 'solvers' campaign expands)"

echo
echo "== reliability registry self-check =="
grep -q "registered fault models" <<<"$listing" || {
    echo "ERROR: 'campaign list' does not include the fault axis" >&2
    exit 1
}
for model in none bitflip bitflip_mantissa bitflip_exponent basis_bitflip \
             sdc_value msg_corrupt proc_fail proc_fail_weibull; do
    grep -qE "^$model " <<<"$listing" || {
        echo "ERROR: fault model '$model' missing from the registry listing" >&2
        exit 1
    }
done
# Every named fault model must instantiate, serialize to its compact
# string form, and round-trip back to the identical spec.
python - <<'PY'
from repro.reliability.registry import default_fault_registry
from repro.reliability.spec import FaultSpec

for entry in default_fault_registry():
    model = entry.build()
    text = model.describe()
    roundtrip = FaultSpec.parse(text)
    assert roundtrip == entry.spec, (entry.name, text, roundtrip, entry.spec)
    assert FaultSpec.from_dict(entry.spec.to_dict()) == entry.spec, entry.name
print(f"reliability registry OK ({len(default_fault_registry())} fault models round-trip)")
PY

echo
echo "== preconditioner registry self-check =="
grep -q "registered preconditioners" <<<"$listing" || {
    echo "ERROR: 'campaign list' does not include the preconditioner axis" >&2
    exit 1
}
for entry in none jacobi ssor ssor_over poly2 poly4 bjacobi8; do
    grep -qE "^$entry " <<<"$listing" || {
        echo "ERROR: preconditioner '$entry' missing from the registry listing" >&2
        exit 1
    }
done
python -m repro.campaign list --campaign precond > /dev/null
# Every named preconditioner must build against a model problem,
# serialize to its compact string form, and round-trip back to the
# identical spec (and through the dict form).
python - <<'PY'
from repro.linalg.matgen import poisson_2d
from repro.precond import PrecondSpec, default_precond_registry

matrix = poisson_2d(6)
for entry in default_precond_registry():
    built = entry.build(matrix)
    assert (built is None) == (entry.spec.kind == "none"), entry.name
    roundtrip = PrecondSpec.parse(entry.spec.to_string())
    assert roundtrip == entry.spec, (entry.name, roundtrip, entry.spec)
    assert PrecondSpec.from_dict(entry.spec.to_dict()) == entry.spec, entry.name
print(f"preconditioner registry OK "
      f"({len(default_precond_registry())} preconditioners build and round-trip)")
PY

echo
echo "== precision registry self-check =="
grep -q "registered precisions" <<<"$listing" || {
    echo "ERROR: 'campaign list' does not include the precision axis" >&2
    exit 1
}
for entry in fp64 fp32 fp32_fp16; do
    grep -qE "^$entry " <<<"$listing" || {
        echo "ERROR: precision '$entry' missing from the registry listing" >&2
        exit 1
    }
done
python -m repro.campaign list --campaign precision > /dev/null
# Every named precision must round-trip through its compact string and
# dict forms and resolve to a consistent dtype pair.
python - <<'PY'
import numpy as np
from repro.reliability.precision import (
    PrecisionSpec,
    default_precision_registry,
    parse_precision,
)

for entry in default_precision_registry():
    spec = entry.spec
    assert PrecisionSpec.parse(spec.to_string()) == spec, entry.name
    assert PrecisionSpec.from_dict(spec.to_dict()) == spec, entry.name
    assert parse_precision(entry.name) == spec, entry.name
    assert spec.storage_dtype.itemsize <= spec.compute_dtype.itemsize, entry.name
print(f"precision registry OK "
      f"({len(default_precision_registry())} precisions round-trip)")
PY

echo
echo "== communicator backend registry self-check =="
grep -q "registered communicator backends" <<<"$listing" || {
    echo "ERROR: 'campaign list' does not include the backend axis" >&2
    exit 1
}
for entry in sim shmem mpi4py; do
    grep -qE "^$entry " <<<"$listing" || {
        echo "ERROR: communicator backend '$entry' missing from the registry listing" >&2
        exit 1
    }
done
# Every registered backend spec must round-trip through its compact
# string and dict forms; sim and shmem must be runnable everywhere
# (mpi4py may be gated); sim stays the default and both runnable
# backends promise ordered reductions (the bit-identity contract the
# conformance suite's differential gate leans on).
python - <<'PY'
from repro.comm import CommSpec, backend_names, default_backend_registry, resolve_backend

registry = default_backend_registry()
for name in backend_names():
    entry = registry.get(name)
    spec = CommSpec.parse(f"{name}:procs=4")
    assert CommSpec.parse(spec.to_string()) == spec, name
    assert CommSpec.from_dict(spec.to_dict()) == spec, name
for name in ("sim", "shmem"):
    ok, reason = registry.get(name).available()
    assert ok, (name, reason)
    assert registry.get(name).ordered_reduction, name
assert resolve_backend(None).name == "sim"
print(f"backend registry OK ({len(registry)} backends round-trip; sim is default)")
PY

echo
echo "== backend conformance gate (fresh interpreter) =="
if [[ "$FAST" == "1" ]]; then
    echo "(skipped: --fast)"
else
    # Ran once inside the tier-1 suite; a fresh interpreter proves the
    # cross-backend contract (p2p ordering, collectives, deadlock
    # timeouts, fault observability) holds deterministically twice in
    # a row -- including the real-process shmem backend, whose forked
    # ranks and shared-memory segments must leave no residue between
    # runs.
    python -m pytest tests/test_comm_conformance.py -q
fi

echo
echo "== sim-vs-shmem smoke differential =="
# The E3 CG anchor, distributed over real OS processes, must reproduce
# the simulated backend's residual history bit for bit: both backends
# reduce collective contributions in ascending-rank order, so this is
# exact equality, not a tolerance check.
python - <<'PY'
from repro.experiments import backend_probe

histories = {
    backend: backend_probe.distributed_solve(
        f"{backend}:procs=4", "cg", grid=8, tol=1e-8, seed=2013
    )
    for backend in ("sim", "shmem")
}
sim, shmem = histories["sim"], histories["shmem"]
assert sim["iterations"] == shmem["iterations"], (sim, shmem)
assert sim["converged"] and shmem["converged"]
assert sim["residual_norms"] == shmem["residual_norms"], "histories diverged"
print(f"sim-vs-shmem differential OK "
      f"(CG anchor: {sim['iterations']} iterations, "
      f"{len(sim['residual_norms'])} residual norms bit-identical)")
PY

echo
echo "== fp64-parity gate (precision='fp64' is the default path) =="
# Every registered solver, run with an explicit precision="fp64", must
# reproduce the default path bit for bit -- the contract that keeps
# every pre-E10 golden byte-identical while the precision axis exists.
python - <<'PY'
import numpy as np
from repro.krylov import default_solver_registry
from repro.linalg import poisson_2d

matrix = poisson_2d(8)
rng = np.random.default_rng(17)
b = rng.standard_normal(matrix.n_rows)
for solver in default_solver_registry():
    params = (
        {"tol": 1e-8, "outer_maxiter": 30, "inner_maxiter": 10}
        if solver.name == "ft_gmres" else {"tol": 1e-8, "maxiter": 400}
    )
    default = solver.solve(matrix, b, **params)
    explicit = solver.solve(matrix, b, precision="fp64", **params)
    assert np.array_equal(np.asarray(default.x), np.asarray(explicit.x)), solver.name
    assert default.residual_norms == explicit.residual_norms, solver.name
    assert "precision" not in default.info, solver.name
    assert explicit.info["precision"] == "fp64", solver.name
print(f"fp64-parity gate OK "
      f"({len(default_solver_registry())} solvers bit-identical)")
PY

echo
echo "== analysis registry self-check =="
analysis_listing="$(python -m repro.analysis list)"
grep -q "registered analysis rules" <<<"$analysis_listing" || {
    echo "ERROR: 'repro.analysis list' does not render the rule table" >&2
    exit 1
}
for rule in determinism spec-strings driver-contract dtype-flow \
            process-safety doc-links deprecated-import; do
    grep -qE "^$rule " <<<"$analysis_listing" || {
        echo "ERROR: analysis rule '$rule' missing from the registry listing" >&2
        exit 1
    }
done
echo "analysis registry OK (7 rules registered)"

echo
echo "== static-analysis gate =="
# The whole ruleset over the source tree and the test suite (the
# doc-links rule additionally sweeps every tracked *.md): any finding
# that is neither suppressed inline with a justified
# '# repro: allow(<rule-id>)' nor recorded in
# scripts/analysis_baseline.json fails the build.  The pass is pure
# AST + registry lookups, so it must also stay fast: >10s means an
# analyzer started executing real work.
ANALYSIS_START="$(date +%s)"
python -m repro.analysis run src/repro tests
ANALYSIS_ELAPSED="$(( $(date +%s) - ANALYSIS_START ))"
if (( ANALYSIS_ELAPSED > 10 )); then
    echo "ERROR: analysis pass took ${ANALYSIS_ELAPSED}s (budget: 10s)" >&2
    exit 1
fi

echo
echo "== engine parity + registry contract suite, second pass =="
if [[ "$FAST" == "1" ]]; then
    echo "(skipped: --fast)"
else
    # Ran once inside the tier-1 suite; a fresh interpreter proves the
    # bitwise parity fixtures and the SolveResult contract hold
    # deterministically twice in a row.
    python -m pytest tests/test_engine_parity.py tests/test_solver_registry.py -q
fi

echo
echo "== golden regression suite, second pass (determinism) =="
if [[ "$FAST" == "1" ]]; then
    echo "(skipped: --fast)"
else
    # The goldens already ran once inside the tier-1 suite; a second
    # invocation in a fresh interpreter proves they pass
    # deterministically twice in a row.
    python -m pytest tests/test_goldens.py -q
fi

echo
echo "== smoke campaign (fresh store) =="
STORE="$(mktemp -t repro_smoke_XXXXXX.jsonl)"
trap 'rm -f "$STORE" "${STORE%.jsonl}.ledger.jsonl"' EXIT
rm -f "$STORE"
python -m repro.campaign run --smoke --workers 2 --store "$STORE"

echo
echo "== smoke campaign re-run (must be fully cached) =="
rerun_output="$(python -m repro.campaign run --smoke --workers 2 --store "$STORE")"
echo "$rerun_output" | tail -2
if ! grep -q " 0 ran, " <<<"$rerun_output"; then
    echo "ERROR: re-run executed scenarios; the store failed to memoize" >&2
    exit 1
fi

echo
echo "== chaos smoke gate (crashing workers must not change results) =="
# The same smoke campaign, re-executed from scratch while ~30% of the
# attempts hard-kill their own worker and ~10% hang past the deadline.
# The supervised runner must retry every scenario to completion, and
# the resulting store must match the clean run's keys and result
# payloads byte for byte -- resilience may cost retries, never answers.
# (Chaos draws are pure functions of the base seed and scenario keys,
# so this gate's fault pattern -- and its wall time -- is the same on
# every run.)
CHAOS_STORE="$(mktemp -t repro_chaos_XXXXXX.jsonl)"
trap 'rm -f "$STORE" "${STORE%.jsonl}.ledger.jsonl" \
           "$CHAOS_STORE" "${CHAOS_STORE%.jsonl}.ledger.jsonl"' EXIT
rm -f "$CHAOS_STORE"
python -m repro.campaign run --smoke --workers 2 --store "$CHAOS_STORE" \
    --timeout 10 --retries 10 \
    --chaos "worker_crash:p=0.3+worker_hang:p=0.1,seconds=60"
python - "$STORE" "$CHAOS_STORE" <<'PY'
import sys
from repro.campaign.spec import canonical_json
from repro.campaign.store import ResultStore

def strip_wall_clock(value):
    # kernel_seconds entries are wall-clock measurements -- the one
    # part of a result that legitimately differs between two runs of
    # the same scenario (the goldens exclude them for the same reason).
    if isinstance(value, dict):
        return {k: strip_wall_clock(v) for k, v in value.items()
                if k != "kernel_seconds"}
    if isinstance(value, list):
        return [strip_wall_clock(v) for v in value]
    return value

clean, chaotic = (
    {r.key: canonical_json(strip_wall_clock(r.result))
     for r in ResultStore(path).records()}
    for path in sys.argv[1:3]
)
assert set(clean) == set(chaotic), (
    f"chaos run stored different scenarios: "
    f"only-clean={sorted(set(clean) - set(chaotic))} "
    f"only-chaos={sorted(set(chaotic) - set(clean))}"
)
mismatched = [k for k in clean if clean[k] != chaotic[k]]
assert not mismatched, f"chaos run changed result payloads: {mismatched}"
print(f"chaos gate OK ({len(clean)} scenarios byte-identical under worker_crash:p=0.3)")
PY

echo
echo "== batch-parity gate (lockstep batches must not change results) =="
# The engine- and driver-level differential matrix is tier-1
# (tests/test_batch_parity.py, run above); this stage is the end-to-end
# half: the replicas campaign -- seed-replica sweeps
# over E1/E8/E9, the shape batch mode groups -- run scenario-at-a-time
# and in lockstep batches through the supervised executor.  The two
# stores must hold the same keys with byte-identical result payloads
# (wall-clock kernel seconds excluded, as in the chaos gate).
SEQ_STORE="$(mktemp -t repro_batchseq_XXXXXX.jsonl)"
BATCH_STORE="$(mktemp -t repro_batch_XXXXXX.jsonl)"
trap 'rm -f "$STORE" "${STORE%.jsonl}.ledger.jsonl" \
           "$CHAOS_STORE" "${CHAOS_STORE%.jsonl}.ledger.jsonl" \
           "$SEQ_STORE" "${SEQ_STORE%.jsonl}.ledger.jsonl" \
           "$BATCH_STORE" "${BATCH_STORE%.jsonl}.ledger.jsonl"' EXIT
rm -f "$SEQ_STORE" "$BATCH_STORE"
python -m repro.campaign run replicas --workers 2 --store "$SEQ_STORE"
python -m repro.campaign run replicas --workers 2 --store "$BATCH_STORE" --batch 0
python - "$SEQ_STORE" "$BATCH_STORE" <<'PY'
import sys
from repro.campaign.spec import canonical_json
from repro.campaign.store import ResultStore

def strip_wall_clock(value):
    if isinstance(value, dict):
        return {k: strip_wall_clock(v) for k, v in value.items()
                if k != "kernel_seconds"}
    if isinstance(value, list):
        return [strip_wall_clock(v) for v in value]
    return value

sequential, batched = (
    {r.key: canonical_json(strip_wall_clock(r.result))
     for r in ResultStore(path).records()}
    for path in sys.argv[1:3]
)
assert set(sequential) == set(batched), (
    f"batched run stored different scenarios: "
    f"only-seq={sorted(set(sequential) - set(batched))} "
    f"only-batch={sorted(set(batched) - set(sequential))}"
)
mismatched = [k for k in sequential if sequential[k] != batched[k]]
assert not mismatched, f"batched run changed result payloads: {mismatched}"
print(f"batch-parity gate OK ({len(sequential)} scenarios byte-identical "
      f"under --batch 0)")
PY

echo
echo "== precond campaign (fresh store) =="
PRECOND_STORE="$(mktemp -t repro_precond_XXXXXX.jsonl)"
trap 'rm -f "$STORE" "${STORE%.jsonl}.ledger.jsonl" \
           "$CHAOS_STORE" "${CHAOS_STORE%.jsonl}.ledger.jsonl" \
           "$SEQ_STORE" "${SEQ_STORE%.jsonl}.ledger.jsonl" \
           "$BATCH_STORE" "${BATCH_STORE%.jsonl}.ledger.jsonl" \
           "$PRECOND_STORE" "${PRECOND_STORE%.jsonl}.ledger.jsonl"' EXIT
rm -f "$PRECOND_STORE"
python -m repro.campaign run precond --workers 2 --store "$PRECOND_STORE"

echo
echo "== precond campaign re-run (must be fully cached) =="
precond_rerun="$(python -m repro.campaign run precond --workers 2 --store "$PRECOND_STORE")"
echo "$precond_rerun" | tail -2
if ! grep -q " 0 ran, " <<<"$precond_rerun"; then
    echo "ERROR: precond re-run executed scenarios; the store failed to memoize" >&2
    exit 1
fi

echo
echo "== precision campaign (fresh store) =="
PRECISION_STORE="$(mktemp -t repro_precision_XXXXXX.jsonl)"
trap 'rm -f "$STORE" "${STORE%.jsonl}.ledger.jsonl" \
           "$CHAOS_STORE" "${CHAOS_STORE%.jsonl}.ledger.jsonl" \
           "$SEQ_STORE" "${SEQ_STORE%.jsonl}.ledger.jsonl" \
           "$BATCH_STORE" "${BATCH_STORE%.jsonl}.ledger.jsonl" \
           "$PRECOND_STORE" "${PRECOND_STORE%.jsonl}.ledger.jsonl" \
           "$PRECISION_STORE" "${PRECISION_STORE%.jsonl}.ledger.jsonl"' EXIT
rm -f "$PRECISION_STORE"
python -m repro.campaign run precision --workers 2 --store "$PRECISION_STORE"

echo
echo "== precision campaign re-run (must be fully cached) =="
precision_rerun="$(python -m repro.campaign run precision --workers 2 --store "$PRECISION_STORE")"
echo "$precision_rerun" | tail -2
if ! grep -q " 0 ran, " <<<"$precision_rerun"; then
    echo "ERROR: precision re-run executed scenarios; the store failed to memoize" >&2
    exit 1
fi

echo
python -m repro.campaign report --store "$STORE"
echo
echo "verify: OK"
