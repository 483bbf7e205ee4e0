#!/usr/bin/env bash
# CI gate: tier-1 plus what tier-1 cannot host -- checks that are
# cross-process or need a fresh interpreter by nature:
#
#   * the tier-1 suite (which holds the axis/registry contract, the
#     sim-vs-shmem differential, fp64 parity, engine/batch parity and
#     the goldens);
#   * the static-analysis gate (repro.analysis, doc-links included)
#     with its 10 s budget;
#   * the backend conformance suite once more in a fresh interpreter;
#   * the smoke, precond and precision campaigns through the real CLI
#     with two workers, each re-run to prove the store memoizes;
#   * the chaos gate (smoke under worker_crash/worker_hang chaos must
#     reproduce the clean store byte for byte) and the batch-parity
#     gate (replicas in lockstep batches must reproduce the sequential
#     store byte for byte).
#
#   scripts/verify.sh            # everything
#   scripts/verify.sh --fast     # skip the fresh-interpreter conformance run
#
# Exits non-zero on the first failure.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Every store (and its ledger sidecar) of this run lives here.
STORES="$(mktemp -d -t repro_verify_XXXXXX)"
trap 'rm -rf "$STORES"' EXIT

# run_campaign NAME STORE [extra CLI args...]
run_campaign() {
    local name="$1" store="$2"
    shift 2
    python -m repro.campaign run "$name" --workers 2 --store "$store" "$@"
}

# rerun_is_cached NAME STORE: a second run must execute nothing.
rerun_is_cached() {
    local output
    output="$(run_campaign "$1" "$2")"
    echo "$output" | tail -2
    if ! grep -q " 0 ran, " <<<"$output"; then
        echo "ERROR: $1 re-run executed scenarios; the store failed to memoize" >&2
        exit 1
    fi
}

# same_results LABEL STORE_A STORE_B: both stores hold the same keys with
# byte-identical result payloads.  kernel_seconds entries are wall-clock
# measurements -- the one part of a result that legitimately differs
# between two runs of the same scenario (the goldens exclude them for
# the same reason).
same_results() {
    python - "$@" <<'PY'
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

label = sys.argv[1]
first, second = (
    {r.key: canonical_json(strip_wall_clock(r.result))
     for r in ResultStore(path).records()}
    for path in sys.argv[2:4]
)
assert set(first) == set(second), (
    f"{label}: the stores hold different scenarios: "
    f"only-first={sorted(set(first) - set(second))} "
    f"only-second={sorted(set(second) - set(first))}"
)
mismatched = [k for k in first if first[k] != second[k]]
assert not mismatched, f"{label}: result payloads differ: {mismatched}"
print(f"{label} OK ({len(first)} scenarios byte-identical)")
PY
}

echo "== tier-1 test suite =="
python -m pytest -x -q

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
echo "== smoke campaign (fresh store, then fully cached) =="
run_campaign smoke "$STORES/smoke.jsonl"
rerun_is_cached smoke "$STORES/smoke.jsonl"

echo
echo "== chaos smoke gate (crashing workers must not change results) =="
# The same smoke campaign, re-executed from scratch while ~30% of the
# attempts hard-kill their own worker, ~10% hang past the deadline and
# ~20% corrupt their result text after it was checksummed.
# The supervised runner must retry every scenario to completion, and
# the resulting store must match the clean run's -- resilience may cost
# retries, never answers.  (Chaos draws are pure functions of the base
# seed and scenario keys, so this gate's fault pattern -- and its wall
# time -- is the same on every run.)
run_campaign smoke "$STORES/chaos.jsonl" --timeout 10 --retries 10 \
    --chaos "worker_crash:p=0.3+worker_hang:p=0.1,seconds=60+result_corrupt:p=0.2"
same_results "chaos gate" "$STORES/smoke.jsonl" "$STORES/chaos.jsonl"

echo
echo "== batch-parity gate (lockstep batches must not change results) =="
# The engine- and driver-level differential matrix is tier-1
# (tests/test_batch_parity.py); this stage is the end-to-end half: the
# replicas campaign -- seed-replica sweeps over E1/E8/E9, the shape
# batch mode groups -- run scenario-at-a-time and in lockstep batches
# through the supervised executor.
run_campaign replicas "$STORES/sequential.jsonl"
run_campaign replicas "$STORES/batched.jsonl" --batch 0
same_results "batch-parity gate" "$STORES/sequential.jsonl" "$STORES/batched.jsonl"

for campaign in precond precision; do
    echo
    echo "== $campaign campaign (fresh store, then fully cached) =="
    run_campaign "$campaign" "$STORES/$campaign.jsonl"
    rerun_is_cached "$campaign" "$STORES/$campaign.jsonl"
done

echo
python -m repro.campaign report --store "$STORES/smoke.jsonl"
echo
echo "verify: OK"
