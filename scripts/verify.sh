#!/usr/bin/env bash
# CI gate: tier-1 plus what tier-1 cannot host.  Three stages:
#
#   * the tier-1 suite (which holds the axis/registry contract, the
#     sim-vs-shmem differential, fp64 parity, engine/batch parity, the
#     goldens and the execution-contract property: workers, --batch
#     and worker chaos never change a stored result);
#   * the static-analysis gate (repro.analysis, doc-links included)
#     with its 10 s budget;
#   * the backend conformance suite once more in a fresh interpreter.
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
echo "verify: OK"
