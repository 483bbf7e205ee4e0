#!/usr/bin/env bash
# CI gate: tier-1 plus what tier-1 cannot host.  Two stages:
#
#   * the tier-1 suite (which holds the axis/registry contract, the
#     sim-vs-shmem differential, fp64 parity, engine/batch parity, the
#     goldens, the execution-contract property -- workers, --batch and
#     worker chaos never change a stored result -- and the lint,
#     tests/test_analysis.py: its rules over src/repro, tests and the
#     markdown, clean, no suppression under src/, within 10 s);
#   * the backend conformance suite once more in a fresh interpreter.
#
# The tier-1 stage ends with its wall and CPU seconds (bash `time`:
# user and sys include every child the suite waited for, e.g. the
# shmem ranks and campaign workers), since CI wall time is a benchmark.
#
#   scripts/verify.sh            # everything
#   scripts/verify.sh --fast     # skip the fresh-interpreter conformance run
#
# Exits non-zero on the first failure.
#
# Not a stage here: scripts/mutants.py, the mutation kill matrix, is a
# measurement of what the suite catches (minutes, not seconds), never a
# gate -- run it by hand after changing a target or the tests that kill
# its mutants.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1 test suite =="
TIMEFORMAT='tier-1 seconds: wall %R, cpu %U user + %S sys (children included)'
time python -m pytest -x -q

echo
echo "== backend conformance gate (fresh interpreter) =="
if [[ "$FAST" == "1" ]]; then
    echo "(skipped: --fast)"
else
    # Ran once inside the tier-1 suite; a fresh interpreter proves the
    # cross-backend contract holds twice in a row.  Its property is
    # seeded per stratum, so both stages draw the same programs (p2p
    # ordering, collectives, deadlocks, failures, corruption) -- and
    # the real-process shmem backend's forked ranks and shared-memory
    # segments must leave no residue between runs.
    python -m pytest tests/test_comm_conformance.py -q
fi

echo
echo "verify: OK"
