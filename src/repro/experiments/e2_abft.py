"""E2 -- Checksum-based ABFT detection and correction.

Paper claim (§III-A): the checksum metadata of classic ABFT (Huang &
Abraham) detects anomalous behaviour, and for single errors can correct
it, at low overhead.

Procedure: corrupt one element of the result of a dense matrix product
(and, separately, a sparse matrix-vector product) with a random bit
flip, sweep the problem size, and report detection rate, correction
rate and the relative cost of maintaining and verifying the checksums.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSpec, records_parameters
from repro.linalg.checksum import checked_matmul, checked_matvec
from repro.linalg.matgen import poisson_2d
from repro.reliability.bitflip import flip_bit_array
from repro.reliability.registry import resolve_faults
from repro.utils.rng import RngFactory
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E2",
    name="abft",
    title="Checksum-based ABFT detection and correction",
    claim="Checksum metadata detects corrupted results of matrix operations and "
          "corrects single errors, at a cost that vanishes relative to the kernel.",
    tags=("abft", "checksum", "faults"),
    smoke={"sizes": (8,), "n_trials": 5},
    golden={"sizes": (8, 16), "n_trials": 6, "seed": 2013},
)


@records_parameters
def run(
    *,
    sizes=(16, 32, 64),
    n_trials: int = 30,
    faults=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E2 and return its table.

    ``faults`` selects the corruption model the checksums must catch
    (reliability-registry name, compact spec string or dict): bit-flip
    components inject flips bounded by their ``bits`` range, value
    perturbations overwrite/scale the victim element.  ``None`` keeps
    the legacy-equivalent any-significant-bit flip (bits 20..62); specs
    with no soft-fault component probe false positives only.
    """
    fault_model = resolve_faults(faults) if faults is not None else None
    # Only the soft-fault component corrupts kernel results; specs
    # without one (e.g. pure proc_fail) probe false positives only.
    soft_model = fault_model.soft_component() if fault_model is not None else None
    inject = fault_model is None or soft_model is not None
    perturb = soft_model is not None and soft_model.kind == "perturb"
    if soft_model is not None:
        # An explicit model means what it says: unbounded bit-flip
        # models flip any bit (0..63); only the legacy default keeps
        # the historical skip-the-lowest-mantissa-bits range.
        bits_lo, bits_hi = soft_model.bits if soft_model.bits is not None else (0, 63)
    else:
        bits_lo, bits_hi = 20, 62

    def corrupt_element(array, flat_index, bit):
        """Corrupt one element the way the fault model prescribes."""
        if perturb:
            out = array.copy()
            flat = out.reshape(-1)
            value = soft_model.spec.get("value")
            flat[flat_index] = (
                float(value) if value is not None
                else flat[flat_index] * float(soft_model.spec.get("scale"))
            )
            return out
        return flip_bit_array(array, flat_index, bit)

    factory = RngFactory(seed)
    table = Table(
        [
            "kernel",
            "n",
            "detection_rate",
            "correction_rate",
            "false_positive_rate",
            "checksum_overhead",
        ],
        title="E2: Huang-Abraham checksum ABFT",
    )
    summary = {}

    for n in sizes:
        rng = factory.spawn(f"matmul-{n}")
        a = rng.standard_normal((n, n))
        bmat = rng.standard_normal((n, n))
        detected = corrected = false_pos = 0
        for _ in range(n_trials):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            # Default bits 20..62 skip the lowest mantissa bits.
            bit = int(rng.integers(bits_lo, bits_hi + 1))

            def corrupt(c, _i=i, _j=j, _bit=bit):
                flat = int(np.ravel_multi_index((_i, _j), c.shape))
                return corrupt_element(c, flat, _bit)

            product, report = checked_matmul(
                a, bmat, corrupt=corrupt if inject else None, correct=True
            )
            if report.corrected:
                corrected += 1
                detected += 1
            elif not report.ok:
                detected += 1
            # Clean run (false-positive probe).
            _, clean_report = checked_matmul(a, bmat, correct=False)
            if not clean_report.ok:
                false_pos += 1
        # Overhead: checksum construction + verification is O(n^2) against
        # the O(n^3) product.
        overhead = (4.0 * n * n) / (2.0 * n**3)
        table.add_row(
            "matmul", n, detected / n_trials, corrected / n_trials,
            false_pos / n_trials, overhead,
        )
        summary[f"matmul_{n}_detection"] = detected / n_trials
        summary[f"matmul_{n}_correction"] = corrected / n_trials

    for grid in (12, 20):
        matrix = poisson_2d(grid)
        n = matrix.n_rows
        rng = factory.spawn(f"matvec-{grid}")
        x = rng.standard_normal(n)
        detected = false_pos = 0
        for _ in range(n_trials):
            index = int(rng.integers(0, n))
            bit = int(rng.integers(bits_lo, bits_hi + 1))

            def corrupt(y, _index=index, _bit=bit):
                return corrupt_element(y, _index, _bit)

            _, ok = checked_matvec(matrix, x, corrupt=corrupt if inject else None)
            if not ok:
                detected += 1
            _, clean_ok = checked_matvec(matrix, x)
            if not clean_ok:
                false_pos += 1
        overhead = (2.0 * n) / (2.0 * matrix.nnz)
        table.add_row(
            "spmv", n, detected / n_trials, 0.0, false_pos / n_trials, overhead
        )
        summary[f"spmv_{n}_detection"] = detected / n_trials
    return SPEC.result(table, summary)
