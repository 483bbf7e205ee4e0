"""Compare two ledger files row by row: the ratchet against the previous PR.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the previous PR's checked-in set), ``B`` the
change.  Every (metric, workload) row present in both files is printed
with both medians and quartiles and a verdict:

* ``ok`` / ``improved`` / ``regressed`` -- ``B``'s median against the
  bound the benchmark fixed for the metric;
* ``unresolved`` -- the inter-quartile spread of either side exceeds
  the bound and the rounds of the two sides overlap, so the row says
  nothing (it is *not* "unchanged");
* ``same`` / ``changed`` -- exact-repeat counts.

Per-layer timings carry no bound; they are shown with their change and
never gate.  Exit status is 1 on any ``regressed`` or ``changed`` row,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

from ledger_stats import spread, verdict, worse_by  # noqa: E402

__all__ = ["compare_documents", "render", "main"]

FAILING = ("regressed", "changed")


def _rows(document: dict) -> Dict[Tuple[str, Optional[str]], dict]:
    return {(row["metric"], row["workload"]): row for row in document["rows"]}


def compare_documents(a: dict, b: dict) -> List[dict]:
    """One comparison record per (metric, workload) row both files have."""
    rows_a, rows_b = _rows(a), _rows(b)
    # Counts repeat only for the same inputs and the same amount of work.
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    compared = []
    for key, row_a in rows_a.items():
        row_b = rows_b.get(key)
        if row_b is None or (row_a["exact"] and not same_inputs):
            continue
        compared.append({
            "metric": key[0],
            "workload": key[1],
            "kind": row_a["kind"],
            "unit": row_a["unit"],
            "bound": row_a["bound"],
            "a": row_a,
            "b": row_b,
            "change": -worse_by(
                float(row_a["median"]), float(row_b["median"]),
                row_a["better"], row_a["absolute"],
            ),
            "verdict": verdict(
                row_a, row_b,
                better=row_a["better"], bound=row_a["bound"],
                absolute=row_a["absolute"], exact=row_a["exact"],
            ),
        })
    return compared


def _cell(row: dict) -> str:
    return f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"


def render(compared: List[dict], seeds: Tuple[int, int]) -> str:
    lines = []
    if seeds[0] != seeds[1]:
        lines.append(
            f"note: seeds differ ({seeds[0]} vs {seeds[1]}): inputs differ, "
            "so exact counts are left out"
        )
    lines.append(
        f"{'metric':44s} {'workload':16s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'better by':>10s} {'spread A/B':>13s} "
        f"{'bound':>6s}  verdict"
    )
    for item in compared:
        bound = "" if item["bound"] is None else f"{item['bound']:.2f}"
        change = item["change"]
        better_by = f"{change:+.1%}" if abs(change) != float("inf") else "n/a"
        if item["a"]["absolute"]:
            better_by = f"{change:+.3g}"
        lines.append(
            f"{item['metric']:44s} {item['workload'] or '-':16s} "
            f"{_cell(item['a']):>34s} {_cell(item['b']):>34s} {better_by:>10s} "
            f"{spread(item['a']):6.1%}/{spread(item['b']):6.1%} {bound:>6s}  "
            f"{item['verdict']}"
        )
    counts: Dict[str, int] = {}
    for item in compared:
        counts[item["verdict"]] = counts.get(item["verdict"], 0) + 1
    lines.append(
        "summary: " + ", ".join(f"{n} {name}" for name, n in sorted(counts.items()))
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="ledger file of the parent / previous PR")
    parser.add_argument("b", help="ledger file of the change")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    a, b = documents
    compared = compare_documents(a, b)
    if not compared:
        print("compare.py: the two files share no (metric, workload) row",
              file=sys.stderr)
        return 2
    print(render(compared, (a["seed"], b["seed"])))
    return 1 if any(item["verdict"] in FAILING for item in compared) else 0


if __name__ == "__main__":
    sys.exit(main())
