"""Compare two benchmark run records against the ``BENCHMARK.json`` bounds.

    python bench/compare.py A.json B.json

``A`` is the reference (for example ``bench/baselines/seed0.json``) and
``B`` the candidate; both are ``record.json`` files written by ``run.py``
(use ``--repeat N`` for several runs per workload).  One row per workload
gives, for each end-to-end metric, B's median against A's and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the distance between the quartiles of A's own runs,
  as a share of its median, exceeds the bound, and not every run of B
  reads better than every run of A;
* ``ok``         -- neither.

The exit code is 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from run import load_spec, spread


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    spread_a = spread(a)
    if spread_a is not None and spread_a > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(rec_a: dict, rec_b: dict, spec: dict) -> List[Tuple[str, List[str], List[str]]]:
    """(workload, printable cells, verdicts) for each workload in both records."""
    rows = []
    for workload, entry_a in rec_a["workloads"].items():
        entry_b = rec_b["workloads"].get(workload, {})
        if not entry_a.get("runs") or not entry_b.get("runs"):
            continue
        cells, verdicts = [], []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in entry_a["runs"]]
            b = [run["metrics"][name] for run in entry_b["runs"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            status = verdict(a, b, metric["better"], metric["bound"])
            verdicts.append(status)
            cells.append(
                f"{name} {med_a:.4g}->{med_b:.4g} {metric['unit']} "
                f"({change:+.1%}, bound {metric['bound']:.0%}) {status}"
            )
        rows.append((workload, cells, verdicts))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records: List[Dict] = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    rows = compare(records[0], records[1], load_spec())
    for label, record in zip("AB", records):
        meta = record["meta"]
        runs = {w: len(e.get("runs", [])) for w, e in record["workloads"].items()}
        print(f"{label}: {meta['git_sha'][:12]} seed {meta['seed']} runs {runs}")
    for workload, cells, _ in rows:
        print(f"{workload:<16}" + " | ".join(cells))
    return 1 if any("worse" in verdicts for _, _, verdicts in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
