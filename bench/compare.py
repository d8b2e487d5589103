"""``python3 bench/compare.py A.json B.json``: did B regress against A?

A and B are result files written by ``bench/run.py --repeat N --out``
(the same seeds in both).  Every pairing of workload and end-to-end
metric gets its own row, judged by the bound ``BENCHMARK.json`` fixes
for the metric:

* ``REGRESSION`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's spread (inter-quartile distance over
  the median, as the driver computes it) exceeds the bound, so the
  medians cannot tell, unless every run of B reads better than every
  run of A;
* ``ok`` otherwise.

Exit status 1 on any regression or failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from calibrate import iqr_share

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> Dict:
    return json.loads(Path(path).read_text())


def column(doc: Dict, workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric][0]
            for run in doc["runs"]]


def spread(values: List[float]) -> float:
    return iqr_share(values) if len(values) >= 2 else float("nan")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) \
        / statistics.median(a)
    wide = [s for s in (spread(a), spread(b)) if s == s and s > bound]
    if wide:
        b_always_better = (max(b) < min(a) if better == "lower"
                           else min(b) > max(a))
        return "better" if b_always_better else "unresolved"
    return "REGRESSION" if worse_by > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a_doc, b_doc = load(argv[0]), load(argv[1])
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bad = False
    print(f"{'workload':14s} {'metric':22s} {'median A':>14s} {'median B':>14s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in a_doc["runs"][0]["workloads"]:
        for row in metrics:
            a = column(a_doc, workload, row["name"])
            b = column(b_doc, workload, row["name"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            what = verdict(a, b, row["better"], row["bound"])
            bad = bad or what == "REGRESSION"
            print(f"{workload:14s} {row['name']:22s} {med_a:14.4f} {med_b:14.4f} "
                  f"{(med_b - med_a) / med_a:+8.2%} {spread(a):9.2%} "
                  f"{spread(b):9.2%} {row['bound']:6.2f}  {what}")
        for name, doc in (("A", a_doc), ("B", b_doc)):
            failed = sum(run["workloads"][workload]["failed"]
                         for run in doc["runs"])
            if failed:
                bad = True
                print(f"{workload:14s} {failed} ops failed in {name}")

    print("\nnamed metrics (medians; informational)")
    for name in a_doc["runs"][0]["named"]:
        a = [run["named"][name][0] for run in a_doc["runs"]]
        b = [run["named"][name][0] for run in b_doc["runs"]]
        note = ""
        if name == "det_overhead_pct":
            # Virtual time: the same seeds must give the same digits.
            note = "  identical" if a == b else "  DIFFERS between the sets"
        print(f"  {name:30s} {statistics.median(a):14.4f} "
              f"{statistics.median(b):14.4f}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
