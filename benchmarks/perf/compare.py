"""Compare two results files of ``run.py``: did B get worse than A?

    python3 benchmarks/perf/compare.py A/results.json B/results.json

One row per workload and end-to-end metric: both medians, B over A
with its base, and a verdict against the bound BENCHMARK.json fixes for
the metric —

- ``ok``          B's median is no worse than A's by more than the bound;
- ``regressed``   it is worse by more than the bound;
- ``unresolved``  B reads worse, but within one run the metric's samples
                  (slices of the stream, or repeats of the set-up) spread
                  wider than the bound and the two sides overlap, so
                  these two files cannot tell a change from noise. Run
                  more pairs (choosing-metrics, section 8).

Exits non-zero when any row is ``regressed``. This is a regression
gate only: a gain is claimed by the ten-pair rule, not by this table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent.parent


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    worse_by = worsening(a["value"], b["value"], better)
    if worse_by <= 0:
        return "ok"
    sa: List[float] = a.get("samples") or [a["value"]]
    sb: List[float] = b.get("samples") or [b["value"]]
    apart = min(sb) > max(sa) if better == "lower" else max(sb) < min(sa)
    wide = max(
        (max(s) - min(s)) / abs(side["value"]) for s, side in ((sa, a), (sb, b))
    ) > bound
    if wide and not apart:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: Dict, b: Dict, benchmark: Dict) -> List[tuple]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            try:
                ma = a["workloads"][workload]["metrics"][name]
                mb = b["workloads"][workload]["metrics"][name]
            except KeyError:
                rows.append((workload, name, None, None, spec["unit"], "regressed"))
                continue
            rows.append(
                (workload, name, ma["value"], mb["value"], spec["unit"],
                 verdict(ma, mb, spec["better"], spec["bound"]))
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'B/A (base: A)':>24s}  verdict")
    bad = 0
    for workload, name, va, vb, unit, result in compare(a, b, benchmark):
        if va is None:
            print(f"{workload:16s} {name:16s} {'missing':>12s} {'missing':>12s} "
                  f"{'':>24s}  {result}")
        else:
            ratio = f"{vb / va:.3f} of {va:.5g} {unit}"
            print(f"{workload:16s} {name:16s} {va:12.5g} {vb:12.5g} "
                  f"{ratio:>24s}  {result}")
        bad += result == "regressed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
