"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py --results DIR`` writes, one per
workload run.  For every workload and end-to-end metric the untraced runs
of each side give a median and quartiles, and a verdict:

* better: the change wins at least nine tenths of the pairs (runs paired by
  seed, ties counting for neither) and the medians differ by more than the
  parent's own spread (the distance between its quartiles);
* unresolved: the parent's spread, as a share of its median, is wider
  than the metric's bound, and not every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound BENCHMARK.json fixes for the metric;
* unchanged: otherwise.

Then the per-layer metrics of the traced runs are listed side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool) -> str:
    """Verdict for one metric; ``parent``/``change`` map seed -> list of values."""
    a = [v for vs in parent.values() for v in vs]
    b = [v for vs in change.values() for v in vs]
    sign = 1.0 if lower_is_better else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    pairs = [(x, y) for seed in sorted(set(parent) & set(change))
             for x, y in zip(parent[seed], change[seed])]
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3 - q1:
        return "better"
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if (q3 - q1) / abs(ma) > bound and not all_better:
        return "unresolved"
    if sign * (mb - ma) / abs(ma) > bound:
        return "worse"
    return "unchanged"


def load(directory) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def _by_workload(records, trace: int):
    out = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    return out


def _series(records, metric: str) -> dict:
    out = defaultdict(list)
    for r in records:
        value = r["end_to_end"][metric]["median"]
        if value is not None:
            out[r["seed"]].append(value)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    parent, change = load(argv[0]), load(argv[1])
    benches = {r["bench"] for r in parent + change}
    if len(benches) > 1:
        print(f"warning: the runs used different benchmark code {sorted(benches)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pa, ch = _by_workload(parent, 0), _by_workload(change, 0)
    print(f"{'workload':<20} {'metric':<12} {'parent median [q1, q3] n':<34}"
          f" {'change median [q1, q3] n':<34} {'change':>8}  verdict")
    for wl in sorted(set(pa) & set(ch)):
        for m in spec["end_to_end"]:
            sa, sb = _series(pa[wl], m["name"]), _series(ch[wl], m["name"])
            if not sa or not sb:
                continue
            cells = []
            for s in (sa, sb):
                vals = [v for vs in s.values() for v in vs]
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.4f} [{q1:.4f}, {q3:.4f}]"
                             f" {len(vals)}")
            ma = statistics.median([v for vs in sa.values() for v in vs])
            mb = statistics.median([v for vs in sb.values() for v in vs])
            v = verdict(sa, sb, m["bound"], m["better"] == "lower")
            print(f"{wl:<20} {m['name']:<12} {cells[0]:<34} {cells[1]:<34}"
                  f" {(mb - ma) / ma:>+8.1%}  {v}")
        for side, recs in (("parent", pa[wl]), ("change", ch[wl])):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            print(f"{wl:<20} {'fail_ratio':<12} {side}: {fail}/{att} commands")
    ta, tb = _by_workload(parent, 1), _by_workload(change, 1)
    for wl in sorted(set(ta) & set(tb)):
        print(f"\nper-layer, {wl} (medians over traced runs: parent, change)")
        for name in ta[wl][0]["per_layer"]:
            va = [r["per_layer"][name] for r in ta[wl] if r["per_layer"][name] is not None]
            vb = [r["per_layer"][name] for r in tb[wl] if r["per_layer"][name] is not None]
            if va and vb:
                a, b = statistics.median(va), statistics.median(vb)
                print(f"  {name:<40} {a:>14.6g} {b:>14.6g} {b - a:>+14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
