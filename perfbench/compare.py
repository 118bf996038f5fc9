#!/usr/bin/env python3
"""Compare campaign-benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, for the result files
        (<workload>-seed<N>-trace0.json, written by run.py) in DIR.

    python3 perfbench/compare.py diff BASE_DIR NEW_DIR
        Flags every workload/metric whose median in NEW is worse than in
        BASE by more than the metric's bound. Exit status 1 on a regression.

Both sides must be measured with the same benchmark code and settings.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path=BENCHMARK):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_results(directory):
    """{workload: {metric: [values...]}} from the untraced result files."""
    out = {}
    for f in sorted(Path(directory).glob("*-trace0.json")):
        r = json.loads(f.read_text())
        if not r.get("correct", False):
            continue
        per = out.setdefault(r["workload"], {})
        for name, m in r["end_to_end"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative when better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    return (new - base) / base if better == "lower" else (base - new) / base


def diff(base, new, spec):
    """Rows (workload, metric, base median, new median, worse-by, bound, regressed)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name, m in spec.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            w = worse_by(bm, nm, m["better"])
            rows.append((workload, name, bm, nm, w, m["bound"], w > m["bound"]))
    return rows


def main(argv):
    spec = load_spec()
    if len(argv) == 2 and argv[0] == "spread":
        for workload, metrics in sorted(load_results(argv[1]).items()):
            for name, values in metrics.items():
                med, q1, q3, s = quartile_spread(values)
                bound = spec[name]["bound"] if name in spec else float("nan")
                flag = "" if s < bound / 3 else ("  above bound/3" if s < bound else "  ABOVE BOUND")
                print(f"{workload:7s} {name:18s} n={len(values):2d} median={med:.6g} "
                      f"q1={q1:.6g} q3={q3:.6g} spread={s:.4f} bound={bound}{flag}")
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        rows = diff(load_results(argv[1]), load_results(argv[2]), spec)
        regressed = False
        for workload, name, bm, nm, w, bound, bad in rows:
            regressed |= bad
            print(f"{workload:7s} {name:18s} base={bm:.6g} new={nm:.6g} worse_by={w:+.4f} "
                  f"bound={bound} {'REGRESSION' if bad else 'ok'}")
        return 1 if regressed else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
