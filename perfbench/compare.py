"""Compare two sets of benchmark records from perfbench/results/.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Every record must come from one workload and one trace mode.  Records taken
on different kernel backends are refused (exit 2): `python` and `cython`
differ by design, so such a comparison says nothing about a change.  For
each metric the table gives the median and quartiles of each side's
run-level values, the run count, and the change of the medians.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list) -> list:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile) as the benchmark reports them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    records = base + new

    for key, what in (("workload", "workloads"), ("trace", "trace modes")):
        seen = {r[key] for r in records}
        if len(seen) > 1:
            print(f"error: records mix {what}: {sorted(map(str, seen))}", file=sys.stderr)
            return 2
    backends = {r.get("env", {}).get("kernel_backend") for r in records}
    if len(backends) > 1:
        print(f"error: records come from different kernel backends {sorted(map(str, backends))};"
              " compare runs taken on one backend", file=sys.stderr)
        return 2

    print(f"workload {records[0]['workload']}, trace {records[0]['trace']}, "
          f"backend {backends.pop()}")
    print(f"{'metric':40} {'base median [q1, q3] n':>36} {'new median [q1, q3] n':>36} change")
    for name, meta in base[0]["metrics"].items():
        cols = []
        for side in (base, new):
            values = [r["metrics"][name]["value"] for r in side if name in r["metrics"]]
            med, q1, q3 = spread(values)
            cols.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"))
        change = f"{(cols[1][0] - cols[0][0]) / cols[0][0]:+.1%}" if cols[0][0] else "n/a"
        print(f"{name:40} {cols[0][1]:>36} {cols[1][1]:>36} {change} {meta['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
