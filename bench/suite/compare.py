#!/usr/bin/env python3
"""Compares result sets of bench/suite/run.py within BENCHMARK.json's bounds.

  python3 bench/suite/compare.py BASE.json NEW.json [NEW2.json ...]
  python3 bench/suite/compare.py A1.json,A2.json B1.json,B2.json

Each argument is one set: one results.json, or several joined by commas.
A sample is one run's reported value of a metric (run.py's `value`), so
a set of N results files holds N samples per (workload, metric), and two
sets of equal size pair up file by file. The first set is the baseline;
every other set is compared with it, one row per (workload, end-to-end
metric):

  * each side's median and quartiles over its runs;
  * a verdict from the metric's bound: `better`, `same`, `worse`, or
    `unresolved` when either side's spread (IQR / median) exceeds the
    bound -- unless every run of one side beats every run of the other.
    A one-run set has no measured spread;
  * for paired runs, the fraction of pairs the new side won (a gain needs
    at least 9 of 10, ties counting for neither side).

Sets whose host blocks differ (cpu, nproc, compiler, build) are refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "flags",
             "sanitizers")

# Not in BENCHMARK.json, whose bounds are shares of a median and so need
# metrics that never read 0, but compared here with bound 0: any increase
# in failures is a regression.
EXTRA_METRICS = {"error_rate": {"unit": "ratio", "better": "lower",
                                "bound": 0.0}}


def bounds(benchmark_path):
    spec = json.loads(Path(benchmark_path).read_text())
    table = {m["name"]: m for m in spec["end_to_end"]}
    table.update(EXTRA_METRICS)
    return table


def load_set(items):
    """A set from result paths or already-loaded result documents."""
    docs = [json.loads(Path(i).read_text()) if isinstance(i, (str, Path))
            else i for i in items]
    hosts = [{k: d["host"].get(k) for k in HOST_KEYS} for d in docs]
    for h in hosts[1:]:
        if h != hosts[0]:
            raise SystemExit(f"compare.py: host blocks differ inside a set: "
                             f"{hosts[0]} vs {h}")
    files = []
    for d in docs:
        files.append({w: {m: s["value"] for m, s in r["metrics"].items()}
                      for w, r in d["workloads"].items()})
    return {"host": hosts[0], "files": files}


def _iqr_share(samples):
    if len(samples) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(sorted(samples), n=4)
    med = statistics.median(samples)
    return (q3 - q1) / med if med else 0.0


def _quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(sorted(samples), n=4)
    return q1, statistics.median(samples), q3


def verdict(base, new, bound, better):
    """Returns (verdict, relative change, spread); change > 0 is worse."""
    sign = 1 if better == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    if bound == 0:
        d = sign * (mn - mb)
        return ("worse" if d > 0 else "better" if d < 0 else "same"), d, 0.0
    change = sign * (mn - mb) / mb if mb else 0.0
    spread = max(_iqr_share(base), _iqr_share(new))
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", change, spread
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "same", change, spread


def compare_sets(base_set, new_set, table):
    if base_set["host"] != new_set["host"]:
        raise SystemExit("compare.py: refusing to compare different hosts:\n"
                         f"  {base_set['host']}\n  {new_set['host']}")
    rows = []
    workloads = [w for w in base_set["files"][0] if w in new_set["files"][0]]
    for w in workloads:
        for metric, spec in table.items():
            base = [f[w][metric] for f in base_set["files"]
                    if metric in f.get(w, {})]
            new = [f[w][metric] for f in new_set["files"]
                   if metric in f.get(w, {})]
            if not base or not new:
                continue
            v, change, spread = verdict(base, new, spec["bound"],
                                        spec["better"])
            sign = 1 if spec["better"] == "lower" else -1
            pairs = list(zip(base, new)) if len(base) == len(new) >= 2 else []
            won = sum(1 for b, n in pairs if sign * (n - b) < 0)
            rows.append({"workload": w, "metric": metric,
                         "unit": spec["unit"], "bound": spec["bound"],
                         "base": _quartiles(base), "new": _quartiles(new),
                         "change": change, "spread": spread, "verdict": v,
                         "pairs_won": won, "pairs": len(pairs)})
    return rows


def print_rows(rows):
    print(f"{'workload':<22} {'metric':<12} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'change':>8} {'spread':>7} {'bound':>6} "
          f"{'pairs':>6}  verdict")
    for r in rows:
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        pairs = f"{r['pairs_won']}/{r['pairs']}" if r["pairs"] else "-"
        print(f"{r['workload']:<22} {r['metric']:<12} "
              f"{fmt.format(*r['base']):>30} {fmt.format(*r['new']):>30} "
              f"{r['change']:>+8.2%} {r['spread']:>7.2%} {r['bound']:>6.0%} "
              f"{pairs:>6}  {r['verdict']}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("sets", nargs="+", help="results.json[,results.json...]")
    p.add_argument("--benchmark",
                   default=str(Path(__file__).resolve().parents[2] /
                               "BENCHMARK.json"))
    args = p.parse_args()
    if len(args.sets) < 2:
        p.error("need at least two sets")
    table = bounds(args.benchmark)
    sets = [load_set(s.split(",")) for s in args.sets]
    for i, new in enumerate(sets[1:], start=1):
        print(f"--- set {i} ({args.sets[i]}) vs baseline ({args.sets[0]})")
        print_rows(compare_sets(sets[0], new, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
