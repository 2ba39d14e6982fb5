#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/run.py --workload rpc_echo --seed 1 --seconds 20 \\
        --record base/rpc_echo-1.json        # ... once per seed, per side
    python3 perfbench/compare.py base/ new/

Each argument is a directory (or file) of --record results.  For every
workload and metric the tool prints each side's median and quartiles and a
verdict against the metric's bound in BENCHMARK.json:

  better        the new side won at least 9 in 10 pairs of runs (paired by
                seed) and the medians differ by more than the base side's
                own quartile spread;
  worse         the new median is worse than the base median by more than
                the bound;
  within bound  neither;
  unresolved    a side's quartile spread exceeds the bound, so the bound
                cannot be judged (unless every new run beats every base run,
                which reads as better);
  no bound      metrics without a bound (per-layer and detail metrics).

Runs whose host fingerprints differ (CPUs, CPU model, kernel, compiler,
build type, NDEBUG and lock-check state) are refused: exit status 2.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

# Fingerprint fields that identify the code, not the host: they differ
# between the two sides of any real comparison.
CODE_KEYS = {"git_sha", "source_sha256"}


def load_records(path):
    """Every run record under `path` (a record file or a directory)."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    records = []
    for f in files:
        with open(f) as fh:
            data = json.load(fh)
        records += data if isinstance(data, list) else [data]
    return records


def host_key(record):
    fp = record.get("fingerprint", {})
    return tuple(sorted((k, str(v)) for k, v in fp.items()
                        if k not in CODE_KEYS))


def fingerprint_mismatch(records):
    """None when every record ran on the same host and build settings,
    else a description of the differing fields."""
    keys = {host_key(r) for r in records}
    if len(keys) <= 1:
        return None
    fields = {}
    for key in keys:
        for k, v in key:
            fields.setdefault(k, set()).add(v)
    diff = {k: sorted(v) for k, v in fields.items() if len(v) > 1}
    return "; ".join(f"{k}: {' vs '.join(v)}" for k, v in sorted(diff.items()))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound, base_seeds=None, new_seeds=None):
    """Verdict for one metric; see the module docstring."""
    if bound is None:
        return "no bound"
    sign = 1 if better == "higher" else -1  # positive = improvement

    def gain(b, n):
        return sign * (n - b)

    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    if max(relative_spread(base), relative_spread(new)) > bound:
        if all(gain(b, n) > 0 for b in base for n in new):
            return "better"
        return "unresolved"
    if base_med and gain(base_med, new_med) / abs(base_med) < -bound:
        return "worse"
    pairs = list(zip(base, new))
    if base_seeds and new_seeds:
        by_seed = dict(zip(new_seeds, new))
        pairs = [(b, by_seed[s]) for b, s in zip(base, base_seeds)
                 if s in by_seed]
    q1, _, q3 = quartiles(base)
    wins = sum(1 for b, n in pairs if gain(b, n) > 0)
    if pairs and wins >= 0.9 * len(pairs) and \
            gain(base_med, new_med) > q3 - q1:
        return "better"
    return "within bound"


def metric_specs(spec):
    """name -> (better, bound) from BENCHMARK.json."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def series(records, workload, trace, metric):
    """(values, seeds, unit) of `metric` over the runs of one workload."""
    values, seeds, unit = [], [], ""
    for r in sorted(records, key=lambda r: r.get("seed", 0)):
        if r["workload"] != workload or r["trace"] != trace:
            continue
        m = r["metrics"].get(metric) or r.get("measured", {}).get(metric)
        if m is not None:
            values.append(m["value"])
            seeds.append(r.get("seed"))
            unit = m["unit"]
    return values, seeds, unit


def compare(base, new, spec):
    """Rows (workload, trace, metric, unit, base q, new q, verdict)."""
    specs = metric_specs(spec)
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base} &
                    {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        names = []
        for r in base + new:
            if r["workload"] == workload and r["trace"] == trace:
                for source in (r["metrics"], r.get("measured", {})):
                    names += [n for n in source if n not in names]
        for name in names:
            b, bs, unit = series(base, workload, trace, name)
            n, ns, _ = series(new, workload, trace, name)
            if not b or not n:
                continue
            better, bound = specs.get(name, (None, None))
            rows.append((workload, trace, name, unit, quartiles(b),
                         quartiles(n), verdict(b, n, better, bound, bs, ns)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("compare.py: no run records on one side", file=sys.stderr)
        return 2
    mismatch = fingerprint_mismatch(base + new)
    if mismatch:
        print(f"compare.py: refusing to compare runs from different hosts "
              f"or builds: {mismatch}", file=sys.stderr)
        return 2
    for side, records in (("base", base), ("new", new)):
        bad = [r for r in records if not r.get("correct")]
        for r in bad:
            print(f"{side}: {r['workload']} seed {r.get('seed')} failed its "
                  f"checks: {r.get('failed_checks')}")
    print(f"{'workload':13s} {'metric':32s} {'unit':6s} "
          f"{'base q1/med/q3':>30s} {'new q1/med/q3':>30s}  verdict")
    for workload, trace, name, unit, bq, nq, v in compare(base, new, spec):
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        tag = f"{workload}{'*' if trace else ''}"
        print(f"{tag:13s} {name:32s} {unit:6s} {fmt(bq):>30s} "
              f"{fmt(nq):>30s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
