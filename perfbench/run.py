#!/usr/bin/env python3
"""Repository benchmark: build pm2bench, run one workload, check it, report.

    python3 perfbench/run.py --workload mig_pingpong --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds libpm2 and
pm2bench into $CARGO_TARGET_DIR (default .bench_build).  Every line but the
last is a human-readable table of all metrics the workload measured; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"} holding
the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1).  --record FILE also writes the full result, with the host and
build fingerprint, for perfbench/compare.py.  --workload all runs every
workload in turn (for people; the result keys are prefixed by workload).

Exit status: 0 when every correctness check passed, 1 when a check failed or
the run was killed by its watchdog (the result line then says so), 2 when
pm2bench could not be built or started.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["mig_pingpong", "rpc_echo", "rpc_open", "spawn_tree"]

# Which measured metric each end-to-end metric of BENCHMARK.json is, per
# workload (setup_s keeps its name everywhere, rss_peak_mb everywhere but
# rpc_open).  The typical latency is a median except on spawn_tree, whose
# per-session batch times spread too widely for a median and take the
# mean; rpc_open's rate is the closed-loop ceiling, as its ladder rates are
# set by the host's millisecond stalls, and its memory the footprint after
# the first closed-loop phase, as its process peak is set by the deepest
# backlog a stall built.  The p99s do not repeat on a shared host and are per-layer
# metrics (see README.md).
CONTRACT = {
    "mig_pingpong": {
        "lat_us": "mig_null_p50_us",
        "rate_per_s": "mig_64k_per_s",
    },
    "rpc_echo": {
        "lat_us": "rpc_sync_p50_us",
        "rate_per_s": "rpc_async_calls_per_s",
    },
    "rpc_open": {
        "lat_us": "open_r2_p50_us",
        "rate_per_s": "open_saturation_cps",
        "rss_peak_mb": "open_sat_rss_mb",
    },
    "spawn_tree": {
        "lat_us": "tree_batch_mean_us",
        "rate_per_s": "tree_tasks_per_s",
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build pm2bench; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: no PM2 source tree next to perfbench/; nothing to build")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "pm2bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: {' '.join(cmd)}: {e}")
            return None
        if r.returncode != 0:
            log(f"run.py: {' '.join(cmd)} failed ({r.returncode})")
            return None
    exe = os.path.join(out, "pm2bench")
    return exe if os.access(exe, os.X_OK) else None


def source_fingerprint():
    """Git commit if the tree is a checkout, and a digest of the sources."""
    sha = "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_pm2bench(exe, workload, seed, seconds, trace):
    """Run one workload; returns pm2bench's result object."""
    run_dir = os.path.relpath(os.path.join(build_dir(), "run"), ROOT)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--run-dir", run_dir]
    # pm2bench's own watchdog fires at 2 x seconds + 30 s (capped at
    # 160 s) and prints the open spans; this one only catches a pm2bench that
    # cannot even do that.
    cap = min(2 * seconds + 45, 175)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=cap)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes)
                         else (e.stderr or ""))
        return {"killed": f"no result within {cap} s"}
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"killed": f"pm2bench exited {r.returncode} without a result"}
    if r.returncode not in (0, 1):
        result["killed"] = f"pm2bench exited {r.returncode}"
    return result


def contract_metrics(workload, result, wanted, trace):
    """The BENCHMARK.json metrics of one run, plus any that are missing."""
    measured = result.get("metrics", {})
    mapping = CONTRACT[workload] if not trace else {}
    out, missing = {}, []
    for m in wanted:
        source = mapping.get(m["name"], m["name"])
        if source in measured:
            if measured[source]["unit"] != m["unit"]:
                missing.append(f"{m['name']} measured in "
                               f"{measured[source]['unit']}, not {m['unit']}")
            out[m["name"]] = {"value": measured[source]["value"],
                              "unit": m["unit"]}
        elif trace:
            # A layer the workload does not exercise reads zero.
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            missing.append(f"{m['name']} ({source}) not measured")
    return out, missing


def print_table(workload, result, seed, trace):
    print(f"== {workload} seed={seed} trace={trace} ==")
    fp = result.get("fingerprint", {})
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for name, m in sorted(result.get("metrics", {}).items()):
        print(f"  {name:34s} {m['value']:>16.4f} {m['unit']}")
    samples = result.get("samples", {})
    if samples:
        print("  samples: " + ", ".join(f"{k}={v}"
                                        for k, v in sorted(samples.items())))
    attempted = result.get("attempted", 0)
    failed = result.get("failed", 0)
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'op_fail_ratio':34s} {ratio:>16.6f} ratio  "
          f"({failed} of {attempted} operations)")
    for check in result.get("failed_checks", []):
        print(f"  FAILED CHECK: {check}")
    if "rungs" in result:
        print("  ladder (pooled over sessions):")
        for r in result["rungs"]:
            print("    " + json.dumps(r))


def run_one(exe, workload, args, e2e, per_layer):
    result = run_pm2bench(exe, workload, args.seed, args.seconds, args.trace)
    killed = result.get("killed")
    metrics, problems = ({}, []) if killed else contract_metrics(
        workload, result, per_layer if args.trace else e2e, args.trace)
    if killed:
        problems.append(killed)
    attempted = max(int(result.get("attempted", 0)), 1)
    failed = int(result.get("failed", 0))
    correct = bool(result.get("correct")) and not problems
    if not correct and failed == 0:
        failed = attempted  # a run that could not be checked counts as failed
    print_table(workload, result, args.seed, args.trace)
    for p in problems:
        print(f"  PROBLEM: {p}")
    fingerprint = dict(result.get("fingerprint", {}))
    fingerprint.update(source_fingerprint())
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "measured": result.get("metrics", {}),
              "samples": result.get("samples", {}),
              "failed_checks": result.get("failed_checks", []) + problems}
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="write the full result (JSON) here")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    exe = build()
    if exe is None:
        return 2
    try:
        e2e, per_layer = load_contract()
    except (OSError, ValueError, KeyError) as e:
        log(f"run.py: cannot read BENCHMARK.json: {e}")
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_one(exe, w, args, e2e, per_layer) for w in names]
    if args.record:
        with open(args.record, "w") as f:
            json.dump(records if len(records) > 1 else records[0], f,
                      indent=1)
    if len(records) == 1:
        r = records[0]
        line = {k: r[k] for k in ("correct", "attempted", "failed",
                                  "metrics")}
    else:
        line = {"correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {f"{r['workload']}.{k}": v for r in records
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
