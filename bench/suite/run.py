#!/usr/bin/env python3
"""Builds and runs the tdsim benchmark; see bench/suite/README.md.

  python3 bench/suite/run.py                    # all workloads, seed 1, 5 reps
  python3 bench/suite/run.py --trace            # plus one traced rep each
  python3 bench/suite/run.py --smoke            # toy sizes, under 10 s
  python3 bench/suite/run.py --self-check       # two sets must agree
  python3 bench/suite/run.py --env-check        # TDSIM_* must not leak in
  python3 bench/suite/run.py --workload fifo_narrow --seed 3 --seconds 10 \
      --trace 0

Every workload runs in its own tdbench process. Results go to
build-bench/results.json; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with --trace 1.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build-bench"
TDBENCH = BUILD / "tdbench"
REFERENCE = SUITE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.dont_write_bytecode = True
sys.path.insert(0, str(SUITE))
import compare  # noqa: E402  (lives beside this script)

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("error_rate", "ratio"),
]

# Every per-layer metric the traced repetition reports, with its unit.
# BENCHMARK.json lists the subset that is measured on every workload.
LAYER_METRICS = [
    ("kernel.context_switches", "count"),
    ("kernel.method_activations", "count"),
    ("kernel.delta_cycles", "count"),
    ("kernel.timed_waves", "count"),
    ("kernel.event_triggers", "count"),
    ("kernel.self_s", "s"),
    ("kernel.ns_per_activation", "ns"),
    ("fifo.calls", "count"),
    ("fifo.blocked", "count"),
    ("fifo.fast_call_ns", "ns"),
    ("fifo.self_s", "s"),
    ("sync.calls", "count"),
    ("sync.performed", "count"),
    ("sync.elided", "count"),
    ("sync.quantum", "ps"),
    ("sync.fast_call_ns", "ns"),
    ("sched.parallel_rounds", "count"),
    ("sched.horizon_waits", "count"),
    ("sched.lookahead_advances", "count"),
    ("sched.steals", "count"),
    ("sched.busy_share", "ratio"),
    ("qc.adjustments", "count"),
    ("qc.final_quantum_ps", "ps"),
    ("elab.spawns", "count"),
    ("elab.spawn_ns", "ns"),
    ("elab.cold_setup_s", "s"),
    ("pool.acquires", "count"),
    ("pool.recycles", "count"),
    ("mem.rss_setup_mb", "MiB"),
    ("snapshot.capture_ms", "ms"),
    ("fork.replay_ms", "ms"),
    ("fleet.scenario_ms", "ms"),
    ("fleet.retries", "count"),
    ("soc.fifo_accesses", "count"),
    ("soc.method_share", "ratio"),
    ("trace.overhead", "ratio"),
]

# One workload process; a contract run must end within 180 s.
TDBENCH_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("run.py: " + msg)
    sys.exit(code)


def scrubbed_env():
    """The environment without any TDSIM_* knob: KernelConfig::from_env
    would otherwise change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TDSIM_")}


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("tdsim sources not found: expected CMakeLists.txt and src/ in "
            f"{ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SUITE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs)])
    with open(build_log, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=scrubbed_env()).returncode
            if rc != 0:
                out.flush()
                tail = build_log.read_text().splitlines()[-30:]
                die("build failed (" + " ".join(cmd) + "):\n" +
                    "\n".join(tail))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state():
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        return head.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def run_tdbench(workload, args, traced):
    cmd = [str(TDBENCH), "--workload", workload, "--seed", str(args.seed)]
    if args.seconds:
        cmd += ["--seconds", str(args.seconds)]
    else:
        cmd += ["--reps", str(args.reps or (2 if args.smoke else 5))]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", "--trace-out",
                str(BUILD / f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TDBENCH_TIMEOUT_S, env=scrubbed_env())
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TDBENCH_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"tdbench exited {proc.returncode}: " +
                      proc.stderr.strip()[-2000:])
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"unparsable tdbench output: {e}"


def stats(values):
    """`value` is what the run reports for the metric: the best of the
    samples. Interference from other tenants of a shared host only ever
    adds time, so the fastest repetition is the steadiest estimate of
    what the code costs; the median and quartiles stay beside it."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": values[0], "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": values[0], "max": values[-1],
            "n": len(values), "samples": values}


def majority(values):
    return collections.Counter(values).most_common(1)[0][0]


def summarize(workload, raw, error, reference, args):
    """Folds one tdbench record into the workload's result: statistics,
    digest agreement, and the operation count behind error_rate.

    Every repetition (warm-up and traced one included) fails when
    - its outputs digest, what the model simulated, differs from the
      reference: reference.json at seed 1, else the digest most measured
      repetitions share;
    - its counts digest, the kernel counters, differs from the one most
      measured repetitions share. Counters are compared only within the
      run, never with reference.json, so an optimisation that removes
      context switches passes as long as the dates stay put."""
    if raw is None:
        return {"attempted": 1, "failed": 1, "errors": [error],
                "outputs": None, "counts": None, "outputs_seen": [],
                "counts_seen": [], "reference": "not-checked",
                "metrics": {}, "layer": {}, "trace": None, "config": None,
                "build": None}
    reps = raw["reps"]
    all_reps = [raw["warmup"]] + reps
    if raw["traced"]:
        all_reps.append(raw["traced"]["rep"])
    pinned = reference.get(workload) if args.seed == 1 else None
    outputs = majority(r["outputs"] for r in reps)
    counts = majority(r["counts"] for r in reps)
    expected = pinned or outputs
    attempted = sum(r["attempted"] for r in all_reps)
    failed = 0
    errors = []
    for r in all_reps:
        bad = r["failed"]
        if r["outputs"] != expected:
            bad = r["attempted"]
            errors.append(f"outputs digest {r['outputs']} != expected "
                          f"{expected}: a simulated result changed")
        if r["counts"] != counts:
            bad = r["attempted"]
            errors.append(f"counts digest {r['counts']} != {counts} of the "
                          "other repetitions: the counters do not repeat")
        failed += bad
        errors += r["errors"]
    if raw["traced"] and not raw["traced"]["span_counts_match"]:
        failed += raw["traced"]["rep"]["attempted"]
        errors.append("traced FIFO span counts disagree with the channel")
    if pinned is None:
        ref_state = "unpinned" if args.seed == 1 else "not-checked"
    else:
        ref_state = "match" if outputs == pinned else "mismatch"
    metrics = {
        "run_s": stats([r["run_s"] for r in reps]),
        "setup_s": stats(raw["setup_samples"]),
        "peak_rss_mb": stats([raw["peak_rss_mb"]]),
        "error_rate": stats([failed / attempted]),
    }
    for (name, unit) in END_TO_END:
        metrics[name]["unit"] = unit
    trace = None
    if raw["traced"]:
        trace = {k: raw["traced"][k] for k in
                 ("metrics", "spans", "file", "span_overhead_ns",
                  "span_cost_ns")}
        trace["run_s"] = raw["traced"]["rep"]["run_s"]
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "outputs": outputs, "counts": counts,
            "outputs_seen": sorted({r["outputs"] for r in all_reps}),
            "counts_seen": sorted({r["counts"] for r in all_reps}),
            "reference": ref_state,
            "metrics": metrics, "layer": raw["layer"], "trace": trace,
            "config": raw["config"], "build": raw["build"],
            "workers": raw["workers"]}


def print_workload(name, res):
    m = res["metrics"]
    log("")
    n = m["run_s"]["n"] if "run_s" in m else 0
    log(f"== {name}: {n} measured reps, outputs digest {res['outputs']} "
        f"(reference: {res['reference']}), counts digest {res['counts']}, "
        f"{res['failed']}/{res['attempted']} operations failed")
    for err in res["errors"][:10]:
        log(f"   ERROR {err}")
    for metric, unit in END_TO_END:
        if metric not in m:
            continue
        s = m[metric]
        log(f"   {metric:<28} {s['value']:>14.6g} {unit:<6} "
            f"median {s['median']:.6g}  q1 {s['q1']:.6g}  "
            f"q3 {s['q3']:.6g}  max {s['max']:.6g}  n {s['n']}")
    if res["trace"]:
        log(f"   per-layer (traced rep, run_s {res['trace']['run_s']:.4f}):")
        tm = res["trace"]["metrics"]
        for metric, unit in LAYER_METRICS:
            log(f"   {metric:<28} {tm.get(metric, 0):>14.6g} {unit}")


def run_suite(args, workloads, traced):
    reference = ({} if args.update_reference else
                 load_reference().get("smoke" if args.smoke else "full", {}))
    results = {}
    for w in workloads:
        log(f"run.py: {w} (seed {args.seed}{', smoke' if args.smoke else ''}"
            f"{', traced' if traced else ''})")
        raw, error = run_tdbench(w, args, traced)
        results[w] = summarize(w, raw, error, reference, args)
        print_workload(w, results[w])
    return results


def load_reference():
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def update_reference(args, results):
    if args.seed != 1:
        die("--update-reference pins seed 1 only")
    ref = load_reference()
    table = ref.setdefault("smoke" if args.smoke else "full", {})
    for w, res in results.items():
        model_errors = [e for e in res["errors"]
                        if not e.startswith("outputs digest")]
        if res["outputs"] is None or model_errors:
            die(f"not pinning {w}: it failed its model checks")
        if len(res["outputs_seen"]) != 1:
            die(f"not pinning {w}: its repetitions disagree")
        table[w] = res["outputs"]
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    log(f"run.py: wrote {REFERENCE}")


def host_block(results):
    first = next((r["build"] for r in results.values() if r["build"]), {})
    head, dirty = git_state()
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": first.get("compiler"),
        "build_type": first.get("build_type"),
        "flags": first.get("flags"),
        "sanitizers": first.get("sanitizers"),
        "git_head": head,
        "git_dirty": dirty,
        "host_ok": nproc >= 4,
        "kernel_config": {w: r["config"] for w, r in results.items()},
    }


def benchmark_spec():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {BENCHMARK}: {e}")


def contract_line(spec, results, traced):
    """The last stdout line: BENCHMARK.json's end-to-end metrics, or with
    --trace 1 its per-layer metrics."""
    names = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for w, res in results.items():
        prefix = "" if len(results) == 1 else w + "."
        for m in names:
            if traced:
                value = (res["trace"] or {}).get("metrics", {}).get(m["name"])
            else:
                value = res["metrics"].get(m["name"], {}).get("value")
            if value is not None:
                metrics[prefix + m["name"]] = {"value": value,
                                               "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_results(path, args, results, traced):
    doc = {"host": host_block(results), "seed": args.seed,
           "smoke": args.smoke, "traced": traced, "workloads": results}
    if not doc["host"]["host_ok"]:
        log(f"run.py: WARNING: nproc {doc['host']['nproc']} < 4, results "
            "are marked host_ok: false")
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def self_check(args, workloads):
    """Runs the suite twice; every (workload, end-to-end metric) must
    compare `same` within BENCHMARK.json's bounds."""
    sets = []
    for i in (1, 2):
        log(f"run.py: self-check set {i} of 2")
        results = run_suite(args, workloads, traced=False)
        path = BUILD / f"self_check_{i}.json"
        sets.append(compare.load_set([write_results(path, args, results,
                                                    False)]))
    rows = compare.compare_sets(sets[0], sets[1], compare.bounds(BENCHMARK))
    compare.print_rows(rows)
    bad = [r for r in rows if r["verdict"] != "same"]
    print(json.dumps({"self_check": "fail" if bad else "pass",
                      "rows": len(rows), "not_same": len(bad)}))
    return 1 if bad else 0


def env_check(args, workloads):
    """Runs this script with and without TDSIM_WORKERS=2 TDSIM_CHUNKED=1
    exported; every digest must be identical, the counts digest too, since
    a leaked knob would change the counters before any date."""
    digests = []
    for label, extra in (("clean", {}),
                         ("knobs", {"TDSIM_WORKERS": "2",
                                    "TDSIM_CHUNKED": "1"})):
        out = BUILD / f"env_check_{label}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--seed",
               str(args.seed), "--reps", "1", "--out", str(out),
               "--workload", *workloads]
        if args.smoke:
            cmd.append("--smoke")
        env = scrubbed_env()
        env.update(extra)
        log(f"run.py: env-check, {label} run")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0 or not out.exists():
            die(f"env-check {label} run failed:\n{proc.stderr[-2000:]}", 1)
        doc = json.loads(out.read_text())
        digests.append({w: (r["outputs"], r["counts"])
                        for w, r in doc["workloads"].items()})
    same = (digests[0] == digests[1] and
            all(None not in d for d in digests[0].values()))
    for w in workloads:
        log(f"   {w:<24} clean {digests[0].get(w)}  knobs "
            f"{digests[1].get(w)}")
    print(json.dumps({"env_check": "pass" if same else "fail"}))
    return 0 if same else 1


def main():
    spec = benchmark_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", nargs="+", choices=workload_names,
                   default=workload_names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0,
                   help="measure each workload for this long (>= 3 reps)")
    p.add_argument("--reps", type=int, default=0,
                   help="measured reps per workload (default 5, smoke 2)")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                   choices=[0, 1], help="add one traced rep per workload")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--env-check", action="store_true")
    p.add_argument("--update-reference", action="store_true")
    p.add_argument("--out", default=str(BUILD / "results.json"))
    p.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    build(args.jobs)
    workloads = args.workload
    if args.self_check:
        return self_check(args, workloads)
    if args.env_check:
        return env_check(args, workloads)

    traced = args.trace == 1
    results = run_suite(args, workloads, traced)
    write_results(args.out, args, results, traced)
    if args.update_reference:
        update_reference(args, results)
    line = contract_line(spec, results, traced)
    print(json.dumps(line))
    return 0 if line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
