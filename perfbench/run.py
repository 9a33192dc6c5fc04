#!/usr/bin/env python3
"""End-to-end benchmark of the cloudprov simulator.

Builds the benchmark driver (perfbench/CMakeLists.txt: the cloudprov library
from src/ plus perfbench/driver.cc) into .bench_build/perfbench, runs one
workload, checks its outputs, and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Usage, from the repository root:

    python3 perfbench/run.py --workload zipf-tiered --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed heldout --out results.jsonl

`--seed default` (1) is the seed the benchmark was tuned on; `--seed heldout`
(20111017) was never used while writing it, so a gain claimed on the default
seed can be re-checked there. `--out FILE` appends the full record (metrics,
simulated-output digest, sample counts, provenance) as one JSON line;
perfbench/compare.py compares two such files.

Exit status: 0 when every check passed; 1 when the build, a run or a check
failed (no result line is printed when the build fails); 2 on usage errors.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

DEFAULT_SEED = 1
HELD_OUT_SEED = 20111017
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seed(text):
    if text == "default":
        return DEFAULT_SEED
    if text == "heldout":
        return HELD_OUT_SEED
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def build():
    """Configures (first time) and builds the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(DRIVER)


def source_digest():
    """SHA-256 over the sources the driver is built from (the commit is not
    known when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout; source_digest identifies it
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(build_block):
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "compiler": build_block.get("compiler", "unknown"),
        "compiler_version": build_block.get("compiler_version", "unknown"),
        "build_type": build_block.get("build_type", "unknown"),
        "cxx_flags": build_block.get("cxx_flags", ""),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count() or 0,
    }


def run_driver(workload, seed, seconds, trace):
    """Runs one workload; returns (record or None, error text)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"driver exceeded {RUN_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None, f"driver printed nothing (exit {done.returncode})"
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"driver printed no record (exit {done.returncode})"
    if done.returncode != 0 and record.get("correct", False):
        record["correct"] = False
        record.setdefault("failures", []).append(f"driver exit {done.returncode}")
    return record, ""


def validate(record, expected):
    """Checks the record's metrics against BENCHMARK.json's list."""
    problems = []
    metrics = record.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
            continue
        if got.get("unit") != spec["unit"]:
            problems.append(f"metric {spec['name']} unit {got.get('unit')} "
                            f"!= {spec['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {spec['name']} is not a finite number")
        elif "bound" in spec and value <= 0:
            problems.append(f"end-to-end metric {spec['name']} is not > 0")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append("unexpected metrics: " + ", ".join(sorted(extra)))
    return problems


def run_one(workload, seed, seconds, trace, spec, out_path):
    record, error = run_driver(workload, seed, seconds, trace)
    if record is None:
        log(f"{workload}: {error}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    expected = spec["per_layer"] if trace == 1 else spec["end_to_end"]
    problems = record.get("failures", []) + validate(record, expected)
    correct = bool(record.get("correct")) and not problems
    record["correct"] = correct
    record["failures"] = problems
    record["provenance"] = provenance(record.get("build", {}))

    p = record["provenance"]
    print(f"# {workload} seed {seed} trace {trace}: {p['compiler']} "
          f"{p['compiler_version']} {p['build_type']}, {p['cpu_model']}, "
          f"nproc {p['nproc']}, commit {p['commit']}, "
          f"sources {p['source_digest']}")
    print(f"# simulated-output digest {record.get('digest')}, samples "
          + ", ".join(f"{k}={v}" for k, v in sorted(record.get("samples", {}).items())))
    for spec_metric in expected:
        m = record["metrics"].get(spec_metric["name"])
        if m is not None:
            print(f"{spec_metric['name']:32s} {m['value']:>18.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if out_path:
        with open(out_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in record["metrics"].items()}
    return {"correct": correct, "attempted": int(record.get("attempted", 1)),
            "failed": int(record.get("failed", 0)), "metrics": metrics}


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or 'all'" % ", ".join(names))
    parser.add_argument("--seed", default="default",
                        help="integer, 'default' (%d) or 'heldout' (%d)"
                             % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured host seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, one after the other)")
    parser.add_argument("--out", default="",
                        help="append full records (with provenance) here")
    args = parser.parse_args()
    try:
        seed = parse_seed(args.seed)
    except ValueError as e:
        parser.error(f"--seed: {e}")
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not seconds > 0:
        parser.error("--seconds must be > 0")
    if not build():
        return 1

    workloads = names if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for workload in workloads:
        for trace in traces:
            results.append((workload, run_one(workload, seed, seconds, trace,
                                              spec, args.out)))
    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{name}": m for w, r in results
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
