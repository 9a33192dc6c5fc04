#!/usr/bin/env python3
"""Compares two sets of benchmark records written by `run.py --out`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--same-outputs]

Compares like with like only: every record of both files must share the
provenance that decides host timings (compiler and version, build type,
flags, CPU model, nproc). On a mismatch the comparison is refused (exit 2).
The commit and source digest are reported, never required to match.

For each workload and end-to-end metric it prints the median of each side,
the change, and the base side's spread (quartile distance over median); a
median worse than the base by more than the metric's bound in
BENCHMARK.json is a REGRESSION, and a base spread wider than the bound
makes the metric UNRESOLVED instead of unchanged. Simulated-output digests
are compared per (workload, seed): a speed-only change must leave them
identical, which --same-outputs enforces.

Exit status: 0 no regression, 1 regression (or changed outputs under
--same-outputs), 2 refused or unreadable input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIKE_FOR_LIKE = ("compiler", "compiler_version", "build_type", "cxx_flags",
                 "cpu_model", "nproc")


def load(path):
    records = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise ValueError(f"{path}:{number}: {e}") from e
    if not records:
        raise ValueError(f"{path}: no records")
    return records


def provenance_mismatches(base, new):
    """Provenance keys whose values differ anywhere across both files."""
    mismatches = []
    for key in LIKE_FOR_LIKE:
        values = {str(r.get("provenance", {}).get(key)) for r in base + new}
        if len(values) > 1:
            mismatches.append(f"{key}: {' | '.join(sorted(values))}")
    return mismatches


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def compare(base, new, spec):
    regressions = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        side = {name: [r for r in records if r["workload"] == workload
                       and r.get("trace") == 0 and r.get("correct")]
                for name, records in (("base", base), ("new", new))}
        if not side["base"] or not side["new"]:
            continue
        print(f"{workload}: {len(side['base'])} base / {len(side['new'])} new runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["metrics"][name]["value"] for r in side["base"] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in side["new"] if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            worse = change if metric["better"] == "lower" else -change
            base_spread = spread(b)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif base_spread > bound:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            print(f"  {name:16s} base {mb:12.6g} new {mn:12.6g} {metric['unit']:6s} "
                  f"change {change:+8.2%} (bound {bound:.0%}, base spread "
                  f"{base_spread:.2%}) {verdict}")
    return regressions


def changed_outputs(base, new):
    digests = {}
    for name, records in (("base", base), ("new", new)):
        for r in records:
            digests.setdefault((r["workload"], r["seed"]), {}).setdefault(
                name, set()).add(r.get("digest"))
    changed = []
    for (workload, seed), sides in sorted(digests.items()):
        if "base" in sides and "new" in sides and sides["base"] != sides["new"]:
            changed.append(f"{workload} seed {seed}: simulated outputs changed "
                           f"({sorted(sides['base'])} -> {sorted(sides['new'])})")
    return changed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--same-outputs", action="store_true",
                        help="fail when any simulated-output digest changed")
    args = parser.parse_args()
    try:
        base, new = load(args.base), load(args.new)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    mismatches = provenance_mismatches(base, new)
    for m in mismatches:
        print(f"PROVENANCE MISMATCH {m}")
    if mismatches:
        print("refusing to compare unlike runs")
        return 2
    commits = sorted({r.get("provenance", {}).get("commit", "?") for r in base}) + \
        ["->"] + sorted({r.get("provenance", {}).get("commit", "?") for r in new})
    print("commits " + " ".join(commits))

    regressions = compare(base, new, spec)
    changed = changed_outputs(base, new)
    for line in changed:
        print(line)
    if regressions or (args.same_outputs and changed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
