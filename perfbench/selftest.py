#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the shortest length (--seconds 1), untraced and
traced, and checks that:
  * each run exits 0 and reports correct outputs;
  * the result line holds exactly the end-to-end metrics of
    BENCHMARK.json (untraced) or its per-layer metrics (traced), each
    with the unit BENCHMARK.json gives;
  * the report prints every end-to-end figure that applies to the
    workload, with a unit and a sample count;
  * figures in virtual time repeat exactly across the two runs of a
    seed;
  * kv-storm reproduces the library's own chaos soak (--reference);
  * the traced per-layer self times add up to the traced wall time;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5

# The figures each workload's report must print, beyond the result line.
FIGURES = {
    "paxos-steady": ["failed_frac", "commit_ms_p50", "commit_ms_p99"],
    "kv-storm": ["failed_frac", "read_ms_p99", "write_ms_p99"],
    "predict": ["failed_frac", "steer_ms_p50", "steer_ms_p99", "decide_ms_p50",
                "decide_ms_p99", "worlds_per_s"],
}

REPORT_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+)\s+(\S+)\s+n=(\d+)$")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s --trace %d exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("%s --trace %d: outputs incorrect" % (workload, trace))
    report = {}
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            report[m.group(1)] = (m.group(2), m.group(3), int(m.group(4)))
    return lines, result, report


def check_metrics(workload, result, specs):
    got = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if set(got) != set(want):
        fail("%s: result metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (workload, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %s, BENCHMARK.json says %s"
                 % (workload, name, got[name]["unit"], unit))


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
        fail("the benchmark did not fail in a directory without the system's sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(FIGURES):
        fail("BENCHMARK.json workloads %s, expected %s" % (names, sorted(FIGURES)))
    for workload in names:
        extra = ["--reference"] if workload == "kv-storm" else []
        lines0, result0, report0 = run(workload, 0, extra)
        check_metrics(workload, result0, bench["end_to_end"])
        for name in [s["name"] for s in bench["end_to_end"]] + FIGURES[workload]:
            if name not in report0:
                fail("%s: report does not print %s with unit and sample count" % (workload, name))
        if workload == "kv-storm" and "reference soak: matches" not in lines0:
            fail("kv-storm does not reproduce the library's chaos soak")
        lines1, result1, report1 = run(workload, 1)
        check_metrics(workload, result1, bench["per_layer"])
        for name, (value, unit, n) in report0.items():
            if "virtual" in unit and report1.get(name) != (value, unit, n):
                fail("%s: %s differs between two runs of seed %d" % (workload, name, SEED))
        metrics = result1["metrics"]
        if abs(metrics["trace.unaccounted"]["value"]) > 0.01:
            fail("%s: self times leave %.2f%% of the traced wall time unaccounted"
                 % (workload, 100 * metrics["trace.unaccounted"]["value"]))
        print("selftest: %s ok (tracing overhead %+.1f%%)"
              % (workload, 100 * metrics["trace.overhead"]["value"]))
    check_bare_directory()
    print("selftest: bare directory fails as it should")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
