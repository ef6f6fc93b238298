#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see BENCHMARK.json).

Run from the repository root:

  python3 perfbench/run.py --workload ocean130-socket --seed 1 --seconds 32 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls only rebuild what
changed. The last stdout line is the result object.

--trace 0 splits the time over PROCESSES benchmark processes run one after
another and reports each end-to-end metric as the median over them. One
process's figures move with its memory layout by more than thousands of its
own runs vary, and a burst of load from outside moves only the process it
hits, so the median over processes is what steadies the metrics. A process
measured while the hypervisor took a large share of the VM's CPUs is run
again (see STEAL_MAX_PCT).
--trace 1 runs one process, which prints the per-layer metrics itself and
writes a Chrome trace-event file to .bench_build/traces/.

--selftest runs every workload at tiny sizes and checks the result format,
the metric names and units against BENCHMARK.json, the trace file, and that
a corrupted output is counted as failed.
"""
import argparse
import functools
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
PROCESSES = 8
# A process during which the hypervisor ran other guests on more than
# STEAL_MAX_PCT of this VM's CPU time is measured again, as long as the run
# still ends within REMEASURE_UNTIL times its --seconds. On a calm host steal
# stays below 1%; episodes of other tenants' load have slowed every run of a
# process six-fold for minutes at a time.
STEAL_MAX_PCT = 5.0
REMEASURE_UNTIL = 1.5
# Long enough for every process to time several tiny runs, so one corrupted
# run still leaves verified ones.
SELFTEST_SECONDS = 2.0
# Runnable by hand and covered by --selftest, but not in BENCHMARK.json:
# its medians move with memory-bandwidth load from other tenants of a
# shared host by more than the largest bound the benchmark may set.
UNLISTED_WORKLOADS = {
    "sort4m-socket": "Sample sort of 2^22 seeded uint64 keys: 3 supersteps, "
                     "a 25 MB h-relation, W ~95%, working set beyond the "
                     "caches. Control for L-only changes.",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


@functools.cache
def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def steal_s():
    """CPU time the hypervisor gave other guests, summed over this VM's
    CPUs (the "steal" column of /proc/stat); 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_bench(args, deadline):
    """Runs the built benchmark once; returns its stdout lines."""
    cmd = [str(BINARY)] + args
    with subprocess.Popen(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE) as p:
        try:
            out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))
    if p.returncode != 0:
        fail(f"exit {p.returncode}: " + " ".join(cmd))
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("no output: " + " ".join(cmd))
    return lines


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (record lines, result object)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    whys = {w["name"]: w["why"] for w in spec()["workloads"]}
    whys.update(UNLISTED_WORKLOADS)
    if workload not in whys:
        fail(f"unknown workload {workload!r}")
    records = [f"# why {whys[workload]}"]
    if trace:
        lines = run_bench(workload_args(workload, seed, seconds, 1) +
                          list(extra), deadline)
        return records + lines[:-1], json.loads(lines[-1])
    per_process = []
    attempted = failed = timed = 0
    start = time.monotonic()
    while len(per_process) < PROCESSES:
        steal0, t0 = steal_s(), time.monotonic()
        lines = run_bench(workload_args(workload, seed, seconds / PROCESSES, 0) +
                          list(extra), deadline)
        took = time.monotonic() - t0
        steal_pct = 100 * (steal_s() - steal0) / (took * (os.cpu_count() or 1))
        if len(records) == 1:
            records += lines[:-1]  # the host record, once
        raw = json.loads(lines[-1])
        # Every run counts, including those of a process measured again.
        attempted += raw["attempted"]
        failed += raw["failed"]
        runs = raw["samples"]["run_ms"]
        if not runs:
            fail(f"{workload}: no timed run passed verification")
        left = PROCESSES - len(per_process)
        if (steal_pct > STEAL_MAX_PCT and time.monotonic() - start +
                left * took <= REMEASURE_UNTIL * seconds):
            records.append(f"# hypervisor steal {steal_pct:.1f}% of the CPUs "
                           "during a process: measured again")
            continue
        timed += len(runs)
        per_process.append({
            "run_ms_p50": statistics.median(runs),
            "cpu_ms_per_run": statistics.median(raw["samples"]["cpu_ms"]),
            "setup_s": statistics.median(raw["samples"]["setup_s"]),
            "peak_rss_mb": raw["samples"]["peak_rss_mb"],
        })
    metrics = {name: (statistics.median(p[name] for p in per_process), unit)
               for name, unit in (("run_ms_p50", "ms"), ("cpu_ms_per_run", "ms"),
                                  ("setup_s", "s"), ("peak_rss_mb", "MB"))}
    metrics["pass_ratio"] = (1.0 - failed / attempted, "ratio")
    records.append(f"# {timed} timed runs in {PROCESSES} processes; "
                   f"{attempted} runs attempted, {failed} failed")
    return records, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-sha", git_sha()]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    return args


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_result(res, expected):
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(res)}")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          "attempted must be a whole number >= 1")
    check(isinstance(res["failed"], int), "failed must be a whole number")
    metrics = res["metrics"]
    check(set(metrics) == set(expected),
          f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(expected)}")
    for name, m in metrics.items():
        check(set(m) == {"value", "unit"}, f"{name}: keys {sorted(m)}")
        check(m["unit"] == expected[name],
              f"{name}: unit {m['unit']!r} != {expected[name]!r}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{name}: value {m['value']!r}")


def selftest():
    bench = spec()
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in [w["name"] for w in bench["workloads"]] + list(UNLISTED_WORKLOADS):
        for trace in (0, 1):
            _, res = measure(name, 1, SELFTEST_SECONDS, trace, ["--tiny"])
            check_result(res, units[trace])
            check(res["correct"] and res["failed"] == 0,
                  f"{name} trace={trace}: verification failed")
            if trace:
                m = res["metrics"]
                wire = m["exchange.wire_syscalls"]["value"]
                check((wire == 0) == name.endswith("-deferred"),
                      f"{name}: wire_syscalls {wire}")
                events = json.loads(
                    (TRACES / f"{name}-seed1.json").read_text())["traceEvents"]
                seen = {e["name"] for e in events}
                for span in ("setup", "setup.inputs", "setup.runtime",
                             "setup.first_run", "run", "verify", "sync"):
                    check(span in seen, f"{name}: no '{span}' span in trace")
        # One deliberately corrupted output must be counted, never hidden.
        for trace in (0, 1):
            _, res = measure(name, 1, SELFTEST_SECONDS, trace,
                             ["--tiny", "--corrupt-run", "0"])
            check_result(res, units[trace])
            # Every process corrupts its first timed run, and a process
            # measured again adds its failure too.
            want = 1 if trace else PROCESSES
            check(not res["correct"] and res["failed"] >= want,
                  f"{name}: corrupted output not counted: {res}")
            ratio = res["failed"] / res["attempted"]
            m = res["metrics"]
            got = (m["verify.fail_ratio"]["value"] if trace
                   else 1.0 - m["pass_ratio"]["value"])
            check(abs(got - ratio) < 1e-12,
                  f"{name}: fail ratio {got} != {ratio}")
        print(f"selftest {name}: ok", file=sys.stderr)
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        try:
            selftest()
        except (AssertionError, ValueError, OSError) as e:
            fail(f"selftest failed: {e}")
        return 0
    if not a.workload:
        fail("--workload is required")
    records, res = measure(a.workload, a.seed, a.seconds, a.trace)
    for line in records:
        print(line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
