#!/usr/bin/env python3
"""Builds and runs the end-to-end StreamServer benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 e2ebench/run.py --smoke

Run from the root of a source checkout. The first call configures and
builds the benchmark (this directory's CMakeLists.txt, which compiles the
library from ../src) under $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.

--smoke is the benchmark's self-test: every workload of BENCHMARK.json at
tiny sizes, with and without tracing. It fails unless every run's output
matches its serial reference (the traced mirror's included) and every
metric named in BENCHMARK.json is printed, with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(ROOT, "src", "server",
                                       "stream_server.h")):
        fail("library sources not found under src/: run from a full "
             "source checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")
    return os.path.join(out, "e2e_bench")


def run_bench(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if smoke else None,
                          text=True, check=False)
    if smoke and proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, stdout = run_bench(binary, workload, 1, 1, trace,
                                     smoke=True)
            lines = stdout.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} outputs differ")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing was checked")
            printed = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, unexpected "
                                f"{extra}, wrong units {units}")
            print(f"{label}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, {len(printed)} metrics")
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print("smoke ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        fail("--workload is required")
    code, stdout = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
