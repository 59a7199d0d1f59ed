#!/usr/bin/env python3
"""Perf gate for the vectorized executor (ci.yml perf-smoke job).

abl_exec_hotpath writes paired records named <case>/scalar and
<case>/vectorized into BENCH_exec.json. This script compares the
vectorized-to-scalar ns/op ratio per case between the merge base's run
and the PR head's run, and fails when any case's ratio worsened by more
than 10%. Comparing the within-run ratio rather than raw ns/op keeps the
gate robust to runner speed variance: both executors ran on the same
machine seconds apart, so the ratio cancels the machine out.

Records also carry peak_rss_kb — the process peak RSS sampled when the
case finished (a cumulative high-watermark across the run's cases).
Since base and head run the same case sequence on the same runner, the
per-case watermark is directly comparable between the two runs, and the
gate fails when any case's peak RSS grew by more than 15%.

When the optional parallel-bench files are given, the gate also checks
the scheduler skew ablation (abl_parallel_sessions --skew-only, DESIGN.md
Sec. 16): the parallel_skew/*/static over parallel_skew/*/intra
wall-clock speedup must not shrink by more than 10% between base and
head — the same within-run-ratio trick, so runner speed cancels out.
A missing base file, or one without /intra skew records, skips that
gate (the merge base may predate the skew section or its current
settings).

When a BENCH_pattern_head.json is given (the optional last argument),
the gate also checks the MATCH load-shedding ablation (abl_pattern_shed,
DESIGN.md §17): the utility drop policy's detected-match recall must
beat random shedding at two or more offered rates. This check is
absolute — both policies ran in the same process on the same feeds, so
no base run is involved — and skips gracefully when the file is absent
(the merge base may predate the pattern bench).

Usage: perf_smoke_gate.py BENCH_exec_base.json BENCH_exec_head.json \
           [BENCH_parallel_base.json BENCH_parallel_head.json] \
           [BENCH_pattern_head.json]
"""

import json
import os
import sys

REGRESSION_LIMIT = 0.10
RSS_REGRESSION_LIMIT = 0.15


def vectorized_ratios(path):
    """Maps case name -> vectorized ns/op divided by scalar ns/op."""
    with open(path) as f:
        records = {r["name"]: r["ns_per_op"] for r in json.load(f)}
    ratios = {}
    for name, ns_per_op in records.items():
        if not name.endswith("/vectorized"):
            continue
        case = name[: -len("/vectorized")]
        scalar = records.get(case + "/scalar")
        if scalar:
            ratios[case] = ns_per_op / scalar
    return ratios


def peak_rss(path):
    """Maps record name -> peak_rss_kb, for records that measured it."""
    with open(path) as f:
        return {
            r["name"]: r["peak_rss_kb"]
            for r in json.load(f)
            if r.get("peak_rss_kb", -1) > 0
        }


def skew_speedups(path):
    """Maps skew case name -> static ns/op divided by intra ns/op.

    The ratio is the intra-session morsel speedup over plain static
    placement for one skewed-tenant case; bigger is better, so the gate
    fails when it shrinks.
    """
    with open(path) as f:
        records = {r["name"]: r["ns_per_op"] for r in json.load(f)}
    speedups = {}
    for name, ns_per_op in records.items():
        if not (name.startswith("parallel_skew/")
                and name.endswith("/intra")):
            continue
        case = name[: -len("/intra")]
        static = records.get(case + "/static")
        if static:
            speedups[case] = static / ns_per_op
    return speedups


def gate_skew(base_path, head_path):
    """Returns skew cases whose intra speedup shrank > 10%."""
    if not os.path.exists(base_path) or not os.path.exists(head_path):
        print("parallel bench file(s) missing; skipping skew gate")
        return []
    base = skew_speedups(base_path)
    head = skew_speedups(head_path)
    if not base:
        print(
            "no parallel_skew/*/intra records in base run; "
            "skipping skew gate"
        )
        return []
    failed = []
    for case, head_speedup in sorted(head.items()):
        base_speedup = base.get(case)
        if base_speedup is None:
            print(
                f"{case}: new case, intra speedup "
                f"{head_speedup:.2f}x (no base)"
            )
            continue
        regression = (base_speedup - head_speedup) / base_speedup
        verdict = "ok"
        if regression > REGRESSION_LIMIT:
            verdict = "REGRESSED"
            failed.append(case)
        print(
            f"{case}: intra speedup base {base_speedup:.2f}x -> head "
            f"{head_speedup:.2f}x ({-regression:+.1%}) {verdict}"
        )
    return failed


def gate_peak_rss(base_path, head_path):
    """Returns the names of cases whose peak RSS regressed > 15%."""
    base = peak_rss(base_path)
    head = peak_rss(head_path)
    if not base:
        print("no peak_rss_kb in base run; skipping memory gate")
        return []
    failed = []
    for name, head_kb in sorted(head.items()):
        base_kb = base.get(name)
        if base_kb is None:
            print(f"{name}: new case, peak RSS {head_kb:.0f} KiB (no base)")
            continue
        regression = (head_kb - base_kb) / base_kb
        verdict = "ok"
        if regression > RSS_REGRESSION_LIMIT:
            verdict = "REGRESSED"
            failed.append(name)
        print(
            f"{name}: peak RSS base {base_kb:.0f} KiB -> head "
            f"{head_kb:.0f} KiB ({regression:+.1%}) {verdict}"
        )
    return failed


def gate_pattern(path):
    """Returns a failure marker unless utility recall beats random at
    two or more offered rates in the pattern-shedding ablation."""
    if not os.path.exists(path):
        print(f"{path} missing; skipping pattern gate")
        return []
    with open(path) as f:
        records = {r["name"]: r["recall"] for r in json.load(f)}
    wins = 0
    compared = 0
    for name, recall in sorted(records.items()):
        if not name.endswith("/utility"):
            continue
        case = name[: -len("/utility")]
        random_recall = records.get(case + "/random")
        if random_recall is None:
            continue
        compared += 1
        won = recall > random_recall
        wins += won
        print(
            f"{case}: recall utility {recall:.3f} vs random "
            f"{random_recall:.3f} {'ok' if won else 'lost'}"
        )
    if compared == 0:
        print("no utility/random record pairs; skipping pattern gate")
        return []
    if wins < 2:
        return [f"utility won {wins}/{compared} rate(s), need >= 2"]
    return []


def main(argv):
    if len(argv) not in (3, 4, 5, 6):
        print(__doc__, file=sys.stderr)
        return 2
    pattern_path = None
    if len(argv) in (4, 6):
        pattern_path = argv[-1]
        argv = argv[:-1]
    base = vectorized_ratios(argv[1])
    head = vectorized_ratios(argv[2])
    failed = []
    if not base:
        # Merge base predates the vectorized bench section: nothing to
        # gate against yet (the other gates still run).
        print("no <case>/vectorized records in base run; skipping gate")
        head = {}
    for case, head_ratio in sorted(head.items()):
        base_ratio = base.get(case)
        if base_ratio is None:
            print(f"{case}: new case, vec/scalar {head_ratio:.3f} (no base)")
            continue
        regression = (head_ratio - base_ratio) / base_ratio
        verdict = "ok"
        if regression > REGRESSION_LIMIT:
            verdict = "REGRESSED"
            failed.append(case)
        print(
            f"{case}: vec/scalar base {base_ratio:.3f} -> head "
            f"{head_ratio:.3f} ({regression:+.1%}) {verdict}"
        )
    rss_failed = gate_peak_rss(argv[1], argv[2])
    skew_failed = []
    if len(argv) == 5:
        skew_failed = gate_skew(argv[3], argv[4])
    pattern_failed = []
    if pattern_path is not None:
        pattern_failed = gate_pattern(pattern_path)
    if failed or rss_failed or skew_failed or pattern_failed:
        if failed:
            print(
                f"FAIL: {len(failed)} case(s) regressed more than "
                f"{REGRESSION_LIMIT:.0%} vs their scalar baseline: "
                + ", ".join(failed)
            )
        if rss_failed:
            print(
                f"FAIL: {len(rss_failed)} case(s) grew peak RSS more "
                f"than {RSS_REGRESSION_LIMIT:.0%}: " + ", ".join(rss_failed)
            )
        if skew_failed:
            print(
                f"FAIL: {len(skew_failed)} skew case(s) lost more than "
                f"{REGRESSION_LIMIT:.0%} of their intra speedup: "
                + ", ".join(skew_failed)
            )
        if pattern_failed:
            print(
                "FAIL: utility shedding did not beat random on MATCH "
                "recall: " + ", ".join(pattern_failed)
            )
        return 1
    print("perf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
