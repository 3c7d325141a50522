#!/usr/bin/env python3
"""Compare two bench_micro JSON files and fail on kernel regressions.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.20]
                     [--calibrate BM_Orient2dFiltered] [--all]

Compares real_time of every benchmark present in BOTH files and exits
non-zero if any gated kernel regressed by more than --threshold (fractional;
0.20 = 20%). By default only the visibility, snapshot, round-step,
Compute-stage and verify kernels are gated -- the ones the in-run
parallelism, SIMD and planner work optimize and CI protects:

    BM_VisibleFrom/*  BM_VisibleFromSoA/*  BM_ComputeVisibility/*
    BM_SsyncRoundStep/*  BM_IncrementalRound/*  BM_BuildKeys/*
    BM_HullCull/*  BM_FillSnapshot/*  BM_ConvexHullView/*  BM_BuildView/*
    BM_AsyncArbitration/*  BM_PlanExits/*  BM_VerifySuccess/*

Pass --all to gate every shared benchmark instead.

A gated benchmark that the baseline lists but the current run lacks also
fails (exit 1): renaming or deleting a gated kernel must come with a
re-recorded baseline, or its gate would silently disappear. Benchmarks
only one side lists are otherwise reported and skipped.

--calibrate NAME divides every time by the named benchmark's time in its own
file before comparing, turning absolute times into multiples of a tiny
fixed-work probe (the filtered orient2d predicate by default lives in both
files). That cancels first-order host-speed differences, which is what makes
a committed baseline meaningful on heterogeneous CI runners. Calibration is
skipped (with a warning) if the probe is missing from either file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

GATED_PREFIXES = ("BM_VisibleFrom", "BM_ComputeVisibility/",
                  "BM_ComputeVisibility_", "BM_SsyncRoundStep/",
                  "BM_IncrementalRound/", "BM_BuildKeys/", "BM_HullCull/",
                  "BM_FillSnapshot/", "BM_ConvexHullView/", "BM_BuildView/",
                  "BM_AsyncArbitration/", "BM_PlanExits/",
                  "BM_VerifySuccess/")


def build_type_of(path):
    """The build type the file was recorded from.

    bench_micro stamps ``lumen_build_type`` into the context from its own
    NDEBUG setting; that is authoritative. ``library_build_type`` (written
    by the benchmark LIBRARY) is the fallback for old files — note distro
    packages of google-benchmark are often debug builds, which makes that
    key "debug" even for a fully optimized bench binary; the lumen key
    exists precisely to disambiguate.
    """
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    return ctx.get("lumen_build_type", ctx.get("library_build_type", "unknown"))


def load_times(path):
    """name -> real_time (ns), aggregate-free plain runs only.

    A benchmark run with --benchmark_repetitions lists one entry per
    repetition; its time is the minimum over them, the least host-disturbed
    reading.
    """
    with open(path) as f:
        data = json.load(f)
    times = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # Skip mean/median/stddev aggregates and complexity fits.
        name = entry["name"]
        if "/repeats:" in name:
            continue
        # Normalize to nanoseconds regardless of the per-benchmark unit.
        unit = entry.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        t = float(entry["real_time"]) * scale
        times[name] = min(t, times.get(name, t))
    return times


def is_gated(name, gate_all):
    if gate_all:
        return True
    return any(name.startswith(p) for p in GATED_PREFIXES)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max allowed fractional regression on gated "
                         "kernels (default 0.20)")
    ap.add_argument("--calibrate", metavar="NAME", default=None,
                    help="normalize both files by this benchmark's time "
                         "(e.g. BM_Orient2dFiltered) before comparing")
    ap.add_argument("--all", action="store_true",
                    help="gate every benchmark, not just the "
                         "GATED_PREFIXES kernels")
    ap.add_argument("--allow-non-release", action="store_true",
                    help="compare files recorded from non-Release builds "
                         "anyway (numbers are meaningless for gating)")
    args = ap.parse_args(argv)

    # Debug-build numbers gate nothing: a baseline recorded from a debug
    # build makes every Release run look 5-10x faster and vice versa. Both
    # sides must be Release builds (the poisoned-baseline failure mode this
    # guard exists for was exactly that: a debug-recorded baseline committed
    # as the reference).
    if not args.allow_non_release:
        bad = [(p, bt) for p, bt in ((args.baseline, build_type_of(args.baseline)),
                                     (args.current, build_type_of(args.current)))
               if bt != "release"]
        if bad:
            for path, bt in bad:
                print(f"error: {path} was recorded from a '{bt}' build; "
                      f"gating requires Release-recorded numbers on both "
                      f"sides (--allow-non-release to compare anyway)",
                      file=sys.stderr)
            return 2

    base = load_times(args.baseline)
    cur = load_times(args.current)

    base_scale = cur_scale = 1.0
    if args.calibrate:
        if args.calibrate in base and args.calibrate in cur:
            base_scale = base[args.calibrate]
            cur_scale = cur[args.calibrate]
            print(f"calibrating by {args.calibrate}: baseline "
                  f"{base_scale:.3g} ns, current {cur_scale:.3g} ns")
        else:
            print(f"warning: --calibrate {args.calibrate} missing from one "
                  f"side; comparing raw times", file=sys.stderr)

    shared = sorted(set(base) & set(cur))
    if not shared:
        print("error: no shared benchmarks between the two files",
              file=sys.stderr)
        return 2
    # Benchmarks present in only one file are expected across revisions
    # (kernels get added and retired), but a gated one missing from the
    # current run fails: a rename would otherwise drop its gate unnoticed.
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    missing_gated = [n for n in only_base if is_gated(n, args.all)]
    only_base = [n for n in only_base if not is_gated(n, args.all)]
    if only_base:
        print(f"warning: {len(only_base)} benchmark(s) only in baseline, "
              f"skipped: {', '.join(only_base)}", file=sys.stderr)
    if only_cur:
        print(f"warning: {len(only_cur)} benchmark(s) only in current, "
              f"skipped: {', '.join(only_cur)}", file=sys.stderr)

    failures = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name in shared:
        b = base[name] / base_scale
        c = cur[name] / cur_scale
        ratio = c / b if b > 0 else float("inf")
        gated = is_gated(name, args.all)
        flag = ""
        if gated and ratio > 1.0 + args.threshold:
            failures.append((name, ratio))
            flag = "  << REGRESSION"
        elif gated:
            flag = "  (gated)"
        print(f"{name:<44} {b:>12.4g} {c:>12.4g} {ratio:>8.3f}{flag}")

    # Per-family roll-up: geometric mean of the before/after ratios of every
    # size in the family (the name up to the first '/'), so a sweep like
    # BM_VisibleFromSoA/{256,4096,65536} reads as one number and a
    # regression confined to a single size still stands out above.
    families = {}
    for name in shared:
        fam = name.split("/")[0]
        b = base[name] / base_scale
        c = cur[name] / cur_scale
        if b > 0 and c > 0:
            families.setdefault(fam, []).append(c / b)
    print(f"\n{'family':<44} {'n':>3} {'geomean ratio':>14}")
    for fam in sorted(families):
        ratios = families[fam]
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"{fam:<44} {len(ratios):>3} {geo:>14.3f}")

    if missing_gated:
        print(f"\nFAIL: {len(missing_gated)} gated benchmark(s) in the "
              f"baseline are missing from the current run (renamed or "
              f"deleted? re-record the baseline):", file=sys.stderr)
        for name in missing_gated:
            print(f"  {name}", file=sys.stderr)
    if failures:
        print(f"\nFAIL: {len(failures)} gated kernel(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x baseline", file=sys.stderr)
    if missing_gated or failures:
        return 1
    print(f"\nOK: no gated kernel regressed more than {args.threshold:.0%} "
          f"({len(shared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
