#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the micro_kernels google-benchmark binary with JSON output and
compares per-benchmark CPU time against the committed baseline
(BENCH_kernels.json). Fails (exit 1) if any benchmark present in both
runs is more than --tolerance percent slower than the baseline.

Being faster never fails; benchmarks that exist on only one side are
reported but do not fail the gate (renames and new benches land with a
baseline refresh, see --update-baseline).

The baseline is machine-specific and shared runners drift, so the
comparison removes common-mode noise before gating: times are taken as
the *minimum* over --repetitions runs (minimum is the stable statistic
for timing), and each benchmark's slowdown is divided by the geometric
mean slowdown of the whole suite. A machine that is uniformly 40%
slower today passes; one kernel regressing 25% relative to its peers
fails. Pass --no-normalize on dedicated, pinned hardware to gate on
raw times instead. The common-mode factor itself is printed so a
suite-wide regression (e.g. a dropped -O2) is still visible.

Transient load spikes are filtered by retrying: any benchmark over
tolerance is re-measured (up to --retries times, flagged benchmarks
only) and its time is the minimum across attempts. A spike does not
reproduce; a real regression does.

Besides the micro-kernel comparison, the gate runs the transfer-overlap
fixture (`pipeline_throughput --xfer`) and requires the double-buffered
pipeline to beat serialized staging by --xfer-min-speedup on modeled
mapping time (0 disables). The fixture prints modeled seconds, so the
ratio is deterministic — no normalization or retries needed.

The sharding fixture (`shard_bench`) has its own gate: sharded mapping
must stay identical to monolithic (the fixture's exit code) and the
parallel shard build must beat the serial one by
--shard-min-build-speedup (0 disables; the CI shard tier passes 1.5).
Build speedup is real wall clock, so the floor only binds on machines
with >= 2 CPUs — on a single-core runner it degrades to the identity
check and says so. --only-shard runs just this gate (the CI shard tier
uses it so the micro-kernel suite is not re-run).

Usage:
  ci/check_bench.py [--binary build/bench/micro_kernels]
                    [--baseline BENCH_kernels.json] [--tolerance 25]
                    [--min-time 0.01] [--repetitions 3] [--filter RE]
                    [--xfer-binary build/bench/pipeline_throughput]
                    [--xfer-min-speedup 1.15] [--update-baseline]
                    [--shard-binary build/bench/shard_bench]
                    [--shard-min-build-speedup 1.5] [--only-shard]
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

# Cross-benchmark acceptance ratios, gated on the same (min-over-
# repetitions) times as the regression check. Unlike the baseline
# comparison these are absolute criteria — both sides run in the same
# process on the same machine, so no normalization is needed. Each
# entry: the scalar benchmark, its lane-batched counterpart, the items
# the batched bench processes per iteration, and the minimum required
# per-item speedup.
RATIO_GATES = [
    ("BM_Verify_MyersBanded", "BM_Verify_MyersBandedBatched", 8.0, 2.0),
]


def run_benchmarks(binary, min_time, repetitions, bench_filter):
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout)


def cpu_times(report):
    """name -> minimum cpu_time in ns over all iteration entries."""
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        t = bench["cpu_time"] * scale
        name = bench["name"]
        times[name] = min(times.get(name, t), t)
    return times


def regressed(baseline, current, tolerance, normalize):
    """Returns ({name: delta_pct}, common_mode) for shared benchmarks."""
    ratios = {
        name: current[name] / baseline[name]
        for name in set(baseline) & set(current)
        if baseline[name] > 0
    }
    common_mode = 1.0
    if ratios and normalize:
        log_sum = sum(math.log(r) for r in ratios.values())
        common_mode = math.exp(log_sum / len(ratios))
    deltas = {
        name: (r / common_mode - 1.0) * 100.0 for name, r in ratios.items()
    }
    over = {n: d for n, d in deltas.items() if d > tolerance}
    return over, deltas, common_mode


def run_xfer_gate(binary, min_speedup):
    """Runs the transfer-overlap fixture; returns True when it passes.

    The fixture itself byte-compares the SAM outputs (its exit code
    covers correctness); this gate additionally requires the printed
    modeled-time speedup to clear the floor.
    """
    if not os.path.exists(binary):
        print(f"xfer gate: FAIL — {binary} not built")
        return False
    proc = subprocess.run([binary, "--xfer"], capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"xfer gate: FAIL — {binary} --xfer exited {proc.returncode}")
        return False
    match = re.search(r"^xfer_speedup:\s*([0-9.]+)", proc.stdout, re.M)
    if not match:
        print("xfer gate: FAIL — no xfer_speedup line in output")
        return False
    speedup = float(match.group(1))
    ok = speedup >= min_speedup
    print(
        f"xfer gate: double-buffered staging {speedup:.3f}x over "
        f"serialized (need >= {min_speedup:.2f}x)"
        f"{'' if ok else '  << BELOW CRITERION'}"
    )
    return ok


def run_shard_gate(binary, min_speedup, out_path):
    """Runs the sharding fixture; returns True when it passes.

    The fixture itself compares every sharded mapping against the
    monolithic mapper (its exit code covers identity); this gate
    additionally requires the printed parallel-build speedup to clear
    the floor. The speedup is real wall clock — on a single-core
    machine parallel shard builds cannot beat serial ones, so the
    floor is only enforced when the machine has >= 2 CPUs.
    """
    if not os.path.exists(binary):
        print(f"shard gate: FAIL — {binary} not built")
        return False
    proc = subprocess.run(
        [binary, "--out", out_path], capture_output=True, text=True
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"shard gate: FAIL — {binary} exited {proc.returncode}")
        return False
    match = re.search(
        r"^shard_build_speedup:\s*([0-9.]+)", proc.stdout, re.M
    )
    if not match:
        print("shard gate: FAIL — no shard_build_speedup line in output")
        return False
    speedup = float(match.group(1))
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            f"shard gate: single-core machine — parallel build speedup "
            f"{speedup:.3f}x not gated (sharded/monolithic identity "
            f"checks passed)"
        )
        return True
    ok = speedup >= min_speedup
    print(
        f"shard gate: parallel shard build {speedup:.3f}x over serial "
        f"(need >= {min_speedup:.2f}x on {cores} cpus)"
        f"{'' if ok else '  << BELOW CRITERION'}"
    )
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="build/bench/micro_kernels")
    parser.add_argument("--baseline", default="BENCH_kernels.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPUTE_BENCH_TOLERANCE", 25.0)),
        help="max allowed slowdown, percent (default 25, or "
        "$REPUTE_BENCH_TOLERANCE)",
    )
    parser.add_argument("--min-time", type=float, default=0.01)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--filter", default="")
    parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="gate on raw times instead of dividing out the "
        "suite-wide (common-mode) slowdown",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measure over-tolerance benchmarks this many times "
        "before declaring a regression (default 2)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the fresh run over --baseline instead of comparing",
    )
    parser.add_argument(
        "--xfer-binary",
        default="build/bench/pipeline_throughput",
        help="transfer-overlap fixture binary (run with --xfer)",
    )
    parser.add_argument(
        "--xfer-min-speedup",
        type=float,
        default=1.15,
        help="required double-buffered vs serialized staging speedup "
        "on the --xfer fixture (0 disables the gate)",
    )
    parser.add_argument(
        "--shard-binary",
        default="build/bench/shard_bench",
        help="reference-sharding fixture binary",
    )
    parser.add_argument(
        "--shard-min-build-speedup",
        type=float,
        default=0.0,
        help="required parallel-vs-serial shard build speedup on the "
        "sharding fixture (0 disables the gate; enforced only on "
        "machines with >= 2 CPUs)",
    )
    parser.add_argument(
        "--shard-out",
        default="BENCH_shard.json",
        help="where the sharding fixture writes its JSON report",
    )
    parser.add_argument(
        "--only-shard",
        action="store_true",
        help="run only the sharding gate (skip the micro-kernel "
        "comparison and the transfer-overlap gate)",
    )
    args = parser.parse_args()

    if args.only_shard:
        ok = run_shard_gate(
            args.shard_binary,
            args.shard_min_build_speedup,
            args.shard_out,
        )
        if not ok:
            print("\nFAIL: sharding gate below criterion")
            return 1
        print("\nOK: sharding gate passed")
        return 0

    report = run_benchmarks(
        args.binary, args.min_time, args.repetitions, args.filter
    )
    if args.update_baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    with open(args.baseline) as fh:
        baseline = cpu_times(json.load(fh))
    current = cpu_times(report)

    over, deltas, common_mode = regressed(
        baseline, current, args.tolerance, not args.no_normalize
    )
    for attempt in range(args.retries):
        if not over:
            break
        names = "|".join(re.escape(n) for n in sorted(over))
        print(
            f"retry {attempt + 1}: re-measuring {len(over)} "
            f"over-tolerance benchmark(s)"
        )
        retry = cpu_times(
            run_benchmarks(
                args.binary,
                args.min_time,
                args.repetitions,
                f"^({names})$",
            )
        )
        for name, t in retry.items():
            current[name] = min(current.get(name, t), t)
        over, deltas, common_mode = regressed(
            baseline, current, args.tolerance, not args.no_normalize
        )

    shared = sorted(set(baseline) & set(current))
    print(
        f"common-mode factor {common_mode:.3f}x over {len(deltas)} "
        f"benchmarks ({'divided out' if not args.no_normalize else 'raw gate'})"
    )
    regressions = sorted(over.items())
    print(f"{'benchmark':<40} {'base':>10} {'now':>10} {'delta':>8}")
    for name in shared:
        base, now = baseline[name], current[name]
        delta = deltas.get(name, 0.0)
        flag = "  << REGRESSION" if name in over else ""
        print(
            f"{name:<40} {base:>9.0f}n {now:>9.0f}n {delta:>+7.1f}%{flag}"
        )
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<40} (in baseline only — not compared)")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<40} (new — no baseline, not compared)")

    ratio_failures = []
    for scalar, batched, lanes, min_speedup in RATIO_GATES:
        if scalar not in current or batched not in current:
            continue
        speedup = current[scalar] / (current[batched] / lanes)
        ok = speedup >= min_speedup
        print(
            f"ratio gate: {batched} vs {scalar}: {speedup:.2f}x "
            f"per item (need >= {min_speedup:.1f}x)"
            f"{'' if ok else '  << BELOW CRITERION'}"
        )
        if not ok:
            ratio_failures.append(batched)

    xfer_ok = True
    if args.xfer_min_speedup > 0:
        xfer_ok = run_xfer_gate(args.xfer_binary, args.xfer_min_speedup)

    shard_ok = True
    if args.shard_min_build_speedup > 0:
        shard_ok = run_shard_gate(
            args.shard_binary,
            args.shard_min_build_speedup,
            args.shard_out,
        )

    if regressions or ratio_failures or not xfer_ok or not shard_ok:
        if regressions:
            print(
                f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
                f"than {args.tolerance:.0f}% vs {args.baseline}"
            )
        if ratio_failures:
            print(
                f"\nFAIL: {len(ratio_failures)} benchmark(s) below their "
                f"cross-benchmark speedup criterion"
            )
        if not xfer_ok:
            print("\nFAIL: transfer-overlap gate below criterion")
        if not shard_ok:
            print("\nFAIL: sharding gate below criterion")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.tolerance:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
