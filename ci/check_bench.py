#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the micro_kernels google-benchmark binary of this change (--binary)
and of the commit it is based on (--reference-binary, built from a
scratch checkout of the merge-base by `ci.sh bench`) in the same
run, and fails (exit 1) if any benchmark present in both is more
than --tolerance percent slower.

The two binaries run alternately, --pairs times each, so both see the
same host load. Each adjacent (reference, change) pair gives one
CPU-time ratio per benchmark, and a benchmark's verdict is the median
of its per-pair ratios. A slowdown from other tenants lands on both
halves of a pair and cancels in the ratio, whatever factor it slows
that benchmark by; a real regression shifts every pair. The order
within a pair flips every pair (A B, B A, A B, ...), so each binary runs
first in half of them: an effect of running order (a cache the first
run warms, clock decay over the run) pushes half the ratios up and half
down instead of shifting the median.

Benchmarks over tolerance are re-measured with --pairs more alternating
pairs (up to --retries times, flagged benchmarks only), and the verdict
is the median over all of their pairs: more samples of the same
statistic, not a second chance at a minimum.

Being faster never fails. A benchmark on only one side (new or deleted
in this change) is not compared; new ones are listed.

BENCH_kernels.json is the committed trajectory of absolute times on the
reference host. It is not the gate's reference; --update-baseline
rewrites it from a fresh run of --binary.

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
  ci/check_bench.py --reference-binary BASE/build/bench/micro_kernels
                    [--binary build/bench/micro_kernels] [--tolerance 25]
                    [--min-time 0.01] [--pairs 8] [--filter RE]
                    [--xfer-binary build/bench/pipeline_throughput]
                    [--xfer-min-speedup 1.15]
                    [--update-baseline [--baseline BENCH_kernels.json]]
                    [--shard-binary build/bench/shard_bench]
                    [--shard-min-build-speedup 1.5] [--only-shard]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# Cross-benchmark acceptance ratios, gated on this change's times (the
# minimum over its runs). These are absolute criteria — both sides run
# in the same process on the same machine. Each entry: the scalar
# benchmark, its lane-batched counterpart, the items the batched bench
# processes per iteration, and the minimum required per-item speedup.
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


def measure_pairs(reference, binary, pairs, min_time, bench_filter,
                  ratios, current):
    """Runs `pairs` (reference, change) suite-run pairs, order flipped
    every pair (reference first in pairs 0, 2, ...; change first in 1,
    3, ...).

    Appends each shared benchmark's per-pair CPU-time ratio
    (change / reference) to `ratios[name]` and keeps the change's
    fastest time per benchmark in `current`. The flip restarts at every
    call, so an even `pairs` splits each call's pairs evenly.
    """

    def run(bin_path):
        return cpu_times(run_benchmarks(bin_path, min_time, 1, bench_filter))

    for i in range(pairs):
        if i % 2 == 0:
            base = run(reference)
            now = run(binary)
        else:
            now = run(binary)
            base = run(reference)
        for name, t in now.items():
            current[name] = min(current.get(name, t), t)
            if base.get(name, 0) > 0:
                ratios.setdefault(name, []).append(t / base[name])


def regressed(ratios, tolerance):
    """Returns ({name: delta_pct} over tolerance, {name: delta_pct})."""
    deltas = {
        name: (statistics.median(r) - 1.0) * 100.0
        for name, r in ratios.items()
    }
    over = {n: d for n, d in deltas.items() if d > tolerance}
    return over, deltas


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
    parser.add_argument(
        "--reference-binary",
        help="micro_kernels built from the merge-base; required unless "
        "--update-baseline or --only-shard",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_kernels.json",
        help="trajectory file --update-baseline writes",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPUTE_BENCH_TOLERANCE", 25.0)),
        help="max allowed slowdown, percent (default 25, or "
        "$REPUTE_BENCH_TOLERANCE)",
    )
    parser.add_argument("--min-time", type=float, default=0.01)
    parser.add_argument(
        "--pairs",
        type=int,
        default=8,
        help="(reference, change) suite-run pairs, order flipped every "
        "pair, so keep it even (default 8)",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=5,
        help="repetitions recorded by --update-baseline (default 5)",
    )
    parser.add_argument("--filter", default="")
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measure over-tolerance benchmarks with --pairs more "
        "pairs this many times before declaring a regression "
        "(default 2)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write a fresh run of --binary over --baseline instead of "
        "comparing",
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

    if args.update_baseline:
        report = run_benchmarks(
            args.binary, args.min_time, args.repetitions, args.filter
        )
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.reference_binary or not os.path.exists(
        args.reference_binary
    ):
        raise SystemExit(
            "--reference-binary must name the merge-base's micro_kernels "
            "(ci.sh bench builds it)"
        )
    ratios, current = {}, {}
    measure_pairs(
        args.reference_binary,
        args.binary,
        args.pairs,
        args.min_time,
        args.filter,
        ratios,
        current,
    )
    over, deltas = regressed(ratios, args.tolerance)
    for attempt in range(args.retries):
        if not over:
            break
        names = "|".join(re.escape(n) for n in sorted(over))
        print(
            f"retry {attempt + 1}: {args.pairs} more pairs for "
            f"{len(over)} over-tolerance benchmark(s)"
        )
        measure_pairs(
            args.reference_binary,
            args.binary,
            args.pairs,
            args.min_time,
            f"^({names})$",
            ratios,
            current,
        )
        over, deltas = regressed(ratios, args.tolerance)

    print(
        f"median per-pair CPU-time ratio, change vs "
        f"{args.reference_binary}, over >= {args.pairs} alternating pairs"
    )
    print(f"{'benchmark':<40} {'pairs':>5} {'now':>10} {'delta':>8}")
    for name in sorted(deltas):
        flag = "  << REGRESSION" if name in over else ""
        print(
            f"{name:<40} {len(ratios[name]):>5} {current[name]:>9.0f}n "
            f"{deltas[name]:>+7.1f}%{flag}"
        )
    for name in sorted(set(current) - set(deltas)):
        print(f"{name:<40} (new — not in the reference, not compared)")
    regressions = sorted(over.items())

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
                f"than {args.tolerance:.0f}% vs the reference binary"
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
