#!/usr/bin/env python3
"""REPUTE end-to-end benchmark.

    python3 perfbench/run.py --workload se_cigar|pe_chr21 \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the perfbench driver from the
repository sources (into $CARGO_TARGET_DIR, default .bench_build),
generates the workload's inputs from --seed (cached under .bench_cache
by seed and generator hash), measures, checks every output, prints one
line per metric and then one JSON result line. With --trace 0 the
result holds the end-to-end metrics, with --trace 1 the per-layer ones
(from a separate traced run; a Chrome trace lands in .bench_cache/out).
Exits non-zero when the sources are missing, the build fails or an
output is wrong.

Workloads (shipped defaults: delta 5, s_min 14, cap 100, batch 4096,
queue depth 4, static schedule, device i7-2600, 4 map workers):
  se_cigar   20,000 single-end 100 bp reads, plain FASTQ, 4 Mbp reference
  pe_chr21   10,000 gzip 2x150 bp pairs, 40 Mbp reference
Each traced run also drives the daemon (2 handlers, 4 mappers) on the
workload's index with an open loop of 128-read single-end (of the
workload's read length) and 64-pair (2x150 bp) requests.
"""

import argparse
import gzip
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_cache")
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Fixed references, like the paper's single chr21: (bases, simulator seed).
# Reads vary with --seed.
REFERENCES = {"ref4m": (4_000_000, 4), "ref40m": (40_000_000, 21)}
BATCH = {
    "se_cigar": {"ref": "ref4m", "kind": "single", "n": 20000,
                 "length": 100, "gzip": False},
    "pe_chr21": {"ref": "ref40m", "kind": "paired", "n": 10000,
                 "length": 150, "gzip": True},
}
SERVE_SE_READS = 32 * 128  # 32 payloads of 128 single-end reads
SERVE_PE_PAIRS = 32 * 64   # 32 payloads of 64 pairs of 150 bp
# Simulated reads carry <= 5 edits; a mapper that reports fewer than
# this share of true origins is broken, however self-consistent.
RECALL_FLOOR = 0.80
# Every step after the build must end within this many seconds.
RUN_BUDGET_S = 170.0

# The metrics each mode reports, with their units (BENCHMARK.json lists
# the same names; test_contract.py keeps the two in step).
END_TO_END = {
    "reads_per_s": "reads/s", "setup_s": "s", "peak_rss_mb": "MB",
    "cpu_ms_per_kread": "ms/kread", "truth_recall": "fraction",
    "first_record_ms": "ms",
}
PIPELINE_METRICS = {
    "pipeline.writer_busy_s": ("writer_busy_s", "s"),
    "pipeline.map_busy_s": ("map_busy_s", "s"),
    "pipeline.writer_stall_s": ("writer_stall_s", "s"),
    "pipeline.map_stall_s": ("map_stall_s", "s"),
    "pipeline.units": ("units", "count"),
    "pipeline.max_in_flight": ("max_in_flight", "count"),
    "pipeline.reader_busy_s": ("reader_busy_s", "s"),
}
PER_LAYER = {
    **{name: unit for name, (_, unit) in PIPELINE_METRICS.items()},
    "core.cigar_s": "s", "core.cigar_calls": "count",
    "pipeline.render_s": "s", "pipeline.write_s": "s",
    "core.records_per_read": "records", "core.map_s": "s",
    "filter.seed_s": "s", "core.kernel_s": "s",
    "core.locate_verify_s": "s", "index.occ_words_per_read": "words",
    "filter.filtration_ops_per_read": "ops",
    "index.locate_ops_per_read": "ops", "align.verify_ops_per_read": "ops",
    "align.candidates_per_read": "count",
    "align.prefilter_reject_frac": "fraction",
    "align.accept_frac": "fraction", "align.simd_lane_occupancy": "fraction",
    "genomics.parse_s": "s", "serve.ttfb_ms": "ms", "serve.tail_ms": "ms",
    "ocl.xfer_bytes_staged_per_req": "bytes", "serve.sched_lag_ms": "ms",
    "ocl.modeled_s": "s", "trace.overhead_frac": "fraction",
    "trace.writer_coverage": "fraction",
}
_deadline = None


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def remaining():
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def checked(cmd, cwd=None):
    """Runs a driver step; returns its stdout, raises on failure."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        raise BenchError("failed (%d): %s" % (done.returncode, " ".join(cmd)))
    return done.stdout


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "pipeline",
                                        "mapping_api.hpp"))):
        raise BenchError("repository sources not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-6000:])
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


# ----------------------------------------------------------------- inputs

def sub_seed(seed, part):
    digest = hashlib.sha256(("%d:%d" % (seed, part)).encode()).digest()
    return int.from_bytes(digest[:7], "little")


def cached(path, make):
    """Creates directory `path` through make(tmpdir) unless it exists."""
    if os.path.isdir(path):
        return path
    tmp = "%s.tmp%d" % (path, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    make(tmp)
    if not os.path.isdir(path):
        os.rename(tmp, path)
    else:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def gzip_file(path):
    # mtime 0 keeps the compressed bytes identical across regenerations.
    with open(path, "rb") as src, open(path + ".gz", "wb") as dst:
        with gzip.GzipFile(filename="", mode="wb", fileobj=dst,
                           mtime=0) as gz:
            shutil.copyfileobj(src, gz)
    os.remove(path)


class Fixtures:
    def __init__(self, binary):
        with open(binary, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        self.binary = binary
        self.dir = os.path.join(CACHE, "fixtures", digest)

    def reference(self, name):
        length, seed = REFERENCES[name]
        path = cached(os.path.join(self.dir, name), lambda d: checked(
            [self.binary, "gen", "--kind", "ref", "--length", str(length),
             "--seed", str(seed), "--dir", d]))
        return os.path.join(path, "ref.rix")

    def reads(self, index, kind, n, length, seed, out, stem):
        cmd = [self.binary, "gen", "--kind", kind, "--index", index,
               "--n", str(n), "--read-length", str(length),
               "--seed", str(seed), "--truth",
               os.path.join(out, stem + ".truth")]
        if kind == "single":
            cmd += ["--fastq", os.path.join(out, stem + ".fq")]
        else:
            cmd += ["--fastq1", os.path.join(out, stem + "_1.fq"),
                    "--fastq2", os.path.join(out, stem + "_2.fq")]
        checked(cmd)

    def batch(self, workload, seed):
        spec = BATCH[workload]
        index = self.reference(spec["ref"])

        def make(d):
            self.reads(index, spec["kind"], spec["n"], spec["length"],
                       sub_seed(seed, 1), d, "reads")
            if spec["gzip"]:
                for mate in ("_1", "_2"):
                    gzip_file(os.path.join(d, "reads%s.fq" % mate))

        d = cached(os.path.join(self.dir, "%s-%d" % (workload, seed)), make)
        ext = ".fq.gz" if spec["gzip"] else ".fq"
        if spec["kind"] == "single":
            reads = [os.path.join(d, "reads" + ext)]
        else:
            reads = [os.path.join(d, "reads_1" + ext),
                     os.path.join(d, "reads_2" + ext)]
        return index, reads, os.path.join(d, "reads.truth")

    def daemon_pools(self, workload, seed):
        """Request payloads for the daemon, on the workload's reference."""
        spec = BATCH[workload]
        index = self.reference(spec["ref"])

        def make(d):
            self.reads(index, "single", SERVE_SE_READS, spec["length"],
                       sub_seed(seed, 2), d, "se")
            self.reads(index, "paired", SERVE_PE_PAIRS, 150,
                       sub_seed(seed, 3), d, "pe")

        return cached(os.path.join(self.dir, "daemon-%s-%d" %
                                   (workload, seed)), make)


# --------------------------------------------------------------- measuring

def read_args(reads):
    args = ["--reads", reads[0]]
    if len(reads) > 1:
        args += ["--reads2", reads[1]]
    return args


def run_json(cmd, out, cwd=None):
    text = checked(cmd + ["--out", out], cwd=cwd)
    with open(out) as fh:
        return json.load(fh), text


class Server:
    """A `perfbench serve` daemon."""

    def __init__(self, binary, index, sockdir):
        self.proc = subprocess.Popen(
            [binary, "serve", "--index", index, "--socket", "s.sock"],
            cwd=sockdir, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    min(60.0, remaining()))
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("ready "):
            self.kill()
            raise BenchError("daemon did not start")
        self.setup_s = float(line.split()[1])

    def stop(self):
        """SIGTERM, then wait for the drain."""
        self.proc.send_signal(signal.SIGTERM)
        limit = time.monotonic() + 30.0
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > min(limit, _deadline):
                self.kill()
                raise BenchError("daemon did not drain")
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError("daemon exited with %d" % self.proc.returncode)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_session(binary, index, pools, seed, seconds, out):
    """The open-loop load result against one `perfbench serve` daemon."""
    sockdir = os.path.join(CACHE, "run", str(os.getpid()))
    os.makedirs(sockdir, exist_ok=True)
    try:
        server = Server(binary, index, sockdir)
        try:
            load, _ = run_json(
                [binary, "load", "--index", index, "--socket", "s.sock",
                 "--se-reads", os.path.join(pools, "se.fq"),
                 "--pe-reads1", os.path.join(pools, "pe_1.fq"),
                 "--pe-reads2", os.path.join(pools, "pe_2.fq"),
                 "--seed", str(seed), "--seconds", str(seconds)],
                out, cwd=sockdir)
        except BaseException:
            server.kill()
            raise
        server.stop()
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)
    return load


def quantile_line(name, samples, q):
    """The line reporting an exact quantile of raw samples; a tail
    quantile with too few samples beyond it is named but not given."""
    label = "%s p%d" % (name, round(100 * q))
    if q > 0.5:
        beyond = stats.beyond(samples, q)
        if beyond < stats.MIN_TAIL_SAMPLES:
            return "%s: not reported (n=%d, %d beyond, fewer than %d)" % (
                label, len(samples), beyond, stats.MIN_TAIL_SAMPLES)
        return "%s = %.3f ms (n=%d, %d beyond)" % (
            label, stats.quantile(samples, q), len(samples), beyond)
    return "%s = %.3f ms (n=%d)" % (label, stats.quantile(samples, q),
                                    len(samples))


def batch_end_to_end(binary, fixtures, workload, seed, seconds):
    index, reads, truth = fixtures.batch(workload, seed)
    d, _ = run_json([binary, "batch", "--index", index] + read_args(reads) +
                    ["--truth", truth, "--seconds", str(seconds)],
                    os.path.join(CACHE, "out", "batch.json"))
    expected = BATCH[workload]["n"] * len(reads)
    recall = d["truth_recalled"] / d["truth_reads"]
    problems = []
    if recall < RECALL_FLOOR:
        problems.append("truth recall %.4f below %.2f" % (recall,
                                                          RECALL_FLOOR))
    if d["reference_reads"] != expected:
        problems.append("reference run read %d of %d reads" %
                        (d["reference_reads"], expected))
    runs = len(d["reads_per_s"])
    if not runs:
        raise BenchError("no measured run succeeded")
    values = {
        "reads_per_s": stats.median(d["reads_per_s"]),
        "setup_s": stats.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "cpu_ms_per_kread": 1e6 * d["cpu_s"] / d["reads_total"],
        "truth_recall": recall,
        "first_record_ms": stats.median(d["first_record_ms"]),
    }
    lines = ["reads_per_s: median of %d measured runs of %d reads" %
             (runs, expected),
             "setup_s: median of %d from_rix set-ups" % len(d["setup_s"]),
             "first_record_ms: median over the runs, from the map() call "
             "to the first SAM record",
             "failed_frac = %.6f (%d of %d runs)" %
             (d["failed"] / d["attempted"], d["failed"], d["attempted"])]
    return d["attempted"], d["failed"], problems, values, lines


# ---------------------------------------------------------------- tracing

def traced_layers(binary, workload, index, reads):
    """Per-layer values from `perfbench traced`, plus check problems."""
    trace_out = os.path.join(CACHE, "out", "trace_%s.json" % workload)
    t, table = run_json([binary, "traced", "--index", index] +
                        read_args(reads) +
                        ["--trace-out", trace_out],
                        os.path.join(CACHE, "out", "traced.json"))
    problems = []
    if t["traced_digest"] != t["untraced_digest"]:
        problems.append("traced pass SAM differs from MappingSession::map")
    writer_busy = t["traced_pipeline"]["writer_busy_s"]
    coverage = t["writer_span_s"] / writer_busy if writer_busy > 0 else 0.0
    if workload == "se_cigar" and not 0.9 <= coverage <= 1.05:
        problems.append("writer spans cover %.3f of writer busy time" %
                        coverage)
    values = {name: t["pipeline"][key]
              for name, (key, _) in PIPELINE_METRICS.items()}
    values.update({
        "core.cigar_s": t["cigar_s"],
        "core.cigar_calls": t["cigar_calls"],
        # Self time: the replayed renderer minus the CIGAR work inside it.
        "pipeline.render_s": t["render_replay_s"] - t["cigar_s"],
        "pipeline.write_s": t["write_s"],
        "core.records_per_read": t["records"] / t["reads_in"],
        "core.map_s": t["map_s"],
        "filter.seed_s": t["seed_s"],
        "core.kernel_s": t["kernel_s"],
        "core.locate_verify_s": t["kernel_s"] - t["seed_s"],
        "index.occ_words_per_read": t["occ_words_per_read"],
        "filter.filtration_ops_per_read": t["filtration_ops_per_read"],
        "index.locate_ops_per_read": t["locate_ops_per_read"],
        "align.verify_ops_per_read": t["verify_ops_per_read"],
        "align.candidates_per_read": t["candidates_per_read"],
        "align.prefilter_reject_frac": t["prefilter_reject_frac"],
        "align.accept_frac": t["accept_frac"],
        "align.simd_lane_occupancy": t["simd_lane_occupancy"],
        "genomics.parse_s": t["parse_s"],
        "ocl.modeled_s": t["modeled_s"],
        "trace.overhead_frac":
            1.0 - t["traced_reads_per_s"] / t["untraced_reads_per_s"],
        "trace.writer_coverage": coverage,
    })
    lines = ["traced pass: %.1f reads/s traced, %.1f untraced; replay of "
             "%d reads" % (t["traced_reads_per_s"], t["untraced_reads_per_s"],
                           t["replay_reads"]),
             "chrome trace: " + os.path.relpath(trace_out, ROOT)] + \
        ["  " + line for line in table.rstrip().splitlines()]
    return values, problems, lines


def batch_per_layer(binary, fixtures, workload, seed, seconds):
    index, reads, _ = fixtures.batch(workload, seed)
    values, problems, lines = traced_layers(binary, workload, index, reads)
    # The daemon layer, on the same index: an open loop of small requests.
    pools = fixtures.daemon_pools(workload, seed)
    load = serve_session(binary, index, pools, seed, seconds,
                         os.path.join(CACHE, "out", "load.json"))
    failed = len(problems) + int(load["failed"])
    if load["failed"]:
        problems.append("%d of %d daemon requests failed" %
                        (load["failed"], load["attempted"]))
    if not load["ttfb_ms"]:
        raise BenchError("no daemon request completed")
    values.update({
        "serve.ttfb_ms": stats.median(load["ttfb_ms"]),
        "serve.tail_ms": stats.median(load["tail_ms"]),
        "ocl.xfer_bytes_staged_per_req": load["xfer_bytes_staged_per_req"],
        "serve.sched_lag_ms": stats.median(load["sched_lag_ms"]),
    })
    lines += ["serve.*: medians over %d daemon requests at %.1f req/s "
              "(%d senders); largest schedule lag %.3f ms" %
              (load["attempted"], load["rate"], load["senders"],
               max(load["sched_lag_ms"])),
              "ocl.xfer_bytes_staged_per_req: over the %d single-end "
              "requests (the paired path does not report staged bytes)" %
              load["single_end_requests"]]
    lines += [quantile_line("serve.ttfb_ms", load["ttfb_ms"], q)
              for q in (0.5, 0.95)]
    return 2 + int(load["attempted"]), failed, problems, values, lines


# ------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    global _deadline
    try:
        binary = build()
        _deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(os.path.join(CACHE, "out"), exist_ok=True)
        fixtures = Fixtures(binary)
        if args.trace:
            result = batch_per_layer(binary, fixtures, args.workload,
                                     args.seed, args.seconds)
        else:
            result = batch_end_to_end(binary, fixtures, args.workload,
                                      args.seed, args.seconds)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 2
    attempted, failed, problems, values, lines = result
    units = PER_LAYER if args.trace else END_TO_END
    if set(values) != set(units):
        log("perfbench: reported metrics do not match the declared set")
        return 2
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for line in lines:
        print(line)
    for name, value in values.items():
        print("%-32s %.6g %s" % (name, value, units[name]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
