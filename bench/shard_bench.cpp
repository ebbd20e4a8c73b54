// Reference-sharding bench: scatter-gather mapping vs the monolithic
// index (DESIGN.md §5g).
//
//   shard_bench [--quick] [--genome N] [--reads N] [--seed S]
//               [--delta D] [--jobs J] [--min-build-speedup X]
//               [--out BENCH_shard.json] [--trace out.json]
//
// Two sweeps over one multi-contig workload:
//
//   1. Shard count K in {1, 2, 4, 8}: build a K-shard index, map the
//      read set through the sharded scatter-gather path and compare
//      every mapping against the monolithic mapper — the run fails on
//      any divergence. Reports modeled throughput and the transfer
//      overlap ratio per K (shard restaging rides the same
//      double-buffered channels as read staging, so the ratio shows
//      what the extra image traffic costs).
//
//   2. Build parallelism: the 8-shard index built serially vs with
//      --jobs threads (shard index builds are independent). The last
//      stdout line is `shard_build_speedup: X.XXX`, the line
//      ci/check_bench.py gates on (the CI shard tier requires 1.5x at
//      --jobs 4); --min-build-speedup makes the bench itself fail
//      below the floor.
//
// Results land in --out as flat JSON. Reads are substitution-only so
// sharded/monolithic identity is exact (see the seed-plan caveat in
// DESIGN.md §5g).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/rixm.hpp"
#include "ocl/platform.hpp"

using namespace repute;

namespace {

constexpr std::size_t kContigs = 8;

/// Contigs of staggered lengths carved from one clean random text —
/// shard planning is contig-granular, so the fixture needs real cut
/// points for every K in the sweep.
genomics::MultiReference make_contigs(std::size_t total,
                                      std::uint64_t seed) {
    genomics::GenomeSimConfig config;
    config.length = total;
    config.seed = seed;
    config.interspersed_fraction = 0.0;
    config.tandem_fraction = 0.0;
    const std::string text =
        genomics::simulate_genome(config).sequence().to_string();
    std::vector<genomics::FastaRecord> records;
    std::size_t at = 0;
    for (std::size_t i = 0; i < kContigs; ++i) {
        const std::size_t unit = total / (kContigs + 1);
        const std::size_t want = i + 1 == kContigs
                                     ? text.size() - at
                                     : unit + (i % 3) * (unit / 4);
        records.push_back(
            {"chr" + std::to_string(i), text.substr(at, want)});
        at += want;
    }
    return genomics::MultiReference(records);
}

struct Trio {
    ocl::Device cpu;
    ocl::Device gpu0;
    ocl::Device gpu1;

    Trio()
        : cpu(ocl::profile_i7_2600()), gpu0(ocl::profile_gtx590(0)),
          gpu1(ocl::profile_gtx590(1)) {
        bench::apply_transfer_specs({&cpu, &gpu0, &gpu1});
    }

    std::vector<core::DeviceShare> shares() {
        return {{&cpu, 2.0}, {&gpu0, 1.0}, {&gpu1, 1.0}};
    }
};

bool identical(const core::MapResult& a, const core::MapResult& b) {
    return a.per_read == b.per_read;
}

struct SweepPoint {
    std::uint32_t shards = 0;
    double build_seconds = 0.0; // serial (--jobs 1)
    double mapping_seconds = 0.0;
    double reads_per_second = 0.0;
    double overlap_ratio = 0.0;
    std::uint64_t max_estimated_bytes = 0;
    bool identical = false;
};

void remove_build(const index::ShardBuildResult& built) {
    for (const std::string& p : built.shard_paths)
        std::remove(p.c_str());
    std::remove(built.manifest_path.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const bench::ScopedTrace trace(args);
    bench::WorkloadConfig config = bench::parse_workload_config(args);
    config.genome_length =
        std::min<std::size_t>(config.genome_length, 3'000'000);
    config.n_reads = std::min<std::size_t>(config.n_reads, 2'000);
    const auto delta =
        static_cast<std::uint32_t>(args.get_int("delta", 4));
    const auto jobs =
        static_cast<std::uint32_t>(args.get_int("jobs", 4));
    const double min_build_speedup =
        args.get_double("min-build-speedup", 0.0);
    const std::string out_path =
        args.get_string("out", "BENCH_shard.json");

    std::printf("shard_bench: %zu bp in %zu contigs, %zu reads, "
                "delta %u\n",
                config.genome_length, kContigs, config.n_reads, delta);
    const auto multi = make_contigs(config.genome_length, config.seed);

    genomics::ReadSimConfig read_config;
    read_config.n_reads = config.n_reads;
    read_config.read_length = 100;
    read_config.max_errors = 4;
    read_config.indel_fraction = 0.0; // see the file comment
    read_config.seed = config.seed + 1;
    const auto sim =
        genomics::simulate_reads(multi.concatenated(), read_config);

    std::printf("building monolithic index...\n");
    const index::FmIndex fm(multi.concatenated(), 4);
    Trio mono_trio;
    auto mono = core::make_repute(multi.concatenated(), fm,
                                  mono_trio.shares());
    const auto mono_result = mono->map(sim.batch, delta);
    const double mono_reads_per_s =
        static_cast<double>(sim.batch.size()) /
        mono_result.mapping_seconds;
    std::printf("monolithic        map %8.3f s  %10.0f reads/s  "
                "overlap %.2f\n",
                mono_result.mapping_seconds, mono_reads_per_s,
                mono_result.transfer_overlap_ratio());

    // Sweep 1: shard count, serial builds (the jobs sweep below reuses
    // the K=8 serial time as its baseline).
    const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
    std::vector<SweepPoint> sweep;
    bool all_identical = true;
    double serial8_seconds = 0.0;
    for (const auto k : shard_counts) {
        index::ShardBuildConfig build;
        build.plan.shard_count = k;
        build.plan.overlap = 512;
        build.jobs = 1;
        const std::string manifest =
            out_path + ".k" + std::to_string(k) + ".rixm";
        const auto built =
            index::build_sharded_index(multi, manifest, build);
        const auto opened = index::ShardedIndex::open(manifest);

        Trio trio;
        auto sharded = core::make_repute(
            core::shard_views_of(opened), trio.shares());
        const auto result = sharded->map(sim.batch, delta);

        SweepPoint point;
        point.shards = static_cast<std::uint32_t>(
            built.plan.shards.size());
        point.build_seconds = built.build_seconds;
        point.mapping_seconds = result.mapping_seconds;
        point.reads_per_second =
            static_cast<double>(sim.batch.size()) /
            result.mapping_seconds;
        point.overlap_ratio = result.transfer_overlap_ratio();
        point.max_estimated_bytes = built.plan.max_estimated_bytes;
        point.identical = identical(mono_result, result);
        sweep.push_back(point);
        all_identical = all_identical && point.identical;
        if (k == 8) serial8_seconds = built.build_seconds;

        std::printf("%2u shard(s)       map %8.3f s  %10.0f reads/s  "
                    "overlap %.2f  build %6.2f s  identical %s\n",
                    point.shards, point.mapping_seconds,
                    point.reads_per_second, point.overlap_ratio,
                    point.build_seconds,
                    point.identical ? "yes" : "NO");
        remove_build(built);
    }

    // Sweep 2: parallel shard builds of the 8-shard plan.
    std::vector<std::pair<std::uint32_t, double>> build_sweep = {
        {1, serial8_seconds}};
    for (const std::uint32_t j : {2u, jobs}) {
        if (j <= build_sweep.back().first) continue;
        index::ShardBuildConfig build;
        build.plan.shard_count = 8;
        build.plan.overlap = 512;
        build.jobs = j;
        const auto built = index::build_sharded_index(
            multi, out_path + ".jobs.rixm", build);
        build_sweep.emplace_back(j, built.build_seconds);
        std::printf("build --jobs %-2u   %8.2f s\n", j,
                    built.build_seconds);
        remove_build(built);
    }
    const double parallel_seconds = build_sweep.back().second;
    const double build_speedup =
        parallel_seconds > 0.0 ? serial8_seconds / parallel_seconds
                               : 0.0;

    if (std::FILE* f = std::fopen(out_path.c_str(), "wb")) {
        std::fprintf(f,
                     "{\n"
                     "  \"genome_bp\": %zu,\n"
                     "  \"contigs\": %zu,\n"
                     "  \"reads\": %zu,\n"
                     "  \"delta\": %u,\n"
                     "  \"overlap_bp\": 512,\n"
                     "  \"monolithic\": {\"mapping_seconds\": %.6f, "
                     "\"reads_per_second\": %.1f, "
                     "\"overlap_ratio\": %.4f},\n"
                     "  \"shard_sweep\": [\n",
                     config.genome_length, kContigs, sim.batch.size(),
                     delta, mono_result.mapping_seconds,
                     mono_reads_per_s,
                     mono_result.transfer_overlap_ratio());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const auto& p = sweep[i];
            std::fprintf(
                f,
                "    {\"shards\": %u, \"build_seconds\": %.6f, "
                "\"mapping_seconds\": %.6f, "
                "\"reads_per_second\": %.1f, "
                "\"overlap_ratio\": %.4f, "
                "\"max_estimated_bytes\": %llu, "
                "\"identical\": %s}%s\n",
                p.shards, p.build_seconds, p.mapping_seconds,
                p.reads_per_second, p.overlap_ratio,
                static_cast<unsigned long long>(p.max_estimated_bytes),
                p.identical ? "true" : "false",
                i + 1 == sweep.size() ? "" : ",");
        }
        std::fprintf(f, "  ],\n  \"build_jobs_sweep\": [\n");
        for (std::size_t i = 0; i < build_sweep.size(); ++i) {
            std::fprintf(f,
                         "    {\"jobs\": %u, \"build_seconds\": "
                         "%.6f}%s\n",
                         build_sweep[i].first, build_sweep[i].second,
                         i + 1 == build_sweep.size() ? "" : ",");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"shard_build_speedup\": %.3f,\n"
                     "  \"all_identical\": %s\n"
                     "}\n",
                     build_speedup, all_identical ? "true" : "false");
        std::fclose(f);
        std::printf("# wrote %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "shard_bench: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }

    if (!all_identical) {
        std::fprintf(stderr,
                     "shard_bench: FAIL — sharded mapping diverges "
                     "from monolithic\n");
        return 1;
    }
    if (min_build_speedup > 0.0 && build_speedup < min_build_speedup) {
        std::fprintf(stderr,
                     "shard_bench: FAIL — build speedup %.2fx below "
                     "required %.2fx at --jobs %u\n",
                     build_speedup, min_build_speedup, jobs);
        return 1;
    }
    // The line ci/check_bench.py run_shard_gate parses — keep last.
    std::printf("shard_build_speedup: %.3f\n", build_speedup);
    return 0;
}
