// Reference sharding: planner properties, merge semantics, and the
// headline identity — mapping through a sharded index is byte-identical
// to the monolithic index while per-device residency stays one shard
// image (the quarter-of-RAM OpenCL ceiling the sharding exists to
// bypass).
//
// Byte-identity fixtures are substitution-only reads over a clean random
// reference: index-frequency-dependent DP seed plans can pick different
// collapse representatives for indel clusters between a shard's local
// index and the monolithic one, which is a documented seed-plan caveat
// (DESIGN.md §5g), not a merge bug. Indel-bearing reads are held to the
// weaker equivalence that caveat allows (IndelReadsMapEquivalently...).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/repute_mapper.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/qgram_table.hpp"
#include "index/rixm.hpp"
#include "index/shard_plan.hpp"
#include "obs/trace.hpp"
#include "ocl/device.hpp"
#include "pipeline/mapping_api.hpp"

namespace repute {
namespace {

using core::DeviceShare;
using core::MapResult;
using core::ReadMapping;
using genomics::Strand;

genomics::Reference clean_genome(std::size_t length, std::uint64_t seed) {
    genomics::GenomeSimConfig config;
    config.length = length;
    config.seed = seed;
    config.interspersed_fraction = 0.0;
    config.tandem_fraction = 0.0;
    return genomics::simulate_genome(config);
}

/// `n` contigs of staggered lengths carved from one clean random text.
genomics::MultiReference contigs(std::size_t n, std::size_t total,
                                 std::uint64_t seed) {
    const std::string text =
        clean_genome(total, seed).sequence().to_string();
    std::vector<genomics::FastaRecord> records;
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Staggered sizes so the minmax planner has real choices; the
        // unit is total/(n+1), so the leftovers always leave the last
        // contig non-empty.
        const std::size_t unit = total / (n + 1);
        const std::size_t want =
            i + 1 == n ? text.size() - at : unit + (i % 3) * (unit / 4);
        records.push_back({"chr" + std::to_string(i),
                           text.substr(at, want)});
        at += want;
    }
    return genomics::MultiReference(records);
}

genomics::SimulatedReads clean_reads(const genomics::Reference& reference,
                                     std::size_t n, std::size_t length,
                                     std::uint32_t max_errors,
                                     std::uint64_t seed) {
    genomics::ReadSimConfig config;
    config.n_reads = n;
    config.read_length = length;
    config.max_errors = max_errors;
    config.indel_fraction = 0.0; // see the file comment
    config.seed = seed;
    return genomics::simulate_reads(reference, config);
}

ocl::DeviceProfile cpu_profile(const std::string& name,
                               std::uint64_t global_memory =
                                   1ULL << 30) {
    ocl::DeviceProfile p;
    p.name = name;
    p.compute_units = 4;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = global_memory;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

void expect_identical(const MapResult& a, const MapResult& b) {
    ASSERT_EQ(a.per_read.size(), b.per_read.size());
    for (std::size_t i = 0; i < a.per_read.size(); ++i) {
        ASSERT_EQ(a.per_read[i], b.per_read[i]) << "read " << i;
    }
}

// Paths must be unique per process: ctest runs every TEST of a suite as
// its own process, and suite-level fixtures (SetUpTestSuite) would
// otherwise build and delete the same shard files concurrently.
std::string temp_manifest_path(const std::string& tag) {
    return testing::TempDir() + "repute_shard_" + tag + "_" +
           std::to_string(::getpid()) + ".rixm";
}

void remove_sharded(const index::ShardBuildResult& built) {
    for (const std::string& p : built.shard_paths) std::remove(p.c_str());
    std::remove(built.manifest_path.c_str());
}

// ---------------------------------------------------------------------
// Planner

TEST(ShardPlan, ExplicitCountTilesTheReference) {
    const auto multi = contigs(6, 60'000, 17);
    index::ShardPlanConfig config;
    config.shard_count = 4;
    config.overlap = 128;
    const auto plan = index::plan_shards(multi, config);
    ASSERT_EQ(plan.shards.size(), 4u);

    std::uint32_t cursor = 0;
    std::uint32_t sequences = 0;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
        const auto& s = plan.shards[i];
        EXPECT_EQ(s.index, i);
        EXPECT_EQ(s.base, cursor) << "owned ranges must tile";
        EXPECT_GT(s.owned_length, 0u);
        EXPECT_EQ(s.left_overlap, i == 0 ? 0u : 128u);
        EXPECT_EQ(s.right_overlap,
                  i + 1 == plan.shards.size() ? 0u : 128u);
        cursor += s.owned_length;
        sequences += s.sequence_count;
    }
    EXPECT_EQ(cursor, multi.concatenated().size());
    EXPECT_EQ(sequences, multi.sequence_count());
    EXPECT_GT(plan.max_estimated_bytes, 0u);
}

TEST(ShardPlan, CountClampsToContigCount) {
    const auto multi = contigs(3, 12'000, 5);
    index::ShardPlanConfig config;
    config.shard_count = 10;
    const auto plan = index::plan_shards(multi, config);
    EXPECT_EQ(plan.shards.size(), 3u); // contigs are never split
}

TEST(ShardPlan, MinmaxBeatsNaiveContigSplit) {
    // One huge contig plus small ones: the minmax partition must not
    // lump a small contig in with the huge one when a cut exists.
    std::vector<genomics::FastaRecord> records;
    const std::string text = clean_genome(40'000, 9)
                                 .sequence()
                                 .to_string();
    records.push_back({"big", text.substr(0, 30'000)});
    records.push_back({"s1", text.substr(30'000, 5'000)});
    records.push_back({"s2", text.substr(35'000, 5'000)});
    index::ShardPlanConfig config;
    config.shard_count = 2;
    const auto plan =
        index::plan_shards(genomics::MultiReference(records), config);
    ASSERT_EQ(plan.shards.size(), 2u);
    EXPECT_EQ(plan.shards[0].sequence_count, 1u); // big alone
    EXPECT_EQ(plan.shards[1].sequence_count, 2u);
}

TEST(ShardPlan, BudgetPacksUnderTheBudget) {
    const auto multi = contigs(6, 60'000, 23);
    index::ShardPlanConfig config;
    // A budget around a third of the whole-reference estimate forces
    // several shards.
    config.budget_bytes =
        index::estimate_index_bytes(multi.concatenated().size(), 4, 128,
                                    8) /
        3;
    const auto plan = index::plan_shards(multi, config);
    EXPECT_GT(plan.shards.size(), 1u);
    EXPECT_LE(plan.max_estimated_bytes, config.budget_bytes);
}

TEST(ShardPlan, OversizedContigIsAnError) {
    const auto multi = contigs(3, 30'000, 31);
    index::ShardPlanConfig config;
    config.budget_bytes = 1024; // nothing fits
    try {
        index::plan_shards(multi, config);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("alone exceeds"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardPlan, NoCountAndNoBudgetIsAnError) {
    EXPECT_THROW(index::plan_shards(contigs(2, 8'000, 1), {}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Tail shards shorter than the q-gram depth

TEST(ShardQgram, TableDepthClampsToTinyTexts) {
    // A tail shard can own a contig shorter than the configured q: the
    // jump table must clamp (a table of patterns longer than the text is
    // all-empty footprint), never reject the build.
    const auto tiny = genomics::Reference::from_ascii("tiny", "ACGTAC");
    const index::FmIndex fm(tiny, 1, 128, /*qgram_length=*/8);
    if (fm.qgrams() != nullptr) {
        EXPECT_LE(fm.qgrams()->q(), tiny.size());
    }
    EXPECT_EQ(fm.size(), tiny.size());

    // And end to end: a plan whose last shard is a tiny contig builds
    // and opens.
    std::vector<genomics::FastaRecord> records;
    const std::string text =
        clean_genome(9'000, 3).sequence().to_string();
    records.push_back({"main", text.substr(0, 8'994)});
    records.push_back({"stub", text.substr(8'994)}); // 6 bp < q = 8
    index::ShardBuildConfig build;
    build.plan.shard_count = 2;
    build.plan.overlap = 64;
    const auto built = index::build_sharded_index(
        genomics::MultiReference(records),
        temp_manifest_path("tinytail"), build);
    const auto opened = index::ShardedIndex::open(built.manifest_path);
    ASSERT_EQ(opened.shards().size(), 2u);
    EXPECT_EQ(opened.shards()[1].owned_length, 6u);
    remove_sharded(built);
}

// ---------------------------------------------------------------------
// Merge semantics

std::vector<ReadMapping> mapping_list(
    std::initializer_list<std::pair<std::uint32_t, Strand>> items) {
    std::vector<ReadMapping> out;
    for (const auto& [pos, strand] : items) {
        out.push_back({pos, 0, strand});
    }
    return out;
}

std::vector<ReadMapping> merged(
    const std::vector<std::vector<ReadMapping>>& lists,
    std::uint32_t cap) {
    std::vector<std::span<const ReadMapping>> spans(lists.begin(),
                                                    lists.end());
    std::vector<ReadMapping> out;
    core::merge_sharded_read(spans, cap, out);
    return out;
}

TEST(ShardMerge, ConcatenatesStrandPhasesAcrossShards) {
    // Forward accepts of every shard come before any reverse accept —
    // the monolithic kernel's generation order.
    const auto out = merged(
        {mapping_list({{10, Strand::Forward}, {12, Strand::Reverse}}),
         mapping_list({{50, Strand::Forward}})},
        100);
    EXPECT_EQ(out, mapping_list({{10, Strand::Forward},
                                 {12, Strand::Reverse},
                                 {50, Strand::Forward}}));
}

TEST(ShardMerge, CapTruncatesInGenerationOrderNotPositionOrder) {
    // Cap 2 must keep the two earliest *generated* accepts (fwd shard 0,
    // fwd shard 1), dropping shard 0's reverse accept even though its
    // position sorts earlier.
    const auto out = merged(
        {mapping_list({{10, Strand::Forward}, {12, Strand::Reverse}}),
         mapping_list({{50, Strand::Forward}})},
        2);
    EXPECT_EQ(out, mapping_list(
                       {{10, Strand::Forward}, {50, Strand::Forward}}));
}

TEST(ShardMerge, DeduplicatesByPositionAndStrand) {
    const auto out = merged(
        {mapping_list({{10, Strand::Forward}}),
         mapping_list({{10, Strand::Forward}, {11, Strand::Forward}})},
        100);
    EXPECT_EQ(out, mapping_list(
                       {{10, Strand::Forward}, {11, Strand::Forward}}));
}

// ---------------------------------------------------------------------
// Sharded vs monolithic identity (core level)

class ShardIdentityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        multi_ = new genomics::MultiReference(contigs(6, 72'000, 42));
        fm_ = new index::FmIndex(multi_->concatenated(), 4);
        index::ShardBuildConfig build;
        build.plan.shard_count = 4;
        build.plan.overlap = 256; // >= read_length + delta below
        build.jobs = 2;
        built_ = new index::ShardBuildResult(index::build_sharded_index(
            *multi_, temp_manifest_path("identity"), build));
        sharded_ = new index::ShardedIndex(
            index::ShardedIndex::open(built_->manifest_path));
        sim_ = new genomics::SimulatedReads(
            clean_reads(multi_->concatenated(), 500, 100, 4, 7));
    }
    static void TearDownTestSuite() {
        delete sim_;
        delete sharded_;
        remove_sharded(*built_);
        delete built_;
        delete fm_;
        delete multi_;
        sim_ = nullptr;
        sharded_ = nullptr;
        built_ = nullptr;
        fm_ = nullptr;
        multi_ = nullptr;
    }

    static genomics::MultiReference* multi_;
    static index::FmIndex* fm_;
    static index::ShardBuildResult* built_;
    static index::ShardedIndex* sharded_;
    static genomics::SimulatedReads* sim_;
};

genomics::MultiReference* ShardIdentityTest::multi_ = nullptr;
index::FmIndex* ShardIdentityTest::fm_ = nullptr;
index::ShardBuildResult* ShardIdentityTest::built_ = nullptr;
index::ShardedIndex* ShardIdentityTest::sharded_ = nullptr;
genomics::SimulatedReads* ShardIdentityTest::sim_ = nullptr;

TEST_F(ShardIdentityTest, StaticScheduleMatchesMonolithic) {
    ocl::Device dev(cpu_profile("static-cpu"));
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&dev, 1.0}});
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&dev, 1.0}});
    expect_identical(mono->map(sim_->batch, 4),
                     sharded->map(sim_->batch, 4));
}

TEST_F(ShardIdentityTest, StaticMultiDeviceMatchesMonolithic) {
    ocl::Device a(cpu_profile("split-a"));
    ocl::Device b(cpu_profile("split-b"));
    ocl::Device mono_dev(cpu_profile("split-mono"));
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}});
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&a, 2.0}, {&b, 1.0}});
    expect_identical(mono->map(sim_->batch, 4),
                     sharded->map(sim_->batch, 4));
}

TEST_F(ShardIdentityTest, DynamicScheduleMatchesMonolithic) {
    ocl::Device mono_dev(cpu_profile("dyn-mono"));
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}});
    const auto expected = mono->map(sim_->batch, 4);

    ocl::Device a(cpu_profile("dyn-a"));
    ocl::Device b(cpu_profile("dyn-b"));
    ocl::Device c(cpu_profile("dyn-c"));
    core::HeterogeneousMapperConfig config;
    config.schedule = core::ScheduleMode::Dynamic;
    config.scheduler.chunk_items = 64;
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_),
        {{&a, 1.0}, {&b, 2.0}, {&c, 1.0}}, config);
    const auto result = sharded->map(sim_->batch, 4);
    expect_identical(expected, result);
    ASSERT_TRUE(result.used_dynamic_schedule());
    EXPECT_GT(result.schedule->chunks, 0u);
}

TEST_F(ShardIdentityTest, DynamicSurvivesMidBatchDeviceLoss) {
    ocl::Device mono_dev(cpu_profile("loss-mono"));
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}});
    const auto expected = mono->map(sim_->batch, 4);

    ocl::Device a(cpu_profile("loss-a"));
    ocl::Device b(cpu_profile("loss-b"));
    ocl::FaultPlan plan;
    plan.fail_on_launch = 2; // dies mid-run, after real work
    plan.fail_forever = true;
    b.inject_faults(plan);

    core::HeterogeneousMapperConfig config;
    config.schedule = core::ScheduleMode::Dynamic;
    config.scheduler.chunk_items = 50;
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&a, 1.0}, {&b, 1.0}},
        config);
    const auto result = sharded->map(sim_->batch, 4);
    expect_identical(expected, result);
    EXPECT_GT(b.fault_launches(), 0u);
}

TEST_F(ShardIdentityTest, CapBindingFirstNMatchesMonolithic) {
    // A cap smaller than the hit count makes the first-n truncation
    // point observable — the merge must reapply it exactly where the
    // monolithic kernel did.
    core::HeterogeneousMapperConfig config;
    config.kernel.max_locations_per_read = 2;
    ocl::Device mono_dev(cpu_profile("cap-mono"));
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}}, config);
    ocl::Device dev(cpu_profile("cap-sharded"));
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&dev, 1.0}}, config);
    // delta 5 over noisy reads yields multi-mapping reads that bind the
    // cap; identity must hold regardless.
    expect_identical(mono->map(sim_->batch, 5),
                     sharded->map(sim_->batch, 5));
}

TEST_F(ShardIdentityTest, RepeatMotifAcrossShardsBindsCapIdentically) {
    // Plant one exact 80 bp motif in every contig (so in every shard):
    // a motif read multi-maps across every shard and a cap of 3 binds
    // mid-stream. Exercises cross-shard cap accounting specifically.
    const std::string text =
        clean_genome(48'000, 77).sequence().to_string();
    const std::string motif =
        clean_genome(2'000, 78).sequence().to_string().substr(0, 80);
    std::vector<genomics::FastaRecord> records;
    for (std::size_t i = 0; i < 4; ++i) {
        std::string contig = text.substr(i * 12'000, 12'000);
        contig.replace(1'000 + 700 * i, motif.size(), motif);
        contig.replace(7'000 + 900 * i, motif.size(), motif);
        records.push_back({"rep" + std::to_string(i), contig});
    }
    const genomics::MultiReference multi(records);
    const index::FmIndex fm(multi.concatenated(), 4);
    index::ShardBuildConfig build;
    build.plan.shard_count = 4;
    build.plan.overlap = 128;
    const auto built = index::build_sharded_index(
        multi, temp_manifest_path("motif"), build);
    const auto opened = index::ShardedIndex::open(built.manifest_path);

    genomics::ReadBatch batch;
    batch.read_length = motif.size();
    const auto motif_ref =
        genomics::Reference::from_ascii("m", motif);
    genomics::Read read;
    read.id = 0;
    read.name = "motif";
    read.codes.resize(motif.size());
    motif_ref.sequence().extract(0, motif.size(), read.codes.data());
    batch.reads.push_back(read);

    core::HeterogeneousMapperConfig config;
    config.kernel.max_locations_per_read = 3; // 8 true sites, cap 3
    ocl::Device mono_dev(cpu_profile("motif-mono"));
    auto mono =
        core::make_repute(multi.concatenated(), fm, {{&mono_dev, 1.0}},
                          config);
    ocl::Device dev(cpu_profile("motif-sharded"));
    auto sharded = core::make_repute(core::shard_views_of(opened),
                                     {{&dev, 1.0}}, config);
    const auto expected = mono->map(batch, 2);
    const auto result = sharded->map(batch, 2);
    expect_identical(expected, result);
    ASSERT_EQ(expected.per_read[0].size(), 3u) << "cap did not bind";
    remove_sharded(built);
}

TEST_F(ShardIdentityTest, OverhangTooSmallIsActionable) {
    index::ShardBuildConfig build;
    build.plan.shard_count = 3;
    build.plan.overlap = 16; // << read_length + delta
    const auto built = index::build_sharded_index(
        *multi_, temp_manifest_path("thin"), build);
    const auto opened = index::ShardedIndex::open(built.manifest_path);
    ocl::Device dev(cpu_profile("thin-cpu"));
    auto sharded =
        core::make_repute(core::shard_views_of(opened), {{&dev, 1.0}});
    try {
        sharded->map(sim_->batch, 4);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--overlap"),
                  std::string::npos)
            << e.what();
    }
    remove_sharded(built);
}

// ---------------------------------------------------------------------
// The memory ceiling and the shard.* metrics

TEST_F(ShardIdentityTest, MapsPastTheDeviceMemoryCeiling) {
    // Size the device so the monolithic index image busts the
    // quarter-of-RAM single-allocation ceiling but one shard fits: the
    // monolithic mapper must fail to allocate, the sharded one must map
    // — and its per-device peak residency (shard.peak_resident_bytes)
    // must sit within the ceiling. This is the acceptance criterion of
    // the sharding work, asserted, not eyeballed.
    const std::uint64_t mono_image =
        multi_->concatenated().sequence().memory_bytes() +
        fm_->memory_bytes();
    const ocl::DeviceProfile small = cpu_profile(
        "small-cpu", /*global_memory=*/mono_image * 4 - 4096);
    ASSERT_LT(small.max_single_allocation(), mono_image);

    ocl::Device mono_dev(small);
    auto mono = core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}});
    EXPECT_THROW(mono->map(sim_->batch, 4), ocl::OclError);

    obs::TraceSession session;
    ocl::Device dev(small);
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&dev, 1.0}});
    ASSERT_LE(sharded->max_image_bytes(),
              small.max_single_allocation());

    ocl::Device big(cpu_profile("big-cpu"));
    auto reference_mapper = core::make_repute(
        multi_->concatenated(), *fm_, {{&big, 1.0}});
    expect_identical(reference_mapper->map(sim_->batch, 4),
                     sharded->map(sim_->batch, 4));

    const auto gauges = session.registry().gauge_values();
    ASSERT_TRUE(gauges.count("shard.peak_resident_bytes"));
    EXPECT_LE(gauges.at("shard.peak_resident_bytes"),
              static_cast<double>(small.max_single_allocation()));
    EXPECT_EQ(gauges.at("shard.count"), 4.0);
}

TEST_F(ShardIdentityTest, StaticRunAccountsResidencyAndRestaging) {
    // 1 MB of device memory: the quarter ceiling caps read chunks at a
    // few hundred reads, so every shard needs several chunks — the
    // chunks after the first are the residency hits being asserted.
    obs::TraceSession session;
    ocl::Device dev(cpu_profile("metrics-cpu", 1ULL << 20));
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&dev, 1.0}});
    sharded->map(sim_->batch, 4);

    const auto counters = session.registry().counter_values();
    // 4 shards on one device: every shard image staged once (no
    // affinity possible in shard-major order), chunks after the first
    // per shard are residency hits.
    EXPECT_EQ(counters.at("shard.restages"), 3u);
    EXPECT_GT(counters.at("shard.restage_bytes"), 0u);
    EXPECT_GT(counters.at("shard.residency_hits"), 0u);
    // 256 KiB / 800 B output slots = 327-read chunks: the 500-read
    // slice runs as two kernel invocations per shard, one ceiling split.
    EXPECT_EQ(counters.at("mapper.buffer_ceiling_splits"), 1u);
}

TEST_F(ShardIdentityTest, DynamicAffinityKeepsResidentShards) {
    obs::TraceSession session;
    ocl::Device a(cpu_profile("aff-a"));
    ocl::Device b(cpu_profile("aff-b"));
    core::HeterogeneousMapperConfig config;
    config.schedule = core::ScheduleMode::Dynamic;
    config.scheduler.chunk_items = 32;
    auto sharded = core::make_repute(
        core::shard_views_of(*sharded_), {{&a, 1.0}, {&b, 1.0}},
        config);
    sharded->map(sim_->batch, 4);

    const auto counters = session.registry().counter_values();
    // Small chunks over 4 shards x 500 reads: most launches must find
    // their shard already resident (the affinity exists so restaging is
    // the exception, not the rule).
    EXPECT_GT(counters.at("shard.residency_hits"),
              counters.at("shard.restages"));
    EXPECT_GT(counters.at("shard.restage_bytes"), 0u);
}

TEST_F(ShardIdentityTest, RunTransfersMatchDeviceTransferStats) {
    // Every byte a device's DMA channels moved — each image restage
    // included — must show in its DeviceRun, in bytes and in modeled
    // seconds, for one view and for four, on both schedules.
    ocl::TransferSpec link;
    link.bytes_per_second = 1e9;
    link.latency_seconds = 10e-6;
    for (const bool sharded : {false, true}) {
        for (const auto schedule : {core::ScheduleMode::StaticSplit,
                                    core::ScheduleMode::Dynamic}) {
            SCOPED_TRACE(std::string(sharded ? "K=4 " : "K=1 ") +
                         (schedule == core::ScheduleMode::Dynamic
                              ? "dynamic"
                              : "static"));
            ocl::Device a(cpu_profile("xfer-a"));
            ocl::Device b(cpu_profile("xfer-b"));
            a.set_transfer_spec(link);
            b.set_transfer_spec(link);
            core::HeterogeneousMapperConfig config;
            config.schedule = schedule;
            config.scheduler.chunk_items = 32;
            const std::vector<DeviceShare> shares{{&a, 1.0}, {&b, 1.0}};
            auto mapper =
                sharded ? core::make_repute(core::shard_views_of(*sharded_),
                                            shares, config)
                        : core::make_repute(multi_->concatenated(), *fm_,
                                            shares, config);
            const auto result = mapper->map(sim_->batch, 4);
            ASSERT_EQ(result.device_runs.size(), 2u);
            for (const core::DeviceRun& run : result.device_runs) {
                const ocl::Device& dev = run.device_name == a.name() ? a : b;
                const ocl::TransferStats xfer = dev.transfer_stats();
                EXPECT_EQ(run.bytes_staged, xfer.bytes_written)
                    << run.device_name;
                EXPECT_EQ(run.bytes_drained, xfer.bytes_read)
                    << run.device_name;
                EXPECT_NEAR(run.transfer_seconds,
                            xfer.write_seconds + xfer.read_seconds, 1e-12)
                    << run.device_name;
            }
        }
    }
}

TEST_F(ShardIdentityTest, IndelReadsMapEquivalentlyToOneView) {
    // Shard-local k-mer frequencies change the DP seed plan, and with it
    // which diagonal of an indel cluster survives collapse (DESIGN.md
    // §5g), so bytes may differ. What must hold: the same reads map,
    // and every mapping has a same-strand partner within delta.
    genomics::ReadSimConfig reads;
    reads.n_reads = 2'000;
    reads.read_length = 100;
    reads.max_errors = 5;
    reads.indel_fraction = 0.3;
    reads.seed = 31;
    const auto sim = genomics::simulate_reads(multi_->concatenated(), reads);

    const auto covered = [](const std::vector<ReadMapping>& from,
                            const std::vector<ReadMapping>& in,
                            std::uint32_t delta) {
        return std::all_of(from.begin(), from.end(), [&](const auto& m) {
            return std::any_of(in.begin(), in.end(), [&](const auto& p) {
                return p.strand == m.strand &&
                       (p.position > m.position ? p.position - m.position
                                                : m.position - p.position) <=
                           delta;
            });
        });
    };
    for (const auto schedule :
         {core::ScheduleMode::StaticSplit, core::ScheduleMode::Dynamic}) {
        for (const std::uint32_t delta : {4u, 5u}) {
            ocl::Device mono_dev(cpu_profile("indel-mono"));
            ocl::Device dev(cpu_profile("indel-sharded"));
            core::HeterogeneousMapperConfig config;
            config.schedule = schedule;
            const auto expected =
                core::make_repute(multi_->concatenated(), *fm_,
                                  {{&mono_dev, 1.0}}, config)
                    ->map(sim.batch, delta);
            const auto result =
                core::make_repute(core::shard_views_of(*sharded_),
                                  {{&dev, 1.0}}, config)
                    ->map(sim.batch, delta);
            ASSERT_EQ(expected.per_read.size(), result.per_read.size());
            for (std::size_t i = 0; i < result.per_read.size(); ++i) {
                const auto& mono = expected.per_read[i];
                const auto& shard = result.per_read[i];
                ASSERT_EQ(mono.empty(), shard.empty())
                    << "read " << i << " delta " << delta;
                ASSERT_TRUE(covered(mono, shard, delta) &&
                            covered(shard, mono, delta))
                    << "read " << i << " delta " << delta;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Session-level identity: SAM bytes through MappingSession::from_rix

class ShardSessionTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        multi_ = new genomics::MultiReference(contigs(5, 40'000, 99));
        index::ShardBuildConfig build;
        build.plan.shard_count = 4;
        build.plan.overlap = 192;
        built_ = new index::ShardBuildResult(index::build_sharded_index(
            *multi_, temp_manifest_path("session"), build));
    }
    static void TearDownTestSuite() {
        remove_sharded(*built_);
        delete built_;
        delete multi_;
        built_ = nullptr;
        multi_ = nullptr;
    }

    static std::string fastq_of(const genomics::SimulatedReads& sim) {
        std::ostringstream out;
        genomics::write_fastq(out, genomics::to_fastq_records(sim));
        return out.str();
    }

    static std::string map_single(pipeline::MappingSession& session,
                                  const std::string& fastq,
                                  std::uint32_t delta,
                                  pipeline::SamEmitter::Stats* stats =
                                      nullptr) {
        std::istringstream in(fastq);
        pipeline::MapRequest request;
        request.reads = &in;
        request.delta = delta;
        std::ostringstream sam;
        const auto response = session.map(request, sam);
        if (stats != nullptr) *stats = response.emitted;
        return sam.str();
    }

    static std::string map_paired(pipeline::MappingSession& session,
                                  const std::string& fq1,
                                  const std::string& fq2,
                                  std::uint32_t delta) {
        std::istringstream in1(fq1);
        std::istringstream in2(fq2);
        pipeline::MapRequest request;
        request.reads = &in1;
        request.reads2 = &in2;
        request.delta = delta;
        std::ostringstream sam;
        session.map(request, sam);
        return sam.str();
    }

    static genomics::MultiReference* multi_;
    static index::ShardBuildResult* built_;
};

genomics::MultiReference* ShardSessionTest::multi_ = nullptr;
index::ShardBuildResult* ShardSessionTest::built_ = nullptr;

TEST_F(ShardSessionTest, ManifestSessionReportsShardedness) {
    auto session =
        pipeline::MappingSession::from_rix(built_->manifest_path);
    EXPECT_TRUE(session->is_sharded());
    EXPECT_TRUE(session->is_mapped());
    EXPECT_THROW(session->fm(), std::logic_error);
    EXPECT_GT(session->mapped_bytes(), 0u);
    EXPECT_GT(session->resident_bytes(), 0u);
    EXPECT_EQ(session->multi().sequence_count(),
              multi_->sequence_count());
    EXPECT_EQ(session->sharded().shards().size(), 4u);
}

TEST_F(ShardSessionTest, SingleEndSamBytesIdentical) {
    for (const char* flavor : {"repute", "coral"}) {
        pipeline::SessionConfig config;
        config.flavor = flavor;
        auto mono = pipeline::MappingSession::from_multi(
            genomics::MultiReference(*multi_), config);
        auto sharded = pipeline::MappingSession::from_rix(
            built_->manifest_path, config);
        const auto sim =
            clean_reads(multi_->concatenated(), 300, 80, 3, 12);
        const std::string fastq = fastq_of(sim);
        EXPECT_EQ(map_single(*mono, fastq, 3),
                  map_single(*sharded, fastq, 3))
            << "flavor " << flavor;
    }
}

TEST_F(ShardSessionTest, DynamicMultiDeviceSamBytesIdentical) {
    pipeline::SessionConfig config;
    config.schedule = core::ScheduleMode::Dynamic;
    config.devices = {"i7-2600", "gtx590-0", "gtx590-1"};
    auto mono = pipeline::MappingSession::from_multi(
        genomics::MultiReference(*multi_), config);
    auto sharded = pipeline::MappingSession::from_rix(
        built_->manifest_path, config);
    const auto sim = clean_reads(multi_->concatenated(), 300, 80, 3, 13);
    const std::string fastq = fastq_of(sim);
    EXPECT_EQ(map_single(*mono, fastq, 3),
              map_single(*sharded, fastq, 3));
}

TEST_F(ShardSessionTest, PairedEndSamBytesIdentical) {
    auto mono = pipeline::MappingSession::from_multi(
        genomics::MultiReference(*multi_));
    auto sharded =
        pipeline::MappingSession::from_rix(built_->manifest_path);
    const auto sim1 =
        clean_reads(multi_->concatenated(), 200, 80, 3, 21);
    const auto sim2 =
        clean_reads(multi_->concatenated(), 200, 80, 3, 22);
    const std::string fq1 = fastq_of(sim1);
    const std::string fq2 = fastq_of(sim2);
    EXPECT_EQ(map_paired(*mono, fq1, fq2, 3),
              map_paired(*sharded, fq1, fq2, 3));
}

TEST_F(ShardSessionTest, BoundaryStraddlersDemotedIdentically) {
    // Reads copied straight off contig joins of the concatenated text
    // map to positions whose SAM window straddles a sequence boundary;
    // SamEmitter demotes them. The sharded session must demote exactly
    // the same records — equal dropped_boundary counts AND equal bytes.
    const auto& concat = multi_->concatenated();
    std::ostringstream fastq;
    int id = 0;
    for (std::size_t b = 1; b < multi_->sequence_count(); ++b) {
        const std::uint32_t join = multi_->starts()[b];
        for (const std::uint32_t back : {40u, 20u, 5u}) {
            std::vector<std::uint8_t> codes(80);
            concat.sequence().extract(join - back, 80, codes.data());
            static const char kBases[] = "ACGT";
            fastq << "@join" << id++ << "\n";
            for (const std::uint8_t c : codes) fastq << kBases[c];
            fastq << "\n+\n" << std::string(80, 'I') << "\n";
        }
    }
    auto mono = pipeline::MappingSession::from_multi(
        genomics::MultiReference(*multi_));
    auto sharded =
        pipeline::MappingSession::from_rix(built_->manifest_path);
    pipeline::SamEmitter::Stats mono_stats;
    pipeline::SamEmitter::Stats sharded_stats;
    const std::string a =
        map_single(*mono, fastq.str(), 2, &mono_stats);
    const std::string b =
        map_single(*sharded, fastq.str(), 2, &sharded_stats);
    EXPECT_EQ(a, b);
    EXPECT_EQ(mono_stats.dropped_boundary, sharded_stats.dropped_boundary);
    EXPECT_GT(mono_stats.dropped_boundary, 0u)
        << "fixture failed to produce straddling mappings";
    EXPECT_EQ(mono_stats.records, sharded_stats.records);
}

} // namespace
} // namespace repute
