// CIGAR annotation (the paper's future-work extension) and per-stage
// kernel accounting.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/cigar.hpp"
#include "core/kernels.hpp"
#include "core/repute_mapper.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"

namespace {

using repute::core::annotate_mapping;
using repute::core::KernelConfig;
using repute::core::ReadMapping;
using repute::core::StageTotals;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::SimulatedReads;
using repute::genomics::Strand;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

DeviceProfile test_profile() {
    DeviceProfile p;
    p.name = "cigar-cpu";
    p.compute_units = 4;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

class CigarTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 100'000;
        gconfig.seed = 9;
        reference_ = new Reference(simulate_genome(gconfig));
        fm_ = new FmIndex(*reference_, 4);

        ReadSimConfig rconfig;
        rconfig.n_reads = 120;
        rconfig.read_length = 100;
        rconfig.max_errors = 4;
        rconfig.seed = 11;
        sim_ = new SimulatedReads(simulate_reads(*reference_, rconfig));
    }
    static void TearDownTestSuite() {
        delete sim_;
        delete fm_;
        delete reference_;
        sim_ = nullptr;
        fm_ = nullptr;
        reference_ = nullptr;
    }

    /// Read-consumed length from a CIGAR: M and I ops.
    static std::size_t cigar_read_length(const std::string& cigar) {
        std::size_t consumed = 0, num = 0;
        for (const char c : cigar) {
            if (c >= '0' && c <= '9') {
                num = num * 10 + static_cast<std::size_t>(c - '0');
            } else {
                if (c == 'M' || c == 'I') consumed += num;
                num = 0;
            }
        }
        return consumed;
    }

    static Reference* reference_;
    static FmIndex* fm_;
    static SimulatedReads* sim_;
};

Reference* CigarTest::reference_ = nullptr;
FmIndex* CigarTest::fm_ = nullptr;
SimulatedReads* CigarTest::sim_ = nullptr;

TEST_F(CigarTest, ExactReadGetsAllMatchCigar) {
    repute::genomics::Read read;
    read.codes = reference_->sequence().extract(2000, 100);
    ReadMapping mapping;
    mapping.position = 2000;
    mapping.edit_distance = 0;
    mapping.strand = Strand::Forward;
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 3);
    ASSERT_TRUE(annotated.has_value());
    EXPECT_EQ(annotated->cigar, "100M");
    EXPECT_EQ(annotated->precise_position, 2000u);
    EXPECT_EQ(annotated->mapping.edit_distance, 0u);
}

TEST_F(CigarTest, ReverseStrandAnnotation) {
    repute::genomics::Read read;
    const auto fwd = reference_->sequence().extract(5000, 100);
    read.codes.assign(fwd.rbegin(), fwd.rend());
    for (auto& b : read.codes) b = repute::util::complement_code(b);

    ReadMapping mapping;
    mapping.position = 5000;
    mapping.strand = Strand::Reverse;
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 3);
    ASSERT_TRUE(annotated.has_value());
    EXPECT_EQ(annotated->cigar, "100M");
    EXPECT_EQ(annotated->precise_position, 5000u);
}

TEST_F(CigarTest, UnalignableMappingRejected) {
    repute::genomics::Read read;
    read.codes.assign(100, 0); // poly-A
    ReadMapping mapping;
    mapping.position = 2000;
    mapping.strand = Strand::Forward;
    // Unless position 2000 happens to be ~poly-A (it is random), the
    // re-alignment cannot reach distance <= 1.
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 1);
    EXPECT_FALSE(annotated.has_value());
}

TEST_F(CigarTest, EndToEndSamWithCigar) {
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);

    const repute::genomics::MultiReference multi(*reference_);
    std::ostringstream sam;
    repute::pipeline::SamEmitter emitter(sam, multi, {true, 4});
    emitter.emit(sim_->batch, result);
    EXPECT_EQ(emitter.stats().dropped_cigar, 0u)
        << "kernel mappings must all re-align";

    // Columns: QNAME FLAG RNAME POS MAPQ CIGAR RNEXT PNEXT TLEN SEQ QUAL
    // NM:i:<edits>.
    std::size_t mapped_records = 0;
    std::istringstream lines(sam.str());
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string qname, rname, cigar, rnext, seq, qual, nm;
        unsigned flag = 0, mapq = 0;
        std::uint64_t pos = 0, pnext = 0;
        std::int64_t tlen = 0;
        fields >> qname >> flag >> rname >> pos >> mapq >> cigar >>
            rnext >> pnext >> tlen >> seq >> qual >> nm;
        ASSERT_FALSE(fields.fail()) << line;
        if ((flag & repute::genomics::SamRecord::kFlagUnmapped) != 0) {
            continue;
        }
        ++mapped_records;
        // Every CIGAR consumes exactly the read length.
        EXPECT_EQ(cigar_read_length(cigar), 100u) << cigar;
        ASSERT_EQ(nm.rfind("NM:i:", 0), 0u) << line;
        EXPECT_LE(std::stoul(nm.substr(5)), 4u);
        EXPECT_GE(pos, 1u);
    }
    EXPECT_GT(mapped_records, sim_->batch.size() / 2);
}

TEST_F(CigarTest, PrecisePositionMatchesOriginForCleanReads) {
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < sim_->batch.size(); ++i) {
        if (sim_->origins[i].edits != 0) continue; // exact reads only
        for (const auto& m : result.per_read[i]) {
            if (m.edit_distance != 0) continue;
            const auto a = annotate_mapping(
                *reference_, sim_->batch.reads[i], m, 4);
            ASSERT_TRUE(a.has_value());
            if (a->precise_position == sim_->origins[i].position) {
                ++checked;
                break;
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

// ------------------------------------------------------- stage totals

TEST_F(CigarTest, StageTotalsSumToKernelOps) {
    const repute::filter::MemoryOptimizedSeeder seeder(12);
    KernelConfig config;
    std::vector<ReadMapping> out;
    StageTotals stages;
    const auto ops = repute::core::map_read_workitem(
        *fm_, *reference_, seeder, sim_->batch.reads[0], 4, config, out,
        &stages);
    EXPECT_EQ(ops, stages.total_ops());
    EXPECT_GT(stages.filtration_ops, 0u);
    EXPECT_GT(stages.verify_ops, 0u);
}

TEST_F(CigarTest, DeviceRunsCarryStageBreakdown) {
    Device dev(test_profile());
    auto repute_mapper = repute::core::make_repute(*reference_, *fm_,
                                                   {{&dev, 1.0}});
    const auto result = repute_mapper->map(sim_->batch, 4);
    ASSERT_EQ(result.device_runs.size(), 1u);
    const auto& run = result.device_runs[0];
    EXPECT_EQ(run.stage.filtration_ops + run.stage.locate_ops +
                  run.stage.verify_ops,
              run.stats.total_ops);
    EXPECT_GT(run.stage.candidates, 0u);
}

TEST_F(CigarTest, StreamingFlowVerifiesMoreThanCollapsedFlow) {
    Device dev(test_profile());
    auto repute_mapper = repute::core::make_repute(*reference_, *fm_,
                                                   {{&dev, 1.0}});
    auto coral_mapper = repute::core::make_coral(*reference_, *fm_,
                                                 {{&dev, 1.0}});
    const auto repute_result = repute_mapper->map(sim_->batch, 4);
    const auto coral_result = coral_mapper->map(sim_->batch, 4);
    // CORAL re-verifies windows shared by several seeds.
    EXPECT_GT(coral_result.device_runs[0].stage.candidates,
              repute_result.device_runs[0].stage.candidates);
}

} // namespace
