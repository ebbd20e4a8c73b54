// Streaming batch pipeline: chunked FASTA/FASTQ parsing with per-record
// error policy, bounded/ordered pipeline execution, and the headline
// property — bucketed streaming SAM output is byte-identical to the
// one-batch parse-then-map-then-write oracle, even on a skewed device
// fleet that finishes batches out of order.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <span>
#include <sstream>
#include <vector>

#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "obs/trace.hpp"
#include "pipeline/batch_pipeline.hpp"
#include "pipeline/mapping_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"

#include "one_batch_oracle.hpp"

namespace repute {
namespace {

using genomics::FastxRecordStream;
using Status = FastxRecordStream::Status;

std::string fastq_text(const genomics::ReadBatch& batch) {
    std::string out;
    for (const auto& read : batch.reads) {
        out += '@' + read.name + '\n' + read.to_string() + "\n+\n";
        out += read.quality.empty()
                   ? std::string(read.length(), 'I')
                   : read.quality;
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------
// FastxRecordStream

TEST(FastxRecordStream, ParsesFastqAndFastaWithAutoDetection) {
    {
        std::istringstream in("@r1 extra\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n");
        FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(stream.format(), genomics::FastxFormat::Fastq);
        EXPECT_EQ(rec.name, "r1");
        EXPECT_EQ(rec.sequence, "ACGT");
        EXPECT_EQ(rec.quality, "IIII");
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(rec.name, "r2");
        EXPECT_EQ(stream.next(rec), Status::End);
    }
    {
        std::istringstream in(">s1\nACGT\nACGT\n;comment\n>s2\nTT\n");
        FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(stream.format(), genomics::FastxFormat::Fasta);
        EXPECT_EQ(rec.name, "s1");
        EXPECT_EQ(rec.sequence, "ACGTACGT");
        EXPECT_TRUE(rec.quality.empty());
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(rec.sequence, "TT");
        EXPECT_EQ(stream.next(rec), Status::End);
    }
}

TEST(FastxRecordStream, ReportsMalformedRecordsAndResyncs) {
    // Bad header, then a quality-length mismatch, then a good record.
    std::istringstream in(
        "garbage\n@bad\nACGT\n+\nII\n@good\nACGT\n+\nIIII\n");
    FastxRecordStream stream(in, genomics::FastxFormat::Fastq);
    genomics::FastqRecord rec;
    std::string error;
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("expected '@'"), std::string::npos);
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("length mismatch"), std::string::npos);
    ASSERT_EQ(stream.next(rec, &error), Status::Record);
    EXPECT_EQ(rec.name, "good");
    EXPECT_EQ(stream.next(rec), Status::End);
}

TEST(FastxRecordStream, TruncatedFinalRecordIsMalformedNotFatal) {
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n");
    FastxRecordStream stream(in);
    genomics::FastqRecord rec;
    std::string error;
    ASSERT_EQ(stream.next(rec, &error), Status::Record);
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("truncated"), std::string::npos);
    EXPECT_EQ(stream.next(rec), Status::End);
}

// ---------------------------------------------------------------------
// StreamingFastxReader (next_bucket on single-class input; the
// mixed-length dispatch rules are pinned in test_mixed.cpp)

std::vector<pipeline::OrderedBatch> drain(
    pipeline::StreamingFastxReader& reader) {
    std::vector<pipeline::OrderedBatch> out;
    pipeline::OrderedBatch unit;
    while (reader.next_bucket(unit)) out.push_back(unit);
    return out;
}

TEST(StreamingFastxReader, EmptyFileYieldsNoBatches) {
    std::istringstream in("");
    pipeline::StreamingFastxReader reader(in);
    pipeline::OrderedBatch unit;
    EXPECT_FALSE(reader.next_bucket(unit));
    EXPECT_TRUE(unit.batch.empty());
    EXPECT_EQ(reader.stats().records, 0u);
    EXPECT_EQ(reader.stats().batches, 0u);
}

TEST(StreamingFastxReader, BatchSizeLargerThanFile) {
    std::istringstream in("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\nIIII\n");
    pipeline::StreamingReaderConfig config;
    config.batch_size = 1000;
    config.length_grid = 1; // exact-length class: ceiling == 4
    pipeline::StreamingFastxReader reader(in, config);
    pipeline::OrderedBatch unit;
    ASSERT_TRUE(reader.next_bucket(unit));
    EXPECT_EQ(unit.batch.size(), 2u);
    EXPECT_EQ(unit.batch.read_length, 4u);
    EXPECT_EQ(unit.batch.reads[0].id, 0u);
    EXPECT_EQ(unit.batch.reads[1].id, 1u);
    EXPECT_EQ(unit.ordinals, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_FALSE(reader.next_bucket(unit));
}

TEST(StreamingFastxReader, ChunksIntoFixedBatches) {
    std::string text;
    for (int i = 0; i < 10; ++i) {
        text += "@r" + std::to_string(i) + "\nACGTACGT\n+\nIIIIIIII\n";
    }
    std::istringstream in(text);
    pipeline::StreamingReaderConfig config;
    config.batch_size = 4;
    pipeline::StreamingFastxReader reader(in, config);
    std::vector<std::size_t> sizes;
    std::uint64_t next_ordinal = 0;
    for (const auto& unit : drain(reader)) {
        sizes.push_back(unit.batch.size());
        // One length class: buckets dispatch in input order.
        for (const auto ordinal : unit.ordinals) {
            EXPECT_EQ(ordinal, next_ordinal++);
        }
    }
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(reader.stats().batches, 3u);
    EXPECT_EQ(reader.stats().records, 10u);
}

TEST(StreamingFastxReader, MalformedMidBatchDroppedAndCounted) {
    // Record 2 is truncated (missing quality line swallows the next
    // header slot), record 4 has a stray line; drop policy keeps going.
    const std::string text = "@r0\nAAAA\n+\nIIII\n"
                             "@r1\nCCCC\n+\n"
                             "@r2\nGGGG\n+\nIIII\n"
                             "stray line\n"
                             "@r3\nTTTT\n+\nIIII\n";
    std::istringstream in(text);
    pipeline::StreamingFastxReader reader(in);
    const auto buckets = drain(reader);
    // r1's missing quality line swallows r2's header, so the parser
    // reports malformed once per orphaned line until it resyncs at the
    // next '@' — what matters is that it resyncs and nothing is fatal.
    EXPECT_EQ(reader.stats().dropped_malformed, 5u);
    EXPECT_FALSE(reader.stats().last_error.empty());
    // r0 and r3 survive; the r1/r2 tangle costs both records.
    ASSERT_EQ(buckets.size(), 1u);
    ASSERT_EQ(buckets[0].batch.size(), 2u);
    EXPECT_EQ(buckets[0].batch.reads[0].name, "r0");
    EXPECT_EQ(buckets[0].batch.reads[1].name, "r3");
    EXPECT_EQ(buckets[0].ordinals, (std::vector<std::uint64_t>{0, 1}));
}

TEST(StreamingFastxReader, FailFastPolicyThrows) {
    // The very first record is malformed: the throw comes before any
    // bucket exists.
    std::istringstream in("@r0\nAAAA\n+\nII\n");
    pipeline::StreamingReaderConfig config;
    config.on_malformed = pipeline::OnMalformed::Fail;
    pipeline::StreamingFastxReader reader(in, config);
    pipeline::OrderedBatch unit;
    EXPECT_THROW(reader.next_bucket(unit), std::runtime_error);
}

// ---------------------------------------------------------------------
// BatchPipeline engine

TEST(BatchPipeline, EmitsInInputOrderDespiteSkewedWorkers) {
    pipeline::PipelineConfig config;
    config.queue_depth = 2;
    config.map_workers = 2;
    pipeline::BatchPipeline<int, int> engine(config);
    constexpr int kUnits = 9;
    int next = 0;
    std::vector<std::size_t> seqs;
    std::vector<int> results;

    // Even unit k is held until unit k+1 has finished mapping, so the
    // completion order is scrambled by construction. The workers share
    // one FIFO input queue: while one worker holds k, the other pops
    // k+1, and the writer drains finished units into its reorder buffer
    // without ever blocking a worker, so the hold always resolves.
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<bool> done(kUnits, false);
    std::vector<int> completion;
    const auto stats = engine.run(
        [&](int& unit) {
            if (next >= kUnits) return false;
            unit = next++;
            return true;
        },
        [&](const int& unit, std::size_t) {
            std::unique_lock lock(mutex);
            if (unit % 2 == 0 && unit + 1 < kUnits) {
                done_cv.wait(lock, [&] { return done[unit + 1]; });
            }
            done[unit] = true;
            completion.push_back(unit);
            done_cv.notify_all();
            return unit * 10;
        },
        [&](std::size_t seq, const int& unit, const int& result) {
            seqs.push_back(seq);
            EXPECT_EQ(result, unit * 10);
            results.push_back(result);
        });
    ASSERT_EQ(completion.size(), static_cast<std::size_t>(kUnits));
    EXPECT_EQ(completion[0], 1); // out of order by construction
    EXPECT_EQ(completion[1], 0);
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kUnits));
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        EXPECT_EQ(seqs[i], i);
        EXPECT_EQ(results[i], static_cast<int>(i) * 10);
    }
    EXPECT_EQ(stats.units, static_cast<std::size_t>(kUnits));
    // Backpressure bound: the admission window (both queues, every
    // worker, the reader's unit and the one being emitted; parked units
    // count against it too), not input size.
    EXPECT_LE(stats.max_in_flight,
              2 * config.queue_depth + config.map_workers + 2);
}

TEST(BatchPipeline, SourceExceptionPropagates) {
    pipeline::BatchPipeline<int, int> engine({});
    EXPECT_THROW(
        engine.run([](int&) -> bool { throw std::runtime_error("boom"); },
                   [](const int& u, std::size_t) { return u; },
                   [](std::size_t, const int&, const int&) {}),
        std::runtime_error);
}

TEST(BatchPipeline, MapExceptionPropagates) {
    pipeline::BatchPipeline<int, int> engine({});
    int next = 0;
    EXPECT_THROW(
        engine.run(
            [&](int& unit) {
                unit = next++;
                return next <= 100;
            },
            [](const int&, std::size_t) -> int {
                throw std::runtime_error("map died");
            },
            [](std::size_t, const int&, const int&) {}),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// End-to-end mapping equivalence

struct MappingFixture {
    genomics::Reference reference;
    genomics::MultiReference multi;
    index::FmIndex fm;
    genomics::SimulatedReads sim;

    static genomics::Reference make_reference(std::size_t length) {
        genomics::GenomeSimConfig config;
        config.length = length;
        config.seed = 7;
        return genomics::simulate_genome(config);
    }

    explicit MappingFixture(std::size_t genome = 300'000,
                            std::size_t n_reads = 400)
        : reference(make_reference(genome)),
          multi({{reference.name(), reference.sequence().to_string()}}),
          fm(multi.concatenated(), 4),
          sim([&] {
              genomics::ReadSimConfig config;
              config.n_reads = n_reads;
              config.read_length = 100;
              config.max_errors = 3;
              config.seed = 11;
              return genomics::simulate_reads(multi.concatenated(),
                                              config);
          }()) {}

    std::unique_ptr<core::HeterogeneousMapper> mapper(
        ocl::Device& device) const {
        core::HeterogeneousMapperConfig config;
        config.kernel.s_min = 14;
        return core::make_repute(multi.concatenated(), fm,
                                 {{&device, 1.0}}, config);
    }
};

ocl::DeviceProfile skew_profile(const char* name, std::uint32_t units,
                                double ops) {
    ocl::DeviceProfile p;
    p.name = name;
    p.compute_units = units;
    p.ops_per_unit_per_second = ops;
    p.global_memory_bytes = 1ULL << 31;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 1e-4;
    return p;
}

/// Maps `reader` through `mappers` on the bucketed pipeline and
/// renders input-ordered SAM (header included) via a reorder writer —
/// the shape MappingSession::map uses.
std::string bucketed_sam(pipeline::StreamingFastxReader& reader,
                         std::span<core::Mapper* const> mappers,
                         const genomics::MultiReference& multi,
                         pipeline::SamEmitterConfig emit_config,
                         pipeline::PipelineConfig config,
                         pipeline::PipelineStats* stats_out = nullptr) {
    std::ostringstream sam;
    pipeline::SamEmitter emitter(sam, multi, emit_config);
    emitter.write_header();
    pipeline::RecordReorderWriter writer(sam);
    std::size_t expected_seq = 0;
    const auto stats = pipeline::run_bucketed_pipeline(
        reader, mappers, emit_config.delta,
        [&](std::size_t seq, const pipeline::OrderedBatch& unit,
            const core::MapResult& result) {
            EXPECT_EQ(seq, expected_seq++);
            for (std::size_t i = 0; i < unit.batch.size(); ++i) {
                writer.add(unit.ordinals[i],
                           emitter.render_read(unit.batch, i, result));
            }
        },
        config);
    writer.finish();
    if (stats_out != nullptr) *stats_out = stats;
    return sam.str();
}

TEST(MappingPipeline, StreamingSamIsByteIdenticalToMonolithic) {
    const MappingFixture fix;
    const std::uint32_t delta = 3;
    const std::string fastq = fastq_text(fix.sim.batch);

    // One-batch reference: whole file -> one map -> one emit.
    ocl::Device cpu(skew_profile("mono-cpu", 8, 1e9));
    const std::string mono_sam = testing_oracle::one_batch_sam(
        fastq, *fix.mapper(cpu), fix.multi, {true, delta});

    // Streaming path over a deliberately skewed two-device fleet (the
    // fig3 skew setup): the fast worker races ahead, the ordering
    // buffer must still emit in input order.
    std::istringstream in(fastq);
    pipeline::StreamingReaderConfig reader_config;
    reader_config.batch_size = 48;
    pipeline::StreamingFastxReader reader(in, reader_config);

    ocl::Device fast(skew_profile("fast-gpu", 16, 6e8));
    ocl::Device slow(skew_profile("slow-cpu", 2, 6e7));
    auto mapper_fast = fix.mapper(fast);
    auto mapper_slow = fix.mapper(slow);
    std::vector<core::Mapper*> mappers = {mapper_fast.get(),
                                          mapper_slow.get()};
    pipeline::PipelineConfig config;
    config.queue_depth = 3;
    pipeline::PipelineStats stats;
    const std::string stream_sam = bucketed_sam(
        reader, mappers, fix.multi, {true, delta}, config, &stats);
    EXPECT_EQ(stats.units, reader.stats().batches);
    EXPECT_GT(stats.units, 4u);

    EXPECT_EQ(mono_sam, stream_sam);
}

TEST(MappingPipeline, PairedStreamingMatchesMonolithic) {
    const MappingFixture fix(200'000, 0);
    const std::uint32_t delta = 3;
    genomics::PairSimConfig pconfig;
    pconfig.n_pairs = 150;
    pconfig.read_length = 100;
    pconfig.max_errors = 2;
    pconfig.seed = 5;
    const auto pairs =
        genomics::simulate_pairs(fix.multi.concatenated(), pconfig);
    const std::string fastq1 = fastq_text(pairs.first);
    const std::string fastq2 = fastq_text(pairs.second);

    core::PairedConfig pair_config;
    pair_config.min_insert = 200;
    pair_config.max_insert = 500;

    // One-batch reference: both mate files as one batch each, one
    // map_pairs call, every pair rendered in order.
    std::ostringstream mono_sam;
    {
        ocl::Device cpu(skew_profile("mono-cpu", 8, 1e9));
        auto mapper = fix.mapper(cpu);
        core::PairedMapper paired(*mapper, fix.multi.concatenated(),
                                  pair_config);
        pipeline::SamEmitter emitter(mono_sam, fix.multi, {true, delta});
        emitter.write_header();
        for (const auto& pair : emitter.render_paired(
                 pairs.first, pairs.second,
                 paired.map_pairs(pairs.first, pairs.second, delta))) {
            mono_sam << pair;
        }
    }

    std::ostringstream stream_sam;
    {
        std::istringstream in1(fastq1), in2(fastq2);
        pipeline::StreamingReaderConfig reader_config;
        reader_config.batch_size = 32;
        pipeline::PairedStreamingReader reader(in1, in2, reader_config);

        ocl::Device fast(skew_profile("fast-gpu", 16, 6e8));
        ocl::Device slow(skew_profile("slow-cpu", 2, 6e7));
        auto mapper_fast = fix.mapper(fast);
        auto mapper_slow = fix.mapper(slow);
        core::PairedMapper paired_fast(*mapper_fast,
                                       fix.multi.concatenated(),
                                       pair_config);
        core::PairedMapper paired_slow(*mapper_slow,
                                       fix.multi.concatenated(),
                                       pair_config);
        std::vector<core::PairedMapper*> mappers = {&paired_fast,
                                                    &paired_slow};

        pipeline::SamEmitter emitter(stream_sam, fix.multi,
                                     {true, delta});
        emitter.write_header();
        pipeline::RecordReorderWriter writer(stream_sam);
        const auto stats = pipeline::run_bucketed_paired_pipeline(
            reader, mappers, delta,
            [&](std::size_t, const pipeline::OrderedPairBatch& unit,
                const core::PairedResult& result) {
                auto rendered =
                    emitter.render_paired(unit.first, unit.second, result);
                for (std::size_t i = 0; i < rendered.size(); ++i) {
                    writer.add(unit.ordinals[i], std::move(rendered[i]));
                }
            },
            {});
        writer.finish();
        EXPECT_GT(stats.units, 1u);
    }

    EXPECT_EQ(mono_sam.str(), stream_sam.str());
}

TEST(MappingPipeline, PairedDesyncThrows) {
    const MappingFixture fix(200'000, 0);
    // Mate 2 file is one record short.
    std::istringstream in1("@a\n" + std::string(100, 'A') + "\n+\n" +
                           std::string(100, 'I') + "\n@b\n" +
                           std::string(100, 'C') + "\n+\n" +
                           std::string(100, 'I') + "\n");
    std::istringstream in2("@a\n" + std::string(100, 'A') + "\n+\n" +
                           std::string(100, 'I') + "\n");
    pipeline::PairedStreamingReader reader(in1, in2);
    ocl::Device cpu(skew_profile("cpu", 8, 1e9));
    auto mapper = fix.mapper(cpu);
    core::PairedMapper paired(*mapper, fix.multi.concatenated(), {});
    std::vector<core::PairedMapper*> mappers = {&paired};
    EXPECT_THROW(pipeline::run_bucketed_paired_pipeline(
                     reader, mappers, 3,
                     [](std::size_t, const pipeline::OrderedPairBatch&,
                        const core::PairedResult&) {},
                     {}),
                 std::runtime_error);
}

TEST(MappingPipeline, RecordsMetricsWhenTracing) {
    const MappingFixture fix(150'000, 120);
    obs::TraceSession session;
    const std::string fastq = fastq_text(fix.sim.batch);
    std::istringstream in(fastq);
    pipeline::StreamingReaderConfig reader_config;
    reader_config.batch_size = 32;
    pipeline::StreamingFastxReader reader(in, reader_config);
    ocl::Device cpu(skew_profile("cpu", 8, 1e9));
    auto mapper = fix.mapper(cpu);
    std::vector<core::Mapper*> mappers = {mapper.get()};
    pipeline::PipelineStats stats;
    bucketed_sam(reader, mappers, fix.multi, {false, 3}, {}, &stats);
    EXPECT_EQ(session.registry().counter("pipeline.batches").value(),
              stats.units);
    EXPECT_EQ(session.registry()
                  .histogram("pipeline.batch_map_seconds")
                  .snapshot()
                  .count,
              stats.units);
    EXPECT_GT(stats.max_in_flight, 0u);
    EXPECT_FALSE(stats.format().empty());
}

} // namespace
} // namespace repute
