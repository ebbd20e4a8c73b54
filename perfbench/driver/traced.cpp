// `perfbench traced`: per-layer host time for one workload.
//
//   1. one untraced MappingSession::map() — the baseline for tracing
//      overhead, and the SAM digest the traced pass must reproduce;
//   2. a traced pass that makes the same calls MappingSession::map
//      makes (reader -> mapper -> emitter -> reorder writer, on the same
//      BatchPipeline engine and with the same mapper configuration),
//      with a span around each call;
//   3. a replay of the first captured unit, one read at a time, through
//      the kernel layers (seed selection, the map work-item) and the
//      CIGAR / SAM rendering calls, with a span around each.
//
// No span sits inside the library: every span wraps a public call.

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "core/cigar.hpp"
#include "core/kernels.hpp"
#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "ocl/platform.hpp"
#include "pipeline/batch_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"

namespace perfbench {

namespace {

namespace core = repute::core;
namespace pipeline = repute::pipeline;

constexpr std::uint32_t kTracedRequest = 1;
constexpr std::uint32_t kReplayRequest = 2;

/// Forwards to a mapper with a span around each map() call.
class TracedMapper final : public core::Mapper {
public:
    TracedMapper(core::Mapper& inner, Tracer& tracer, const char* span)
        : inner_(&inner), tracer_(&tracer), span_(span) {}

    core::MapResult map(const repute::genomics::ReadBatch& batch,
                        std::uint32_t delta) override {
        const Tracer::Scope scope(*tracer_, span_, kTracedRequest);
        return inner_->map(batch, delta);
    }
    std::string_view name() const noexcept override { return inner_->name(); }
    double power_scale() const noexcept override {
        return inner_->power_scale();
    }

private:
    core::Mapper* inner_;
    Tracer* tracer_;
    const char* span_;
};

/// Mappers built exactly as MappingSession::build_pool builds them.
std::vector<std::unique_ptr<core::HeterogeneousMapper>> build_mappers(
    const pipeline::MappingSession& session, repute::ocl::Platform& platform,
    std::size_t count) {
    const auto& config = session.config();
    std::vector<core::DeviceShare> shares;
    for (const auto& name : config.devices) {
        shares.push_back({&platform.device(name), 1.0});
    }
    core::HeterogeneousMapperConfig mapper_config;
    mapper_config.kernel.s_min = config.s_min;
    mapper_config.kernel.max_locations_per_read = config.max_locations;
    mapper_config.kernel.simd_verification = config.simd_verification;
    mapper_config.schedule = config.schedule;
    mapper_config.scheduler = config.scheduler;
    mapper_config.double_buffer = config.double_buffer;
    std::vector<std::unique_ptr<core::HeterogeneousMapper>> mappers;
    for (std::size_t i = 0; i < count; ++i) {
        mappers.push_back(core::make_repute(session.multi().concatenated(),
                                            session.fm(), shares,
                                            mapper_config));
    }
    return mappers;
}

struct Replay {
    std::size_t reads = 0;
    std::uint64_t occ_words = 0;
    std::uint64_t cigar_calls = 0;
    core::StageTotals stages;
};

/// Seed selection and the full work-item for one read, each spanned.
void replay_kernel(Tracer& tracer, const core::HeterogeneousMapper& mapper,
                   const pipeline::MappingSession& session,
                   const repute::genomics::ReadBatch& batch, Replay& replay) {
    const auto& fm = session.fm();
    const auto& reference = session.multi().concatenated();
    const auto& seeder = mapper.seeder();
    const auto& kernel = mapper.config().kernel;
    repute::filter::SeedPlan plan;
    repute::filter::SeedScratch seed_scratch;
    core::KernelScratch scratch;
    std::vector<std::uint8_t> rc;
    std::vector<core::ReadMapping> out;
    for (const auto& read : batch.reads) {
        {
            // The kernel seeds both strands.
            const Tracer::Scope scope(tracer, "filter.seed", kReplayRequest);
            seeder.select(fm, read.codes, kDelta, plan, seed_scratch);
            read.reverse_complement(rc);
            seeder.select(fm, rc, kDelta, plan, seed_scratch);
        }
        const auto occ_before = repute::index::FmIndex::thread_occ_words();
        {
            const Tracer::Scope scope(tracer, "core.kernel", kReplayRequest);
            core::map_read_workitem(fm, reference, seeder, read, kDelta,
                                    kernel, out, scratch, &replay.stages);
        }
        replay.occ_words +=
            repute::index::FmIndex::thread_occ_words() - occ_before;
        ++replay.reads;
    }
}

std::string totals_table(const std::map<std::string, Tracer::Totals>& totals) {
    std::string table = "layer                     spans     total_s      self_s\n";
    char line[128];
    for (const auto& [name, t] : totals) {
        std::snprintf(line, sizeof line, "%-24s %6zu %11.6f %11.6f\n",
                      name.c_str(), t.count, t.seconds, t.self_seconds);
        table += line;
    }
    return table;
}

} // namespace

int run_traced(const repute::util::Args& args) {
    const std::string index = args.get_string("index", "");
    const std::string reads = args.get_string("reads", "");
    const std::string reads2 = args.get_string("reads2", "");
    const bool paired = !reads2.empty();
    const std::size_t workers = kMapWorkers;

    auto session =
        pipeline::MappingSession::from_rix(index, session_config(workers));

    // 1. Untraced baseline.
    const MapRun untraced = map_file(*session, reads, reads2, workers, nullptr);
    const double untraced_rps =
        static_cast<double>(untraced.response.reads_in) / untraced.wall_seconds;

    // 2. Traced pass.
    Tracer tracer;
    auto platform = repute::ocl::Platform::system1();
    auto mappers = build_mappers(*session, platform, workers);
    std::vector<std::unique_ptr<TracedMapper>> traced;
    std::vector<std::unique_ptr<core::PairedMapper>> paired_mappers;
    for (auto& mapper : mappers) {
        traced.push_back(std::make_unique<TracedMapper>(
            *mapper, tracer, paired ? "core.map_mate" : "core.map"));
        paired_mappers.push_back(std::make_unique<core::PairedMapper>(
            *traced.back(), session->multi().concatenated(),
            core::PairedConfig{}));
    }

    std::ifstream in1(reads, std::ios::binary);
    std::ifstream in2;
    if (paired) in2.open(reads2, std::ios::binary);
    const auto start = Clock::now();
    SamSink sink(nullptr, start);
    std::ostream sam_out(&sink);
    pipeline::SamEmitterConfig emit_config;
    emit_config.cigar = true;
    emit_config.delta = kDelta;
    pipeline::SamEmitter emitter(sam_out, session->multi(), emit_config);
    emitter.write_header();
    pipeline::RecordReorderWriter writer(sam_out);
    pipeline::PipelineConfig pipe_config;
    pipe_config.queue_depth = 4;
    pipe_config.map_workers = workers;

    std::mutex modeled_mutex;
    double modeled_seconds = 0.0;
    std::size_t reads_in = 0;
    pipeline::PipelineStats stats;
    // The first unit is kept for the one-read-at-a-time replay.
    std::optional<std::pair<pipeline::OrderedBatch, core::MapResult>> single_unit;
    std::optional<std::pair<pipeline::OrderedPairBatch, core::PairedResult>>
        paired_unit;

    if (!paired) {
        pipeline::StreamingFastxReader reader(in1, pipeline::StreamingReaderConfig{});
        pipeline::BatchPipeline<pipeline::OrderedBatch, core::MapResult> engine(
            pipe_config);
        stats = engine.run(
            [&](pipeline::OrderedBatch& unit) {
                const Tracer::Scope scope(tracer, "genomics.parse",
                                          kTracedRequest);
                return reader.next_bucket(unit);
            },
            [&](const pipeline::OrderedBatch& unit, std::size_t worker) {
                auto result = traced[worker]->map(unit.batch, kDelta);
                const std::lock_guard lock(modeled_mutex);
                modeled_seconds += result.mapping_seconds;
                return result;
            },
            [&](std::size_t seq, const pipeline::OrderedBatch& unit,
                const core::MapResult& result) {
                for (std::size_t i = 0; i < unit.batch.size(); ++i) {
                    std::string record;
                    {
                        const Tracer::Scope scope(tracer, "pipeline.render",
                                                  kTracedRequest);
                        record = emitter.render_read(unit.batch, i, result);
                    }
                    const Tracer::Scope scope(tracer, "pipeline.write",
                                              kTracedRequest);
                    writer.add(unit.ordinals[i], std::move(record));
                }
                if (seq == 0) single_unit.emplace(unit, result);
            });
        reads_in = reader.stats().records + reader.stats().dropped();
    } else {
        pipeline::PairedStreamingReader reader(in1, in2,
                                               pipeline::StreamingReaderConfig{});
        pipeline::BatchPipeline<pipeline::OrderedPairBatch, core::PairedResult>
            engine(pipe_config);
        stats = engine.run(
            [&](pipeline::OrderedPairBatch& unit) {
                const Tracer::Scope scope(tracer, "genomics.parse",
                                          kTracedRequest);
                return reader.next_bucket(unit);
            },
            [&](const pipeline::OrderedPairBatch& unit, std::size_t worker) {
                core::PairedResult result;
                {
                    const Tracer::Scope scope(tracer, "core.map",
                                              kTracedRequest);
                    result = paired_mappers[worker]->map_pairs(
                        unit.first, unit.second, kDelta);
                }
                const std::lock_guard lock(modeled_mutex);
                modeled_seconds += result.mapping_seconds;
                return result;
            },
            [&](std::size_t seq, const pipeline::OrderedPairBatch& unit,
                const core::PairedResult& result) {
                std::vector<std::string> rendered;
                {
                    const Tracer::Scope scope(tracer, "pipeline.render",
                                              kTracedRequest);
                    rendered = emitter.render_paired(unit.first, unit.second,
                                                     result);
                }
                for (std::size_t i = 0; i < rendered.size(); ++i) {
                    const Tracer::Scope scope(tracer, "pipeline.write",
                                              kTracedRequest);
                    writer.add(unit.ordinals[i], std::move(rendered[i]));
                }
                if (seq == 0) paired_unit.emplace(unit, result);
            });
        reads_in = 2 * (reader.stats().records + reader.stats().dropped());
    }
    {
        const Tracer::Scope scope(tracer, "pipeline.write", kTracedRequest);
        writer.finish();
    }
    const double traced_wall = seconds_between(start, Clock::now());
    const std::string traced_digest = sink.digest();
    const std::size_t records = sink.records();

    // Writer-thread accounting: the spans on the thread that rendered
    // must cover the pipeline's own writer busy time.
    const auto writer_thread = tracer.thread_of("pipeline.render");
    const double writer_span_seconds =
        writer_thread < 0
            ? 0.0
            : tracer.thread_seconds(static_cast<std::uint32_t>(writer_thread));

    // 3. Replay of the first unit, one read at a time.
    Replay replay;
    pipeline::SamEmitter replay_emitter(sam_out, session->multi(), emit_config);
    const auto& multi = session->multi();
    const auto& reference = multi.concatenated();
    if (single_unit) {
        const auto& [unit, result] = *single_unit;
        replay_kernel(tracer, *mappers.front(), *session, unit.batch, replay);
        for (std::size_t i = 0; i < unit.batch.size(); ++i) {
            const auto& read = unit.batch.reads[i];
            const auto length = static_cast<std::uint32_t>(read.length());
            for (const auto& mapping : result.per_read[i]) {
                if (!multi.within_one_sequence(mapping.position, length)) continue;
                const Tracer::Scope scope(tracer, "core.cigar", kReplayRequest);
                core::annotate_mapping(reference, read, mapping, kDelta);
                ++replay.cigar_calls;
            }
            const Tracer::Scope scope(tracer, "pipeline.render_replay",
                                      kReplayRequest);
            replay_emitter.render_read(unit.batch, i, result);
        }
    } else if (paired_unit) {
        const auto& [unit, result] = *paired_unit;
        replay_kernel(tracer, *mappers.front(), *session, unit.first, replay);
        replay_kernel(tracer, *mappers.front(), *session, unit.second, replay);
        {
            // The paired path builds its records (and their CIGAR
            // strings) in paired_to_sam; it does not re-align.
            const Tracer::Scope scope(tracer, "core.cigar", kReplayRequest);
            core::paired_to_sam(unit.first, unit.second, result,
                                reference.name());
        }
        replay.cigar_calls += 2 * unit.first.size();
        const Tracer::Scope scope(tracer, "pipeline.render_replay",
                                  kReplayRequest);
        replay_emitter.render_paired(unit.first, unit.second, result);
    }

    const auto totals = tracer.totals();
    const auto total = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.seconds;
    };
    const std::string trace_path = args.get_string("trace-out", "");
    if (!trace_path.empty()) tracer.write_chrome(trace_path);
    std::fputs(totals_table(totals).c_str(), stdout);

    const auto per = [](double value, std::size_t n) {
        return n == 0 ? 0.0 : value / static_cast<double>(n);
    };
    const auto& st = replay.stages;
    const double candidates = static_cast<double>(st.candidates);
    JsonOut out;
    out.str("untraced_digest", untraced.digest);
    out.str("traced_digest", traced_digest);
    out.num("reads_in", static_cast<double>(reads_in));
    out.num("untraced_reads_per_s", untraced_rps);
    out.num("traced_reads_per_s", static_cast<double>(reads_in) / traced_wall);
    out.raw("pipeline", pipeline_json(untraced.response.pipeline));
    out.raw("traced_pipeline", pipeline_json(stats));
    out.num("writer_span_s", writer_span_seconds);
    out.num("records", static_cast<double>(records));
    out.num("modeled_s", modeled_seconds);
    out.num("parse_s", total("genomics.parse"));
    out.num("map_s", total("core.map"));
    out.num("render_s", total("pipeline.render"));
    out.num("write_s", total("pipeline.write"));
    out.num("replay_reads", static_cast<double>(replay.reads));
    out.num("seed_s", total("filter.seed"));
    out.num("kernel_s", total("core.kernel"));
    out.num("cigar_s", total("core.cigar"));
    out.num("cigar_calls", static_cast<double>(replay.cigar_calls));
    out.num("render_replay_s", total("pipeline.render_replay"));
    out.num("occ_words_per_read", per(static_cast<double>(replay.occ_words),
                                      replay.reads));
    out.num("filtration_ops_per_read",
            per(static_cast<double>(st.filtration_ops), replay.reads));
    out.num("locate_ops_per_read",
            per(static_cast<double>(st.locate_ops), replay.reads));
    out.num("verify_ops_per_read",
            per(static_cast<double>(st.verify_ops), replay.reads));
    out.num("candidates_per_read", per(candidates, replay.reads));
    out.num("prefilter_reject_frac",
            candidates == 0 ? 0.0
                            : static_cast<double>(st.prefilter_rejects) / candidates);
    out.num("accept_frac",
            candidates == 0 ? 0.0 : static_cast<double>(st.accepted) / candidates);
    const double lanes = static_cast<double>(st.simd_lanes + st.simd_tail);
    out.num("simd_lane_occupancy",
            lanes == 0 ? 0.0 : static_cast<double>(st.simd_lanes) / lanes);
    out.save(args.get_string("out", "traced.json"));
    return 0;
}

} // namespace perfbench
