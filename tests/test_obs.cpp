// Observability: the metrics registry, the trace recorder, the stage
// sub-span splitter, the Chrome-trace exporter — and the contract that
// spans live on the modeled device clock, so a traced mapping run is
// byte-for-byte reproducible and its span totals agree with
// MapResult::mapping_seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/repute_mapper.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ocl/device.hpp"

namespace {

using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::SimulatedReads;
using repute::index::FmIndex;
using repute::obs::MetricsRegistry;
using repute::obs::StageCounters;
using repute::obs::TraceRecorder;
using repute::obs::TraceSession;
using repute::obs::TraceSpan;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

// ------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
    MetricsRegistry registry;
    auto& c = registry.counter("test.counter");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name -> same object.
    EXPECT_EQ(&registry.counter("test.counter"), &c);

    registry.gauge("test.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(registry.gauge("test.gauge").value(), 2.5);

    auto& h = registry.histogram("test.hist");
    h.observe(1.0);
    h.observe(3.0);
    h.observe(2.0);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 3.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 2.0);

    const auto text = registry.format();
    EXPECT_NE(text.find("test.counter"), std::string::npos) << text;
    EXPECT_NE(text.find("test.gauge"), std::string::npos);
    EXPECT_NE(text.find("test.hist"), std::string::npos);
}

TEST(Metrics, EmptyHistogramSnapshotIsZero) {
    repute::obs::Histogram h;
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(Metrics, HistogramReportsExactZerosAsZero) {
    // Half the observations are exact zeros (idle SIMD lanes, say): a
    // quantile landing on them must read 0, not the smallest log
    // bucket's upper bound (2^-31).
    repute::obs::Histogram h;
    for (int i = 0; i < 50; ++i) h.observe(0.0);
    for (int i = 0; i < 50; ++i) h.observe(0.75);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.zeros, 50u);
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.25), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0); // rank 49: the last zero
    // Past the zeros the log buckets answer as before (0.75 sits in
    // [0.5, 1), clamped to the observed max).
    EXPECT_DOUBLE_EQ(snap.quantile(0.6), 0.75);
    EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.75);
}

// ------------------------------------------------- session installation

TEST(TraceSessionTest, NothingInstalledByDefault) {
    EXPECT_EQ(repute::obs::trace(), nullptr);
    EXPECT_EQ(repute::obs::metrics(), nullptr);
}

TEST(TraceSessionTest, InstallsForScopeAndUninstalls) {
    {
        TraceSession session;
        EXPECT_EQ(repute::obs::trace(), &session.recorder());
        EXPECT_EQ(repute::obs::metrics(), &session.registry());
    }
    EXPECT_EQ(repute::obs::trace(), nullptr);
    EXPECT_EQ(repute::obs::metrics(), nullptr);
}

TEST(TraceSessionTest, NestedSessionThrows) {
    TraceSession outer;
    EXPECT_THROW(TraceSession inner, std::logic_error);
    // The failed nesting must not have clobbered the outer install.
    EXPECT_EQ(repute::obs::trace(), &outer.recorder());
}

// ---------------------------------------------------- stage sub-spans

TEST(StageSpans, SplitProportionalToOpsAndContiguous) {
    TraceRecorder recorder;
    StageCounters counters;
    counters.filtration_ops = 100;
    counters.locate_ops = 300;
    counters.verify_ops = 600;
    // Launch [2.0, 2.0 + 0.1 overhead + 1.0 compute].
    repute::obs::record_stage_spans(recorder, "devA", 0, 2.0, 0.1, 1.1,
                                    counters);
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].stage, "filtration");
    EXPECT_EQ(spans[1].stage, "locate");
    EXPECT_EQ(spans[2].stage, "verify");
    EXPECT_NEAR(spans[0].duration_seconds, 0.1, 1e-12);
    EXPECT_NEAR(spans[1].duration_seconds, 0.3, 1e-12);
    EXPECT_NEAR(spans[2].duration_seconds, 0.6, 1e-12);
    // Contiguous, starting past the dispatch overhead.
    EXPECT_NEAR(spans[0].start_seconds, 2.1, 1e-12);
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_NEAR(spans[i].start_seconds,
                    spans[i - 1].start_seconds +
                        spans[i - 1].duration_seconds,
                    1e-12);
    }
    // Stage totals were accumulated.
    const auto totals = recorder.stage_totals();
    ASSERT_EQ(totals.count("devA"), 1u);
    EXPECT_EQ(totals.at("devA").locate_ops, 300u);
}

TEST(StageSpans, ZeroOpStagesSkipped) {
    TraceRecorder recorder;
    StageCounters counters;
    counters.verify_ops = 10;
    repute::obs::record_stage_spans(recorder, "devA", 0, 0.0, 0.0, 1.0,
                                    counters);
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].stage, "verify");
    EXPECT_NEAR(spans[0].duration_seconds, 1.0, 1e-12);
}

// ------------------------------------------------- end-to-end tracing

class ObsMappingTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 80'000;
        gconfig.seed = 77;
        reference_ = new Reference(simulate_genome(gconfig));
        fm_ = new FmIndex(*reference_, 4);
        ReadSimConfig rconfig;
        rconfig.n_reads = 120;
        rconfig.read_length = 100;
        rconfig.max_errors = 4;
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

    static DeviceProfile profile(const char* name) {
        DeviceProfile p;
        p.name = name;
        p.compute_units = 8;
        p.ops_per_unit_per_second = 1e9;
        p.global_memory_bytes = 1ULL << 30;
        p.private_memory_per_unit = 1 << 20;
        p.dispatch_overhead_seconds = 1e-4;
        return p;
    }

    /// One full static two-device mapping run under a fresh session;
    /// returns the Chrome JSON and, optionally, the mapped seconds and
    /// busy totals via out-params.
    static std::string traced_run(double* mapping_seconds = nullptr,
                                  std::string* summary = nullptr) {
        Device a(profile("obs-a"));
        Device b(profile("obs-b"));
        TraceSession session;
        auto mapper = repute::core::make_repute(*reference_, *fm_,
                                                {{&a, 0.6}, {&b, 0.4}});
        const auto result = mapper->map(sim_->batch, 4);
        if (mapping_seconds != nullptr) {
            *mapping_seconds = result.mapping_seconds;
        }

        // Per-device launch-span totals equal the modeled device time;
        // the fleet maximum is the reported mapping time.
        const auto busy = session.recorder().device_busy_seconds();
        EXPECT_EQ(busy.size(), 2u);
        double max_busy = 0.0;
        for (const auto& [device, seconds] : busy) {
            max_busy = std::max(max_busy, seconds);
        }
        EXPECT_NEAR(max_busy, result.mapping_seconds,
                    1e-9 * result.mapping_seconds);

        // Stage totals in the recorder match the per-run breakdown.
        const auto totals = session.recorder().stage_totals();
        for (const auto& run : result.device_runs) {
            const auto it = totals.find(run.device_name);
            EXPECT_NE(it, totals.end()) << run.device_name;
            if (it != totals.end()) {
                EXPECT_EQ(it->second.total_ops(), run.stage.total_ops());
            }
        }

        if (summary != nullptr) {
            *summary = repute::obs::stage_summary(session.recorder(),
                                                  &session.registry());
        }
        return repute::obs::chrome_trace_json(session.recorder());
    }

    static Reference* reference_;
    static FmIndex* fm_;
    static SimulatedReads* sim_;
};

Reference* ObsMappingTest::reference_ = nullptr;
FmIndex* ObsMappingTest::fm_ = nullptr;
SimulatedReads* ObsMappingTest::sim_ = nullptr;

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings, no trailing comma before a closer. Not a full parser — just
/// enough to catch exporter formatting bugs.
void expect_well_formed_json(const std::string& json) {
    std::vector<char> stack;
    bool in_string = false;
    char prev_significant = '\0';
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i; // skip the escaped char
            } else if (c == '"') {
                in_string = false;
                prev_significant = '"';
            }
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': stack.push_back('}'); break;
        case '[': stack.push_back(']'); break;
        case '}':
        case ']':
            ASSERT_FALSE(stack.empty()) << "unbalanced at byte " << i;
            ASSERT_EQ(stack.back(), c) << "mismatched at byte " << i;
            ASSERT_NE(prev_significant, ',') << "trailing comma at " << i;
            stack.pop_back();
            break;
        default: break;
        }
        if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
            prev_significant = c;
        }
    }
    EXPECT_FALSE(in_string) << "unterminated string";
    EXPECT_TRUE(stack.empty()) << "unbalanced JSON";
}

TEST_F(ObsMappingTest, ChromeTraceStructureAndContent) {
    std::string summary;
    const auto json = traced_run(nullptr, &summary);
    expect_well_formed_json(json);
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
    // Metadata names both device processes; complete spans and stage
    // args are present.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("obs-a"), std::string::npos);
    EXPECT_NE(json.find("obs-b"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("filtration"), std::string::npos);
    EXPECT_NE(json.find("verify"), std::string::npos);

    // The text summary reports both devices and the stage columns.
    EXPECT_NE(summary.find("obs-a"), std::string::npos) << summary;
    EXPECT_NE(summary.find("filtration"), std::string::npos);
    EXPECT_NE(summary.find("kernel.candidates_per_read"),
              std::string::npos);
}

TEST_F(ObsMappingTest, TraceIsByteDeterministicAcrossRuns) {
    // Fresh devices + fresh session each time: identical runs must
    // export byte-identical traces (static schedule; the modeled clock
    // has no host-time dependence).
    double t1 = 0.0, t2 = 0.0;
    const auto a = traced_run(&t1);
    const auto b = traced_run(&t2);
    EXPECT_DOUBLE_EQ(t1, t2);
    EXPECT_EQ(a, b);
}

TEST_F(ObsMappingTest, UntracedRunRecordsNothingAndMatchesTraced) {
    // No session: instrumentation must stay silent and the mapping
    // output must match a traced run exactly.
    Device plain(profile("obs-a"));
    auto mapper =
        repute::core::make_repute(*reference_, *fm_, {{&plain, 1.0}});
    ASSERT_EQ(repute::obs::trace(), nullptr);
    const auto untraced = mapper->map(sim_->batch, 4);

    Device traced_dev(profile("obs-a"));
    TraceSession session;
    auto traced_mapper = repute::core::make_repute(*reference_, *fm_,
                                                   {{&traced_dev, 1.0}});
    const auto traced = traced_mapper->map(sim_->batch, 4);
    EXPECT_FALSE(session.recorder().spans().empty());

    ASSERT_EQ(untraced.per_read.size(), traced.per_read.size());
    for (std::size_t i = 0; i < untraced.per_read.size(); ++i) {
        EXPECT_EQ(untraced.per_read[i], traced.per_read[i]);
    }
    EXPECT_DOUBLE_EQ(untraced.mapping_seconds, traced.mapping_seconds);
}

TEST_F(ObsMappingTest, StaticRunLeavesScheduleEmpty) {
    Device dev(profile("obs-a"));
    auto mapper =
        repute::core::make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);
    EXPECT_FALSE(result.used_dynamic_schedule());
    EXPECT_FALSE(result.schedule.has_value());
}

TEST_F(ObsMappingTest, DynamicRunRecordsSchedulerEvents) {
    Device a(profile("obs-a"));
    Device b(profile("obs-b"));
    TraceSession session;
    repute::core::HeterogeneousMapperConfig config;
    config.schedule = repute::core::ScheduleMode::Dynamic;
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&a, 0.5}, {&b, 0.5}},
                                            config);
    const auto result = mapper->map(sim_->batch, 4);
    ASSERT_TRUE(result.used_dynamic_schedule());

    // Chunk spans on the scheduler track, one per executed chunk.
    std::size_t chunk_spans = 0;
    for (const auto& span : session.recorder().spans()) {
        if (span.track == repute::obs::kSchedulerTrack &&
            span.chunk >= 0) {
            ++chunk_spans;
        }
    }
    EXPECT_EQ(chunk_spans, result.schedule->chunks);
    EXPECT_EQ(session.registry().counter("scheduler.chunks").value(),
              result.schedule->chunks);
}

} // namespace
