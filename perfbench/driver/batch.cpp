// `perfbench batch`: the untraced end-to-end measurement of one batch
// workload through MappingSession (from_rix, then map) — the path
// `repute map --index` takes.
//
//   1. set-up: from_rix + mapper pool, 9 times (each timed);
//   2. reference: one map() with 1 map worker, which fixes the SAM
//      digest every later run must match and scores truth recall;
//   3. measurement: map() with 4 map workers, repeated until
//      --seconds have passed (at least once), each output digested.

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

using repute::pipeline::MappingSession;

MapRun map_file(MappingSession& session, const std::string& reads,
                const std::string& reads2, std::size_t workers,
                const Truth* truth) {
    std::ifstream in1(reads, std::ios::binary);
    std::ifstream in2;
    if (!reads2.empty()) in2.open(reads2, std::ios::binary);
    if (!in1 || (!reads2.empty() && !in2)) {
        throw std::runtime_error("cannot open the read files " + reads);
    }
    const auto request =
        map_request(&in1, reads2.empty() ? nullptr : &in2, workers);
    const auto start = Clock::now();
    SamSink sink(truth, start);
    std::ostream out(&sink);
    MapRun run;
    run.response = session.map(request, out);
    run.wall_seconds = seconds_between(start, Clock::now());
    run.digest = sink.digest();
    run.first_record_seconds = sink.first_record_seconds();
    run.recalled = sink.recalled();
    return run;
}

int run_batch(const repute::util::Args& args) {
    const std::string index = args.get_string("index", "");
    const std::string reads = args.get_string("reads", "");
    const std::string reads2 = args.get_string("reads2", "");
    const double seconds = args.get_double("seconds", 10.0);
    const Truth truth = Truth::load(args.get_string("truth", ""));

    // Set-up is short and noisy, so it is timed several times.
    constexpr int kSetups = 9;
    std::vector<double> setup_seconds;
    std::unique_ptr<MappingSession> session;
    for (int i = 0; i < kSetups; ++i) {
        session.reset();
        const auto start = Clock::now();
        session = MappingSession::from_rix(index, session_config(kMapWorkers));
        setup_seconds.push_back(seconds_between(start, Clock::now()));
    }

    const MapRun reference = map_file(*session, reads, reads2, 1, &truth);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t reads_total = 0;
    std::vector<double> reads_per_s, first_record_ms;
    const double cpu_start = cpu_seconds();
    const auto measure_start = Clock::now();
    while (attempted == 0 ||
           seconds_between(measure_start, Clock::now()) < seconds) {
        ++attempted;
        MapRun run;
        try {
            run = map_file(*session, reads, reads2, kMapWorkers, nullptr);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "batch: map failed: %s\n", e.what());
            ++failed;
            continue;
        }
        if (run.digest != reference.digest ||
            run.response.reads_in != reference.response.reads_in) {
            std::fprintf(stderr,
                         "batch: SAM digest %s differs from the 1-worker "
                         "reference %s\n",
                         run.digest.c_str(), reference.digest.c_str());
            ++failed;
            continue;
        }
        reads_total += run.response.reads_in;
        reads_per_s.push_back(static_cast<double>(run.response.reads_in) /
                              run.wall_seconds);
        first_record_ms.push_back(1e3 * run.first_record_seconds);
    }
    const double cpu_used = cpu_seconds() - cpu_start;

    JsonOut out;
    out.num("attempted", static_cast<double>(attempted));
    out.num("failed", static_cast<double>(failed));
    out.nums("setup_s", setup_seconds);
    out.num("reference_reads",
            static_cast<double>(reference.response.reads_in));
    out.num("truth_reads", static_cast<double>(truth.size()));
    out.num("truth_recalled", static_cast<double>(reference.recalled));
    out.nums("reads_per_s", reads_per_s);
    out.nums("first_record_ms", first_record_ms);
    out.num("reads_total", static_cast<double>(reads_total));
    out.num("cpu_s", cpu_used);
    out.num("peak_rss_mb", peak_rss_mb());
    out.save(args.get_string("out", "batch.json"));
    return 0;
}

} // namespace perfbench
