#pragma once
// Shared pieces of the perfbench driver: the shipped session/request
// defaults every workload runs, the ground-truth table, the SAM sink
// that digests and checks output as it streams, the span recorder, and
// a minimal JSON writer for the raw samples run.py aggregates.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/mapping_api.hpp"
#include "util/args.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Edit budget of every workload (the shipped `repute map` default).
constexpr std::uint32_t kDelta = 5;
/// Map workers per request, and the daemon's mapper pool.
constexpr std::size_t kMapWorkers = 4;

/// The shipped session defaults (repute flavor, s_min 14, cap 100,
/// static schedule on system1's i7-2600) with a pool of `mappers`.
repute::pipeline::SessionConfig session_config(std::size_t mappers);

/// The shipped request defaults (δ=5, CIGAR on, batch 4096, queue
/// depth 4) asking for `workers` map workers.
repute::pipeline::MapRequest map_request(std::istream* reads,
                                         std::istream* reads2,
                                         std::size_t workers);

/// Where each simulated read came from. Single-end: forward-strand
/// start and strand per read. Paired: mate 1 maps forward at pos1,
/// mate 2 reverse at pos2.
struct Truth {
    bool paired = false;
    std::vector<std::uint32_t> pos1;
    std::vector<std::uint8_t> reverse1;
    std::vector<std::uint32_t> pos2;

    std::size_t size() const noexcept { return pos1.size(); }
    static Truth load(const std::string& path);
    void save(const std::string& path) const;
};

/// Unbuffered output sink for SAM bytes. It hashes the byte stream in
/// fixed 64 KiB blocks (so the digest depends on the bytes only, never
/// on how writes were split), timestamps the first record, and, given a
/// truth table, marks reads whose true origin (within δ, same strand)
/// appears in any record.
class SamSink final : public std::streambuf {
public:
    explicit SamSink(const Truth* truth = nullptr,
                     Clock::time_point start = Clock::now());

    /// Hex digest of every byte written so far (plus the byte count).
    std::string digest();
    /// Seconds from `start` to the first non-header byte (-1 if none).
    double first_record_seconds() const noexcept { return first_record_; }
    std::size_t records() const noexcept { return records_; }
    /// Reads (pairs: both mates) whose true origin was reported.
    std::size_t recalled() const;

protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* data, std::streamsize n) override;

private:
    void consume(const char* data, std::size_t n);
    void hash_block(std::string_view block);
    void on_line(std::string_view line);

    const Truth* truth_;
    Clock::time_point start_;
    std::string block_;
    std::string partial_;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
    std::uint64_t bytes_ = 0;
    std::size_t records_ = 0;
    double first_record_ = -1.0;
    std::vector<std::uint8_t> found1_;
    std::vector<std::uint8_t> found2_;
};

/// In-memory span recorder. Spans nest per thread (the parent is the
/// innermost open span on the same thread) and carry a request id.
class Tracer {
public:
    struct Span {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        std::int64_t parent = -1;
        std::uint32_t thread = 0;
        std::uint32_t request = 0;
    };

    class Scope {
    public:
        Scope(Tracer& tracer, const char* name, std::uint32_t request)
            : tracer_(&tracer), id_(tracer.begin(name, request)) {}
        ~Scope() { tracer_->end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        std::int64_t id_;
    };

    std::int64_t begin(const char* name, std::uint32_t request);
    void end(std::int64_t id);

    /// Summed duration and self time (duration minus direct children)
    /// per span name, in seconds.
    struct Totals {
        double seconds = 0.0;
        double self_seconds = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, Totals> totals() const;
    /// Summed duration of the top-level spans recorded on `thread`.
    double thread_seconds(std::uint32_t thread) const;
    /// Thread index of the first span called `name` (-1 if none).
    std::int64_t thread_of(const std::string& name) const;

    /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
    void write_chrome(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

/// One MappingSession::map() over FASTQ file(s), output digested.
struct MapRun {
    repute::pipeline::MapResponse response;
    std::string digest;
    double wall_seconds = 0.0;
    double first_record_seconds = 0.0;
    std::size_t recalled = 0;
};
/// `reads2` empty = single-end.
MapRun map_file(repute::pipeline::MappingSession& session,
                const std::string& reads, const std::string& reads2,
                std::size_t workers, const Truth* truth);

/// JSON array of numbers, full precision.
std::string json_array(const std::vector<double>& values);

/// Tiny JSON object writer for flat result files.
class JsonOut {
public:
    void num(const std::string& key, double value);
    void str(const std::string& key, const std::string& value);
    void nums(const std::string& key, const std::vector<double>& values);
    void raw(const std::string& key, const std::string& json);
    std::string text() const { return "{" + body_ + "}"; }
    void save(const std::string& path) const;

private:
    void key(const std::string& k);
    std::string body_;
};

std::string pipeline_json(const repute::pipeline::PipelineStats& stats);

/// Peak resident set of this process, MB.
double peak_rss_mb();
/// User + system CPU seconds of this process so far.
double cpu_seconds();

int run_gen(const repute::util::Args& args);
int run_batch(const repute::util::Args& args);
int run_traced(const repute::util::Args& args);
int run_serve(const repute::util::Args& args);
int run_load(const repute::util::Args& args);

} // namespace perfbench
