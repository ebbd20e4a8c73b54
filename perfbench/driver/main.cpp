// perfbench — the end-to-end benchmark driver. run.py calls it with one
// subcommand per step:
//
//   gen     write a reference + .rix index, or simulated reads + truth
//   batch   time MappingSession::map on a FASTQ (or mate pair) file
//   traced  per-layer spans and a one-read-at-a-time kernel replay
//   serve   a serve::Server daemon on a Unix socket
//   load    an open-loop request generator against that daemon
//
// Every subcommand writes its raw samples as one JSON object to --out;
// aggregation (medians, quantiles, the result line) lives in run.py.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

repute::pipeline::SessionConfig session_config(std::size_t mappers) {
    repute::pipeline::SessionConfig config;
    config.mapper_pool = mappers;
    return config;
}

repute::pipeline::MapRequest map_request(std::istream* reads,
                                         std::istream* reads2,
                                         std::size_t workers) {
    repute::pipeline::MapRequest request;
    request.reads = reads;
    request.reads2 = reads2;
    request.delta = kDelta;
    request.cigar = true;
    request.map_workers = workers;
    request.queue_depth = 4;
    return request;
}

void JsonOut::key(const std::string& k) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + k + "\":";
}

void JsonOut::num(const std::string& k, double value) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    body_ += buf;
}

void JsonOut::str(const std::string& k, const std::string& value) {
    key(k);
    body_ += '"' + value + '"';
}

std::string json_array(const std::vector<double>& values) {
    std::string out = "[";
    char buf[40];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",",
                      std::isfinite(values[i]) ? values[i] : 0.0);
        out += buf;
    }
    return out + ']';
}

void JsonOut::nums(const std::string& k, const std::vector<double>& values) {
    raw(k, json_array(values));
}

void JsonOut::raw(const std::string& k, const std::string& json) {
    key(k);
    body_ += json;
}

void JsonOut::save(const std::string& path) const {
    std::ofstream out(path);
    out << text() << '\n';
    if (!out) throw std::runtime_error("cannot write " + path);
}

std::string pipeline_json(const repute::pipeline::PipelineStats& stats) {
    JsonOut json;
    json.num("units", static_cast<double>(stats.units));
    json.num("max_in_flight", static_cast<double>(stats.max_in_flight));
    json.num("reader_busy_s", stats.reader_seconds);
    json.num("map_busy_s", stats.map_seconds);
    json.num("writer_busy_s", stats.writer_seconds);
    json.num("reader_stall_s", stats.reader_stall_seconds);
    json.num("map_stall_s", stats.map_stall_seconds);
    json.num("writer_stall_s", stats.writer_stall_seconds);
    json.num("wall_s", stats.wall_seconds);
    return json.text();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

} // namespace perfbench

int main(int argc, char** argv) {
    try {
        const repute::util::Args args(argc, argv);
        const auto& positional = args.positional();
        const std::string command = positional.empty() ? "" : positional[0];
        if (command == "gen") return perfbench::run_gen(args);
        if (command == "batch") return perfbench::run_batch(args);
        if (command == "traced") return perfbench::run_traced(args);
        if (command == "serve") return perfbench::run_serve(args);
        if (command == "load") return perfbench::run_load(args);
        std::fprintf(stderr,
                     "usage: perfbench gen|batch|traced|serve|load "
                     "[--key value ...]\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
