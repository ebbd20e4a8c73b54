// `perfbench serve` and `perfbench load`: the daemon layer, measured in
// the traced run of each workload (on that workload's index).
//
// serve: a serve::Server (2 handlers) over a MappingSession with a pool
// of 4 mappers on a .rix index — what `repute serve` runs. It prints
// "ready <set-up seconds>" once the socket listens, and drains on
// SIGTERM.
//
// load: an open-loop generator. Requests come from a seeded pool of
// 128-read single-end and 64-pair paired payloads, kRequestsPerSecond x
// --seconds of them on a seeded Poisson schedule (see schedule()). At most
// min(nproc, 4) threads send; each request is timed from its due time,
// so a stall also delays the requests queued behind it, and how late
// each send left is reported as the schedule lag. Every response must
// be byte-equal to the same payload mapped alone through a local
// session.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

namespace serve = repute::serve;

/// Offered load; the 4-core reference host saturates near 24 requests/s
/// on the 4 Mbp index.
constexpr double kRequestsPerSecond = 6.0;

std::atomic<serve::Server*> g_server{nullptr};

extern "C" void on_stop_signal(int) {
    if (auto* server = g_server.load()) server->stop();
}

/// FASTQ file split into payloads of `per_request` records each.
std::vector<std::string> split_fastq(const std::string& path,
                                     std::size_t per_request) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("load: cannot read " + path);
    std::vector<std::string> payloads;
    std::string line, current;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        current += line;
        current += '\n';
        if (++lines == 4 * per_request) {
            payloads.push_back(std::move(current));
            current.clear();
            lines = 0;
        }
    }
    if (!current.empty()) payloads.push_back(std::move(current));
    return payloads;
}

struct Payload {
    serve::WireRequest wire;
    std::string digest;
    double staged_bytes = 0.0;
};

int connect_to(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("load: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("load: cannot connect to " + path + ": " + why);
    }
    return fd;
}

struct Sample {
    double ttfb_ms = 0.0;
    double tail_ms = 0.0;
    double lag_ms = 0.0;
    bool ok = false;
};

Sample send_one(const std::string& socket_path, const Payload& payload,
                Clock::time_point due) {
    Sample sample;
    const auto sent = Clock::now();
    sample.lag_ms = 1e3 * seconds_between(due, sent);
    const int fd = connect_to(socket_path);
    SamSink sink(nullptr, due);
    std::optional<Clock::time_point> first_chunk;
    try {
        const std::string frame = serve::encode_request(payload.wire);
        serve::write_frame(fd, serve::FrameType::Request, frame.data(),
                           frame.size());
        for (;;) {
            const serve::Frame reply = serve::read_frame(fd);
            if (reply.type == serve::FrameType::SamChunk) {
                if (!first_chunk) first_chunk = Clock::now();
                sink.sputn(reply.payload.data(),
                           static_cast<std::streamsize>(reply.payload.size()));
                continue;
            }
            if (reply.type == serve::FrameType::Error) {
                std::fprintf(stderr, "load: server error: %s\n",
                             reply.payload.c_str());
            }
            sample.ok = reply.type == serve::FrameType::Done;
            break;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "load: request failed: %s\n", e.what());
        sample.ok = false;
    }
    ::close(fd);
    const auto done = Clock::now();
    if (sample.ok && sink.digest() != payload.digest) {
        std::fprintf(stderr, "load: response differs from the payload "
                             "mapped alone\n");
        sample.ok = false;
    }
    const auto first = first_chunk.value_or(done);
    sample.ttfb_ms = 1e3 * seconds_between(due, first);
    sample.tail_ms = 1e3 * seconds_between(first, done);
    return sample;
}

/// One scheduled request.
struct Due {
    double at = 0.0; ///< seconds after the window opens
    const Payload* payload = nullptr;
};

/// The open-loop schedule: `requests` due times of a Poisson process at
/// `rate` conditioned on that many arrivals (sorted uniform times over
/// requests / rate seconds). Exactly half are single-end, in seeded
/// order.
std::vector<Due> schedule(double rate, std::size_t requests,
                          const std::vector<Payload>& single,
                          const std::vector<Payload>& paired,
                          repute::util::Xoshiro256& rng) {
    std::vector<Due> due(requests);
    const double window = static_cast<double>(requests) / rate;
    std::vector<double> times(requests);
    for (auto& t : times) t = rng.uniform() * window;
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < requests; ++i) {
        due[i].at = times[i];
        due[i].payload = i % 2 == 0 ? &single[rng.bounded(single.size())]
                                    : &paired[rng.bounded(paired.size())];
    }
    for (std::size_t i = requests; i > 1; --i) {
        std::swap(due[i - 1].payload, due[rng.bounded(i)].payload);
    }
    return due;
}

std::vector<Sample> send_all(const std::string& socket_path,
                             const std::vector<Due>& due,
                             std::size_t senders) {
    std::vector<Sample> samples(due.size());
    std::atomic<std::size_t> next{0};
    const auto window = Clock::now() + std::chrono::milliseconds(50);
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < senders; ++s) {
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= due.size()) return;
                const auto at =
                    window + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due[i].at));
                std::this_thread::sleep_until(at);
                try {
                    samples[i] = send_one(socket_path, *due[i].payload, at);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "load: %s\n", e.what());
                    samples[i].ok = false;
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    return samples;
}

} // namespace

int run_serve(const repute::util::Args& args) {
    const auto start = Clock::now();
    auto session = repute::pipeline::MappingSession::from_rix(
        args.get_string("index", ""),
        session_config(kMapWorkers));
    serve::ServerConfig config;
    config.socket_path = args.get_string("socket", "");
    config.handlers = 2;
    serve::Server server(*session, config);
    const double setup = seconds_between(start, Clock::now());

    g_server.store(&server);
    struct sigaction action{};
    action.sa_handler = on_stop_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    std::printf("ready %.9f\n", setup);
    std::fflush(stdout);
    const std::size_t handled = server.run();
    g_server.store(nullptr);
    std::printf("served %zu\n", handled);
    return 0;
}

int run_load(const repute::util::Args& args) {
    const std::string socket_path = args.get_string("socket", "");
    const std::size_t senders = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    const double seconds = args.get_double("seconds", 10.0);
    repute::util::Xoshiro256 rng(
        static_cast<std::uint64_t>(args.get_int("seed", 1)) ^
        0x5e7e5e7eULL);

    const auto se = split_fastq(args.get_string("se-reads", ""), 128);
    const auto pe1 = split_fastq(args.get_string("pe-reads1", ""), 64);
    const auto pe2 = split_fastq(args.get_string("pe-reads2", ""), 64);
    if (se.empty() || pe1.empty() || pe1.size() != pe2.size()) {
        throw std::runtime_error("load: empty or mismatched request pools");
    }

    // Each payload mapped alone: the bytes every response must match.
    std::vector<Payload> single, paired;
    {
        auto session = repute::pipeline::MappingSession::from_rix(
            args.get_string("index", ""), session_config(1));
        const auto reference = [&](serve::WireRequest wire) {
            std::istringstream in1(wire.reads), in2(wire.reads2);
            SamSink sink;
            std::ostream out(&sink);
            const auto response = session->map(
                map_request(&in1, wire.reads2.empty() ? nullptr : &in2, 1),
                out);
            wire.map_workers = static_cast<std::uint32_t>(kMapWorkers);
            Payload payload;
            payload.digest = sink.digest();
            payload.staged_bytes =
                static_cast<double>(response.xfer_bytes_staged);
            payload.wire = std::move(wire);
            return payload;
        };
        for (const auto& reads : se) {
            serve::WireRequest wire;
            wire.reads = reads;
            single.push_back(reference(std::move(wire)));
        }
        for (std::size_t i = 0; i < pe1.size(); ++i) {
            serve::WireRequest wire;
            wire.reads = pe1[i];
            wire.reads2 = pe2[i];
            paired.push_back(reference(std::move(wire)));
        }
    }

    const auto requests = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(kRequestsPerSecond * seconds)));
    const auto due =
        schedule(kRequestsPerSecond, requests, single, paired, rng);
    const auto samples = send_all(socket_path, due, senders);

    std::vector<double> ttfb, tail, lag;
    std::size_t failed = 0;
    // MappingSession::map reports staged bytes for single-end requests
    // only, so the average runs over those (at least one: the schedule
    // makes every other request single-end).
    std::size_t single_requests = 0;
    double staged = 0.0;
    for (std::size_t i = 0; i < due.size(); ++i) {
        const auto& s = samples[i];
        if (due[i].payload->wire.reads2.empty()) {
            ++single_requests;
            staged += due[i].payload->staged_bytes;
        }
        lag.push_back(s.lag_ms);
        if (!s.ok) {
            ++failed;
            continue;
        }
        ttfb.push_back(s.ttfb_ms);
        tail.push_back(s.tail_ms);
    }
    JsonOut out;
    out.num("rate", kRequestsPerSecond);
    out.num("senders", static_cast<double>(senders));
    out.num("attempted", static_cast<double>(requests));
    out.num("failed", static_cast<double>(failed));
    out.nums("ttfb_ms", ttfb);
    out.nums("tail_ms", tail);
    out.nums("sched_lag_ms", lag);
    out.num("single_end_requests", static_cast<double>(single_requests));
    out.num("xfer_bytes_staged_per_req",
            staged / static_cast<double>(single_requests));
    out.save(args.get_string("out", "load.json"));
    return 0;
}

} // namespace perfbench
