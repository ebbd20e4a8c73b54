#pragma once
// Bounded, ordered, streaming batch pipeline.
//
// Three stages connected by bounded queues:
//
//   reader thread --in queue--> map workers --out queue--> writer thread
//
// The reader pulls units (read batches) from a source callback, the map
// workers transform them (heterogeneous mapping), and the writer emits
// results through a sink callback *in input order* — an ordering buffer
// in the writer holds early-finishing units until their turn, so output
// is deterministic even when a skewed device fleet completes batches
// out of order. Bounded queues give backpressure in both directions:
// the reader can run at most queue_depth batches ahead (batch i+1
// parses while batch i maps — the double buffer generalized), and a
// slow writer pauses mapping rather than letting results pile up. The
// ordering buffer is bounded too: the reader admits a unit only while
// fewer than 2 x queue_depth + map_workers + 2 units are resident
// anywhere (both queues full, every worker busy, one unit in the
// reader's hands, one being emitted), so a worker stuck on one slow
// unit cannot let the others race ahead without limit. Peak pipeline
// memory is therefore O(queue_depth x batch size), not file size.
//
// The template is unit-agnostic so single-end batches (ReadBatch ->
// MapResult) and paired lockstep batches share one engine; see
// mapping_pipeline.hpp for the concrete mapping front-ends.
//
// Error handling: the first exception thrown by any stage closes both
// queues, drains the pipeline, and is rethrown from run() on the
// calling thread.

#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/bounded_queue.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "util/timer.hpp"

namespace repute::pipeline {

struct PipelineConfig {
    /// Capacity, in batches, of each inter-stage queue (clamped >= 1).
    std::size_t queue_depth = 4;
    /// Concurrent map-stage workers; worker w receives index w in the
    /// map callback so each can own its mapper instance.
    std::size_t map_workers = 1;
};

template <typename Unit, typename Result>
class BatchPipeline {
public:
    /// Fills `unit` with the next input; false when exhausted.
    using Source = std::function<bool(Unit& unit)>;
    /// Transforms one unit on map worker `worker`.
    using MapFn = std::function<Result(const Unit& unit,
                                       std::size_t worker)>;
    /// Receives (sequence number, unit, result) strictly in input order.
    using Sink = std::function<void(std::size_t seq, const Unit& unit,
                                    const Result& result)>;

    explicit BatchPipeline(PipelineConfig config) : config_(config) {
        if (config_.queue_depth == 0) config_.queue_depth = 1;
        if (config_.map_workers == 0) config_.map_workers = 1;
    }

    /// Runs the pipeline to completion (or first error) and returns the
    /// per-stage accounting.
    PipelineStats run(const Source& source, const MapFn& map,
                      const Sink& sink) {
        struct Mapped {
            Unit unit;
            Result result;
        };
        BoundedQueue<std::pair<std::size_t, Unit>> in(config_.queue_depth);
        BoundedQueue<std::pair<std::size_t, Mapped>> out(
            config_.queue_depth);

        PipelineStats stats;
        stats.map_workers = config_.map_workers;
        stats.queue_depth = config_.queue_depth;
        std::mutex stats_mutex;
        std::exception_ptr first_error;
        std::mutex error_mutex;
        InFlightGauge in_flight;

        auto capture = [&](std::exception_ptr error) {
            {
                const std::lock_guard lock(error_mutex);
                if (!first_error) first_error = std::move(error);
            }
            // A failed stage may strand units the writer will never
            // emit; the reader must not wait for their window slots.
            in_flight.cancel();
        };
        const std::size_t window =
            2 * config_.queue_depth + config_.map_workers + 2;
        double window_stall_seconds = 0.0;

        const util::Stopwatch wall;

        std::thread reader([&] {
            try {
                std::size_t seq = 0;
                util::Stopwatch busy;
                for (;;) {
                    busy.reset();
                    const bool admitted = in_flight.wait_below(window);
                    window_stall_seconds += busy.seconds();
                    if (!admitted) break; // an error elsewhere
                    busy.reset();
                    Unit unit;
                    const bool more = source(unit);
                    {
                        const std::lock_guard lock(stats_mutex);
                        stats.reader_seconds += busy.seconds();
                    }
                    if (!more) break;
                    in_flight.enter();
                    detail::gauge_set("pipeline.batches_in_flight",
                                      in_flight.current());
                    if (!in.push({seq, std::move(unit)})) {
                        in_flight.leave();
                        break; // closed by an error elsewhere
                    }
                    detail::gauge_set("pipeline.input_queue_depth",
                                      static_cast<double>(in.depth()));
                    ++seq;
                }
            } catch (...) {
                capture(std::current_exception());
            }
            in.close();
        });

        std::vector<std::thread> workers;
        workers.reserve(config_.map_workers);
        std::mutex workers_open_mutex;
        std::size_t workers_open = config_.map_workers;
        for (std::size_t w = 0; w < config_.map_workers; ++w) {
            workers.emplace_back([&, w] {
                try {
                    util::Stopwatch busy;
                    while (auto item = in.pop()) {
                        busy.reset();
                        Mapped mapped{std::move(item->second), Result{}};
                        mapped.result = map(mapped.unit, w);
                        const double seconds = busy.seconds();
                        {
                            const std::lock_guard lock(stats_mutex);
                            stats.map_seconds += seconds;
                        }
                        detail::hist_observe("pipeline.batch_map_seconds",
                                             seconds);
                        if (!out.push({item->first, std::move(mapped)})) {
                            break;
                        }
                        detail::gauge_set(
                            "pipeline.output_queue_depth",
                            static_cast<double>(out.depth()));
                    }
                } catch (...) {
                    capture(std::current_exception());
                    in.close(); // stop the reader feeding a dead stage
                }
                const std::lock_guard lock(workers_open_mutex);
                if (--workers_open == 0) out.close();
            });
        }

        std::thread writer([&] {
            try {
                std::map<std::size_t, Mapped> reorder;
                std::size_t expected = 0;
                util::Stopwatch busy;
                while (auto item = out.pop()) {
                    reorder.emplace(item->first, std::move(item->second));
                    while (true) {
                        const auto ready = reorder.find(expected);
                        if (ready == reorder.end()) break;
                        busy.reset();
                        sink(expected, ready->second.unit,
                             ready->second.result);
                        {
                            const std::lock_guard lock(stats_mutex);
                            stats.writer_seconds += busy.seconds();
                            ++stats.units;
                        }
                        reorder.erase(ready);
                        in_flight.leave();
                        detail::gauge_set("pipeline.batches_in_flight",
                                          in_flight.current());
                        ++expected;
                    }
                    const std::lock_guard lock(stats_mutex);
                    stats.max_reorder_depth =
                        std::max(stats.max_reorder_depth, reorder.size());
                }
            } catch (...) {
                capture(std::current_exception());
                in.close();
                out.close();
            }
        });

        reader.join();
        for (auto& worker : workers) worker.join();
        writer.join();

        stats.reader_stall_seconds =
            in.push_stall_seconds() + window_stall_seconds;
        stats.map_stall_seconds =
            in.pop_stall_seconds() + out.push_stall_seconds();
        stats.writer_stall_seconds = out.pop_stall_seconds();
        stats.max_in_flight = in_flight.peak();
        stats.wall_seconds = wall.seconds();
        detail::counter_add("pipeline.batches", stats.units);
        detail::hist_observe("pipeline.reader_stall_seconds",
                             stats.reader_stall_seconds);
        detail::hist_observe("pipeline.map_stall_seconds",
                             stats.map_stall_seconds);
        detail::hist_observe("pipeline.writer_stall_seconds",
                             stats.writer_stall_seconds);

        if (first_error) std::rethrow_exception(first_error);
        return stats;
    }

private:
    PipelineConfig config_;
};

} // namespace repute::pipeline
