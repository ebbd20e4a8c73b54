#pragma once
// Named metrics registry: monotonic counters, gauges and histograms.
//
// Instrumented code pays nothing when no registry is installed: the
// global accessor (obs::metrics(), see trace.hpp) is a relaxed atomic
// load, and every instrumentation site is guarded by a null check —
// with tracing off the whole path is one predictable branch.
//
// Metric objects returned by the registry are stable for the registry's
// lifetime, so hot loops may look a metric up once and keep the
// reference. Counters and gauges are lock-free; histograms take a small
// per-observe lock (acceptable at per-read granularity).

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace repute::obs {

/// Monotonic counter (steals, retries, candidate windows, ...).
class Counter {
public:
    void add(std::uint64_t delta = 1) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (fleet sizes, configured caps, ratios).
class Gauge {
public:
    void set(double value) noexcept {
        value_.store(value, std::memory_order_relaxed);
    }
    double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
};

/// Running count/sum/min/max distribution plus base-2 logarithmic
/// buckets for quantile estimates (candidates per read, chunk sizes,
/// request latencies). 64 buckets cover binary exponents [-32, 31] —
/// nanoseconds to decades when values are seconds — so quantile() is
/// exact to within a factor of 2, which is what a p50/p99 latency
/// report needs (the serve tier asserts on them). Non-positive
/// observations land in an explicit zero bucket, so a quantile that
/// falls on exact zeros reports 0, not the smallest bucket's bound.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 64;
    static constexpr int kMinExponent = -32;

    struct Snapshot {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::uint64_t zeros = 0; ///< observations <= 0
        std::array<std::uint64_t, kBuckets> buckets{};

        double mean() const noexcept {
            return count == 0 ? 0.0 : sum / static_cast<double>(count);
        }

        /// Upper bound of the bucket containing the q-quantile
        /// (0 <= q <= 1) observation, clamped to the observed extremes;
        /// 0 when that observation is in the zero bucket. Returns 0
        /// with no observations.
        double quantile(double q) const noexcept {
            if (count == 0) return 0.0;
            const auto rank = static_cast<std::uint64_t>(
                q * static_cast<double>(count - 1));
            if (rank < zeros) return std::min(std::max(0.0, min), max);
            std::uint64_t seen = zeros;
            for (std::size_t b = 0; b < kBuckets; ++b) {
                seen += buckets[b];
                if (seen > rank) {
                    const double upper = std::ldexp(
                        1.0, static_cast<int>(b) + kMinExponent + 1);
                    return std::min(std::max(upper, min), max);
                }
            }
            return max;
        }
    };

    /// Log bucket of a positive value (callers route non-positive
    /// values to the zero bucket).
    static std::size_t bucket_of(double value) noexcept {
        int exponent = 0;
        std::frexp(value, &exponent); // value in [2^(e-1), 2^e)
        const int b = exponent - 1 - kMinExponent;
        if (b < 0) return 0;
        if (b >= static_cast<int>(kBuckets)) return kBuckets - 1;
        return static_cast<std::size_t>(b);
    }

    void observe(double value) noexcept {
        const std::lock_guard lock(mutex_);
        if (state_.count == 0 || value < state_.min) state_.min = value;
        if (state_.count == 0 || value > state_.max) state_.max = value;
        ++state_.count;
        state_.sum += value;
        if (value > 0.0) {
            ++state_.buckets[bucket_of(value)];
        } else {
            ++state_.zeros;
        }
    }

    Snapshot snapshot() const {
        const std::lock_guard lock(mutex_);
        return state_;
    }

private:
    mutable std::mutex mutex_;
    Snapshot state_;
};

/// Name-keyed metric store. Lookup is mutex-guarded; the returned
/// references stay valid (and lock-free to update) for the registry's
/// lifetime.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Deterministic plain-text dump, one `name value` line per metric,
    /// sorted by name.
    std::string format() const;

    /// Name-sorted value snapshots (used by the xfer summary exporter).
    std::map<std::string, std::uint64_t> counter_values() const;
    std::map<std::string, double> gauge_values() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace repute::obs
