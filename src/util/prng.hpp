#pragma once
// Deterministic, fast pseudo-random number generation (xoshiro256**).
//
// All stochastic components of the library (genome synthesis, read
// simulation, workload shuffling) draw from this generator so that every
// experiment is reproducible from a single seed.

#include <cstdint>
#include <limits>

namespace repute::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed in C++). Passes BigCrush; 2^256-1 period.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seeds the four lanes from a single 64-bit value via splitmix64,
    /// which guarantees a non-zero state for any seed.
    explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()() noexcept;

    /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
    std::uint64_t bounded(std::uint64_t bound) noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Bernoulli trial with success probability p.
    bool chance(double p) noexcept { return uniform() < p; }

    /// Normal deviate via Box-Muller (fresh pair per call; the spare is
    /// discarded to keep the generator state trivially serializable).
    double normal(double mean, double stddev) noexcept;

private:
    std::uint64_t s_[4];
};

/// splitmix64 step — also useful as a cheap integer hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mixing of a 64-bit value (finalizer of splitmix64).
std::uint64_t mix64(std::uint64_t x) noexcept;

} // namespace repute::util
