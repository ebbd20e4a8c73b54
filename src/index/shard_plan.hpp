#pragma once
// Reference shard planner — contig-granular partitioning of a
// MultiReference into K contiguous slices whose per-shard FM-index
// images fit a device memory budget.
//
// The paper's OpenCL 1.2 embedded profile caps any single allocation at
// a quarter of device RAM (DeviceProfile::max_single_allocation), so a
// monolithic index bounds the mappable reference size per device.
// Sharding splits the concatenated reference at contig boundaries
// (mappings never span contigs anyway — SamEmitter demotes straddlers),
// indexes each slice independently, and lets the mapper scatter-gather
// batches across shards. Each shard additionally indexes an overlap
// overhang into its neighbours so candidate windows near a shard cut
// see exactly the bytes the monolithic index would show them; ownership
// of reported positions stays disjoint (see core/repute_mapper.hpp).
//
// SHRiMP ships this exact workflow as utils/SPLIT-DB + per-shard index
// sets; GRIM-Filter partitions into per-memory-unit bins the same way.

#include <cstdint>
#include <vector>

#include "genomics/multi_reference.hpp"

namespace repute::index {

/// Per-shard index-image budget implied by a device's global memory:
/// the OpenCL 1.2 quarter-RAM single-allocation ceiling (mirrors
/// ocl::DeviceProfile::max_single_allocation without an ocl dependency).
constexpr std::uint64_t device_shard_budget(
    std::uint64_t global_memory_bytes) noexcept {
    return global_memory_bytes / 4;
}

struct ShardPlanConfig {
    /// Explicit shard count (clamped to the contig count; 0 = derive
    /// the count from `budget_bytes` instead).
    std::uint32_t shard_count = 0;
    /// Per-shard estimated index-image byte budget (0 = unbudgeted).
    /// With `shard_count` 0, the planner packs greedily under this
    /// budget; with both set, the explicit count wins and the budget is
    /// only validated. A single contig whose image alone exceeds the
    /// budget is an error — contigs are never split.
    std::uint64_t budget_bytes = 0;
    /// Overhang indexed into each neighbour (bp). Must be at least
    /// read_length + delta at mapping time so candidate windows near a
    /// cut are verified against the same bytes as the monolithic index
    /// (the mapper enforces this per batch).
    std::uint32_t overlap = 512;
    // Index geometry the estimates are computed for.
    std::uint32_t sa_sample = 4;
    std::uint32_t checkpoint_every = 128;
    std::uint32_t qgram_length = 8;
};

/// One planned shard: a contiguous run of contigs plus its overhangs.
/// Global coordinates are positions in the concatenated reference.
struct ShardSpec {
    std::uint32_t index = 0;          ///< shard ordinal
    std::uint32_t first_sequence = 0; ///< first owned contig
    std::uint32_t sequence_count = 0; ///< owned contigs
    std::uint32_t base = 0;           ///< global start of the owned range
    std::uint32_t owned_length = 0;   ///< bp owned (reported) by the shard
    std::uint32_t left_overlap = 0;   ///< overhang bp before `base`
    std::uint32_t right_overlap = 0;  ///< overhang bp after the owned end

    /// Global start of the shard's indexed text.
    std::uint32_t text_offset() const noexcept {
        return base - left_overlap;
    }
    /// Length of the shard's indexed text (owned + overhangs).
    std::uint32_t text_length() const noexcept {
        return left_overlap + owned_length + right_overlap;
    }
};

struct ShardPlan {
    std::vector<ShardSpec> shards;
    std::uint32_t overlap = 0; ///< the configured overhang
    /// Largest estimated per-shard index image (bytes) — what the
    /// mapper's resident buffer must hold, checked against budgets.
    std::uint64_t max_estimated_bytes = 0;
};

/// Estimated bytes of the device index image for a text of `bp` bases
/// at the given geometry: interleaved rank blocks (exact, via
/// FmIndex::rank_words_for), C array, sampled SA + mark bits, q-gram
/// table (after the same budget/length clamp build_qgrams applies) and
/// the 2-bit packed text. Monotonic in `bp` — the planner's greedy
/// packing and the minmax binary search both rely on that.
std::uint64_t estimate_index_bytes(std::uint64_t bp,
                                   std::uint32_t sa_sample,
                                   std::uint32_t checkpoint_every,
                                   std::uint32_t qgram_length);

/// Plans shards over `multi`. Contiguous, contig-granular, covering
/// every contig exactly once; shard 0 has no left overhang and the last
/// shard no right overhang. With an explicit count the partition
/// minimizes the maximum owned length (minmax over contiguous
/// partitions); with a budget it packs greedily. Throws
/// std::invalid_argument when no shards are requested at all, when a
/// single contig cannot fit the budget, or when the explicit plan
/// exceeds a configured budget.
ShardPlan plan_shards(const genomics::MultiReference& multi,
                      const ShardPlanConfig& config);

} // namespace repute::index
