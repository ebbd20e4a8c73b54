#pragma once
// REPUTE's host program: multi-device task-parallel mapping.
//
// The host (paper §III) splits the read set across OpenCL devices per a
// user-specified distribution, allocates the static buffers each device
// needs (index + reference, read chunk, first-n output), launches the
// map kernel on every device's queue simultaneously, and merges results.
// When a chunk's output buffer would violate a device's allocation
// ceiling, the chunk is processed in several smaller kernel runs — the
// exact fallback the paper describes ("we have to limit the number of
// mappings per read or run the kernel multiple times with smaller read
// sets").
//
// The mapper runs over a list of index views. A monolithic index is one
// view that owns the whole text; a sharded index (index/shard_plan.hpp,
// index/rixm.hpp) is K views, which lifts the quarter-of-RAM allocation
// ceiling (ocl::DeviceProfile::max_single_allocation — the paper's
// OpenCL 1.2 embedded constraint) off the mappable reference size: each
// device holds one view's image at a time, restaged between views, so
// peak device residency is one shard, not the whole reference.
//
// Sharded output identity: each shard indexes its slice plus an overlap
// overhang into its neighbours, and its kernel runs with the ownership
// window [own_lo, own_hi) (KernelConfig::report_lo/report_hi), so a
// shard's per-read list is exactly the monolithic list restricted to
// its owned positions — candidates are filtered before verification
// and before first-n cap counting. merge_sharded_read() then rebuilds
// the monolithic generation order, reapplies the cap at the same point,
// and sorts. One view skips all of that: its kernel writes straight into
// the result with the default report window.
//
// Scheduling: the static path walks views in order per device (double-
// buffered read chunks within a view); the dynamic path flattens
// (view, read) into one unit space for the work-stealing ChunkScheduler
// and keeps a per-device resident-view affinity — a chunk whose view is
// already resident skips the restage (shard.residency_hits), others pay
// it (shard.restages / shard.restage_bytes).
//
// The same host logic with the heuristic seeder is CORAL (the OpenCL
// predecessor REPUTE is compared against), so the class is parameterized
// by the Seeder and both tools are thin factories over it.

#include <memory>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/mapping.hpp"
#include "core/scheduler.hpp"
#include "filter/seed.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"
#include "ocl/context.hpp"
#include "ocl/queue.hpp"

namespace repute::index {
class ShardedIndex; // index/rixm.hpp
} // namespace repute::index

namespace repute::core {

/// A device plus the fraction of the read set it should map.
struct DeviceShare {
    ocl::Device* device = nullptr;
    double fraction = 1.0;
};

enum class ScheduleMode {
    /// Paper-fidelity (§III-B): one contiguous slice per device,
    /// committed up front. The default — benchmark numbers meant to be
    /// compared with the paper use this path.
    StaticSplit,
    /// Dynamic chunked work-stealing with fault recovery (scheduler.hpp):
    /// the shares become a warm start, idle devices steal queued chunks,
    /// failed chunks are retried on the surviving fleet.
    Dynamic,
};

struct HeterogeneousMapperConfig {
    KernelConfig kernel;
    /// Wall power the mapper draws relative to device calibration.
    double power_scale = 1.0;
    ScheduleMode schedule = ScheduleMode::StaticSplit;
    /// Chunking/retry knobs for ScheduleMode::Dynamic.
    SchedulerConfig scheduler;
    /// Stage chunk k+1's buffers while chunk k executes, through a
    /// second buffer set chained via event wait-lists. Only takes
    /// effect on devices whose TransferSpec is modeled (staging is free
    /// otherwise, and one buffer set keeps chunk sizing unchanged);
    /// output is byte-identical either way.
    bool double_buffer = true;
};

/// Non-owning view of one index the mapper consumes. Local coordinates
/// index the view's own text (owned slice + overhangs); `text_offset`
/// places local 0 in the concatenated reference.
struct ShardView {
    const genomics::Reference* reference = nullptr;
    const index::FmIndex* fm = nullptr;
    std::uint32_t text_offset = 0;
    std::uint32_t own_lo = 0; ///< local start of the owned range
    std::uint32_t own_hi = 0; ///< local end (exclusive)

    /// Global start of the owned range.
    std::uint32_t base() const noexcept { return text_offset + own_lo; }
    /// Device image bytes for this view (packed text + index).
    std::uint64_t image_bytes() const noexcept {
        return reference->sequence().memory_bytes() + fm->memory_bytes();
    }
};

/// The single view of a monolithic index: it owns the whole text.
ShardView whole_index_view(const genomics::Reference& reference,
                           const index::FmIndex& fm);

/// Views over an opened .rixm sharded index (which must outlive them).
std::vector<ShardView> shard_views_of(const index::ShardedIndex& index);

/// Deterministic per-read merge of per-shard mapping lists into the
/// monolithic result. Each entry of `per_shard` is one shard's kernel
/// output for the read — owned positions only, already shifted to
/// global coordinates, sorted by (position, strand) and deduplicated —
/// in shard base order. Rebuilds generation order (forward accepts
/// across shards, then reverse), truncates at `max_locations` exactly
/// where the monolithic kernel would, then sorts and deduplicates.
void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out);

class HeterogeneousMapper final : public Mapper {
public:
    /// `views` must be non-empty, ordered by base with owned ranges
    /// tiling the reference, and outlive the mapper (as must what they
    /// point at). Shares are normalized; zero-fraction shares are
    /// dropped. Throws std::invalid_argument when no usable share
    /// remains or the views do not tile.
    HeterogeneousMapper(std::string display_name,
                        std::vector<ShardView> views,
                        std::unique_ptr<filter::Seeder> seeder,
                        HeterogeneousMapperConfig config,
                        std::vector<DeviceShare> shares);

    /// Maps the batch against every view (merging when there are
    /// several). Throws std::invalid_argument when shard overhangs are
    /// too small for this batch (needs overlap >= read_length + delta)
    /// — remapping with a bigger --overlap is the fix, not silent wrong
    /// output.
    MapResult map(const genomics::ReadBatch& batch,
                  std::uint32_t delta) override;

    std::string_view name() const noexcept override { return name_; }
    double power_scale() const noexcept override {
        return config_.power_scale;
    }

    const filter::Seeder& seeder() const noexcept { return *seeder_; }
    const HeterogeneousMapperConfig& config() const noexcept {
        return config_;
    }
    /// Largest per-view device image — what the resident buffer holds
    /// (the per-device peak index residency).
    std::uint64_t max_image_bytes() const noexcept;

    /// Number of reads of `total` assigned to each share, in order.
    std::vector<std::size_t> split_workload(std::size_t total) const;

private:
    /// Where kernels write: one output list and stage slot per
    /// (view, read) unit, unit = view * reads + read.
    struct Units {
        std::vector<std::vector<ReadMapping>>& out;
        std::vector<StageTotals> stages;
    };

    void map_static(const genomics::ReadBatch& batch, std::uint32_t delta,
                    Units& units, MapResult& result);
    void map_dynamic(const genomics::ReadBatch& batch, std::uint32_t delta,
                     Units& units, MapResult& result);
    ocl::KernelLaunch kernel_launch(const char* suffix,
                                    const genomics::ReadBatch& batch,
                                    std::uint32_t delta, Units& units,
                                    std::size_t first_unit,
                                    std::size_t count) const;
    void validate_overhangs(const genomics::ReadBatch& batch,
                            std::uint32_t delta) const;

    std::string name_;
    std::vector<ShardView> views_;
    std::vector<KernelConfig> shard_kernels_; ///< per view, when sharded
    std::unique_ptr<filter::Seeder> seeder_;
    HeterogeneousMapperConfig config_;
    std::vector<DeviceShare> shares_;
};

/// REPUTE with the paper's memory-optimized DP seeder. The minimum
/// k-mer length (and every other kernel/host knob) lives in exactly one
/// place: `config.kernel.s_min` — the seeder is built from it.
std::unique_ptr<HeterogeneousMapper> make_repute(
    std::vector<ShardView> views, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// CORAL: the same OpenCL host flow with the serial variable-length
/// k-mer heuristic and the streaming verification flow
/// (`config.kernel.collapse_candidates` is forced off).
std::unique_ptr<HeterogeneousMapper> make_coral(
    std::vector<ShardView> views, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// The factories over one monolithic index (`reference` and `fm` must
/// outlive the mapper).
inline std::unique_ptr<HeterogeneousMapper> make_repute(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config = {}) {
    return make_repute({whole_index_view(reference, fm)}, std::move(shares),
                       config);
}
inline std::unique_ptr<HeterogeneousMapper> make_coral(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config = {}) {
    return make_coral({whole_index_view(reference, fm)}, std::move(shares),
                      config);
}

/// Workload shares proportional to each device's occupancy-adjusted
/// throughput for a kernel with the given per-item scratch requirement —
/// the "judicious distribution" the paper calls for (§IV, Fig. 3).
/// Devices that cannot run the kernel at all (scratch over their private
/// memory) receive a zero share.
std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item);

} // namespace repute::core
