#pragma once
// Streaming SAM emission — the output stage of the batch pipeline.
//
// One SamEmitter owns an output stream for the duration of a run:
// write_header() once, then emit() per mapped batch, in order — or
// render_read()/render_paired() per read or pair when a
// RecordReorderWriter restores input order downstream (the bucketed
// streaming path). It is the only SAM renderer in the tree, shared by
// the CLI, the daemon and the one-batch map_fastq example, which is
// what makes "streaming output is byte-identical to one-batch output" a
// testable property rather than a hope.
//
// Coordinates: mapping positions are on the concatenated multi-sequence
// text; the emitter resolves them back to (sequence name, 1-based
// offset) and drops mappings whose window straddles a sequence
// boundary. With cigar enabled (the default) each mapping is re-aligned
// host-side for a precise position and CIGAR string
// (core::annotate_mapping); mappings the re-alignment cannot confirm
// are dropped and counted.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/paired.hpp"
#include "genomics/multi_reference.hpp"

namespace repute::pipeline {

struct SamEmitterConfig {
    bool cigar = true;      ///< host-side re-alignment per mapping
    std::uint32_t delta = 5; ///< edit budget the mappings were made at
};

class SamEmitter {
public:
    struct Stats {
        std::size_t records = 0;          ///< SAM lines written
        std::size_t reads = 0;            ///< reads (or mates) covered
        std::size_t dropped_boundary = 0; ///< straddled a sequence join
        std::size_t dropped_cigar = 0;    ///< re-alignment disagreed
    };

    /// `out` and `multi` must outlive the emitter.
    SamEmitter(std::ostream& out, const genomics::MultiReference& multi,
               SamEmitterConfig config);

    /// @HD / @SQ (one per sequence) / @PG lines.
    void write_header();

    /// Emits one batch's mappings: every read produces at least one
    /// record (unmapped reads get a flag-0x4 placeholder); the first
    /// reported mapping is primary, the rest are flagged secondary.
    /// Boundary checks use each read's own length, so mixed-length
    /// (bucketed) batches emit identically to uniform ones.
    void emit(const genomics::ReadBatch& batch,
              const core::MapResult& result);

    /// render_read: the exact bytes emit() would write for one read,
    /// returned instead of written. render_paired: one string per pair
    /// (two records with mate flags and TLEN, resolved to per-sequence
    /// coordinates; mates whose placement straddles a sequence boundary
    /// are demoted to unmapped records). Stats update as if emitted.
    /// The bucketed streaming path reorders these per-read strings by
    /// global input ordinal before they reach the output stream.
    std::string render_read(const genomics::ReadBatch& batch,
                            std::size_t index,
                            const core::MapResult& result);
    std::vector<std::string> render_paired(
        const genomics::ReadBatch& first,
        const genomics::ReadBatch& second,
        const core::PairedResult& result);

    const Stats& stats() const noexcept { return stats_; }

private:
    void write_record(std::ostream& out, const genomics::SamRecord& rec);
    void emit_read(std::ostream& out, const genomics::ReadBatch& batch,
                   std::size_t index, const core::MapResult& result);
    void finalize_pair_record(std::ostream& out, genomics::SamRecord& rec,
                              std::uint32_t own_len,
                              std::uint32_t mate_len);

    std::ostream* out_;
    const genomics::MultiReference* multi_;
    SamEmitterConfig config_;
    Stats stats_;
};

/// Restores input order over per-record SAM strings produced out of
/// order (interleaved length-class buckets): add() parks a record under
/// its dense global ordinal and flushes the contiguous run starting at
/// the next unwritten ordinal. finish() asserts nothing is left parked
/// (a gap means an ordinal was never produced).
class RecordReorderWriter {
public:
    explicit RecordReorderWriter(std::ostream& out) : out_(&out) {}

    void add(std::uint64_t ordinal, std::string bytes);
    /// Throws std::logic_error if records are still parked.
    void finish();

    std::size_t max_parked() const noexcept { return max_parked_; }

private:
    std::ostream* out_;
    std::map<std::uint64_t, std::string> parked_;
    std::uint64_t next_ = 0;
    std::size_t max_parked_ = 0;
};

} // namespace repute::pipeline
