#pragma once
// Chunked FASTA/FASTQ reading: the input stage of the batch pipeline.
//
// StreamingFastxReader turns a (possibly huge) sequence file into a
// series of length-class batches without ever materializing the whole
// file: each next_bucket() call parses just enough records to dispatch
// one bucket, so peak reader memory is bounded by the flush span, not
// the file size. Built on genomics::FastxRecordStream, which surfaces
// malformed records one at a time instead of throwing away the file —
// the reader applies a per-record error policy on top (drop-and-count,
// the default, or fail-fast for pipelines that must not silently lose
// input).
//
// Records are quantized into length classes (sequence length rounded
// up to a multiple of config.length_grid) and accumulated into one
// bucket per class. A bucket dispatches as an independent OrderedBatch
// when it fills, when the buffered-record span exceeds
// config.max_deferred_batches batches (the bucket holding the oldest
// record flushes first, bounding reorder latency), or at end of input.
// Padding is virtual: batch.read_length is the class ceiling — sizing
// kernel scratch exactly as a uniform batch of that length would —
// while each Read keeps its true-length code vector, so mapping output
// is byte-identical to splitting the input by length up front. Each
// read carries a dense global ordinal so a downstream reorder buffer
// can restore input order across interleaved class streams. A non-zero
// config.read_length collapses the grid to that single class and drops
// (and counts) every other length.

#include <cstdint>
#include <deque>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/sequence.hpp"

namespace repute::pipeline {

/// Policy for structurally malformed records (truncated record, missing
/// '+' line, length-mismatched quality, stray sequence data).
enum class OnMalformed {
    Drop, ///< skip the record, count it, keep streaming
    Fail, ///< throw std::runtime_error naming the record
};

struct StreamingReaderConfig {
    /// Reads per batch; the last batch of a file may be smaller.
    std::size_t batch_size = 4096;
    OnMalformed on_malformed = OnMalformed::Drop;
    /// Fixed read length: 0 selects length-bucketed mode; non-zero
    /// degenerates to a single class that drops every other length.
    std::size_t read_length = 0;
    genomics::FastxFormat format = genomics::FastxFormat::Auto;
    /// Length-class quantization: a read of length n lands in the
    /// class whose ceiling is n rounded up to a multiple of this grid.
    /// 1 = exact-length classes; 0 is treated as 1.
    std::size_t length_grid = 16;
    /// Flush-span bound: once more than max_deferred_batches *
    /// batch_size records sit in partially filled buckets, the bucket
    /// holding the oldest record flushes (possibly short). Bounds both
    /// reader memory and how far the output reorder buffer must look
    /// back.
    std::size_t max_deferred_batches = 8;
};

struct StreamingReaderStats {
    std::size_t records = 0;           ///< well-formed records parsed
    std::size_t batches = 0;           ///< non-empty batches yielded
    std::size_t dropped_malformed = 0; ///< structural rejects (Drop mode)
    std::size_t dropped_length = 0;    ///< wrong-length records
    std::size_t read_length = 0;       ///< widest class ceiling seen
    std::string last_error;            ///< most recent malformed message
    /// Virtual pad bases (class ceiling minus true length, summed over
    /// accepted reads) and distinct length classes.
    std::size_t pad_bases = 0;
    std::size_t length_classes = 0;

    std::size_t dropped() const noexcept {
        return dropped_malformed + dropped_length;
    }
};

/// A dispatched length-class bucket: a ReadBatch whose read_length is
/// the class ceiling, plus the global input ordinal of each read
/// (ordinals[i] belongs to batch.reads[i]; dense across all accepted
/// reads of the file, so a reorder buffer keyed on them restores input
/// order across interleaved buckets).
struct OrderedBatch {
    genomics::ReadBatch batch;
    std::vector<std::uint64_t> ordinals;
};

class StreamingFastxReader {
public:
    /// The stream must outlive the reader.
    explicit StreamingFastxReader(std::istream& in,
                                  StreamingReaderConfig config = {});
    /// Opens `path`; throws std::runtime_error when it cannot be read.
    explicit StreamingFastxReader(const std::string& path,
                                  StreamingReaderConfig config = {});

    /// Yields the next ready length-class bucket of up to batch_size
    /// reads (ids dense within the bucket, like genomics::to_read_batch;
    /// see the header comment for dispatch rules). Returns false when
    /// the input is exhausted and every bucket has been flushed. Throws
    /// on a malformed record under OnMalformed::Fail.
    bool next_bucket(OrderedBatch& out);

    const StreamingReaderStats& stats() const noexcept { return stats_; }
    const StreamingReaderConfig& config() const noexcept { return config_; }

private:
    struct Bucket {
        genomics::ReadBatch batch;
        std::vector<std::uint64_t> ordinals;
        std::size_t pad_bases = 0;
    };

    void flush_bucket(std::size_t ceiling);
    void flush_oldest();

    std::unique_ptr<std::ifstream> owned_; ///< set by the path ctor
    genomics::FastxRecordStream stream_;
    StreamingReaderConfig config_;
    StreamingReaderStats stats_;
    // Accumulation state, keyed by class ceiling.
    std::map<std::size_t, Bucket> buckets_;
    std::deque<OrderedBatch> ready_;
    std::set<std::size_t> classes_seen_;
    std::uint64_t next_ordinal_ = 0;
    std::size_t buffered_ = 0; ///< records across open buckets
    bool input_done_ = false;
};

/// A dispatched paired bucket: lockstep mate batches (first.reads[i]
/// pairs with second.reads[i]; each side's read_length is its own class
/// ceiling) plus the global pair ordinal of each slot.
struct OrderedPairBatch {
    genomics::ReadBatch first;
    genomics::ReadBatch second;
    std::vector<std::uint64_t> ordinals;
};

/// Lockstep paired reader over two mate files with per-pair length
/// bucketing: pairs are classed by the (ceiling1, ceiling2) tuple, so
/// every bucket is internally uniform on both sides. Malformed records
/// drop (or fail) the whole pair, keeping the files record-synchronized;
/// one file ending before the other throws. Stats count pairs, not
/// individual records.
class PairedStreamingReader {
public:
    /// Both streams must outlive the reader.
    PairedStreamingReader(std::istream& in1, std::istream& in2,
                          StreamingReaderConfig config = {});
    PairedStreamingReader(const std::string& path1,
                          const std::string& path2,
                          StreamingReaderConfig config = {});

    /// Yields the next ready pair bucket; same dispatch rules as
    /// StreamingFastxReader::next_bucket. Throws when the mate files
    /// desynchronize (different record counts).
    bool next_bucket(OrderedPairBatch& out);

    const StreamingReaderStats& stats() const noexcept { return stats_; }
    const StreamingReaderConfig& config() const noexcept { return config_; }

private:
    struct PairBucket {
        genomics::ReadBatch first;
        genomics::ReadBatch second;
        std::vector<std::uint64_t> ordinals;
        std::size_t pad_bases = 0;
    };

    void flush_bucket(std::uint64_t key);
    void flush_oldest();

    std::unique_ptr<std::ifstream> owned1_, owned2_;
    genomics::FastxRecordStream stream1_, stream2_;
    StreamingReaderConfig config_;
    StreamingReaderStats stats_;
    // Keyed by (ceiling1 << 32) | ceiling2.
    std::map<std::uint64_t, PairBucket> buckets_;
    std::deque<OrderedPairBatch> ready_;
    std::set<std::uint64_t> classes_seen_;
    std::uint64_t next_ordinal_ = 0;
    std::size_t buffered_ = 0; ///< pairs across open buckets
    bool input_done_ = false;
};

} // namespace repute::pipeline
