#include "pipeline/streaming_fastx.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "pipeline/pipeline_stats.hpp"
#include "util/packed_dna.hpp"

namespace repute::pipeline {

namespace {

std::unique_ptr<std::ifstream> open_or_throw(const std::string& path) {
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*in) throw std::runtime_error("cannot open file: " + path);
    return in;
}

/// Class ceiling for a read of length `len` under `config`'s grid.
/// Fixed mode (read_length != 0) is handled by the callers' filters.
std::size_t class_ceiling(std::size_t len,
                          const StreamingReaderConfig& config) {
    const std::size_t grid =
        config.length_grid == 0 ? 1 : config.length_grid;
    return (len + grid - 1) / grid * grid;
}

genomics::Read make_read(const genomics::FastqRecord& record,
                         std::size_t id) {
    genomics::Read read;
    read.id = static_cast<std::uint32_t>(id);
    read.name = record.name;
    read.quality = record.quality;
    read.codes.resize(record.sequence.size());
    for (std::size_t i = 0; i < record.sequence.size(); ++i) {
        read.codes[i] = util::base_to_code(record.sequence[i]);
    }
    return read;
}

} // namespace

StreamingFastxReader::StreamingFastxReader(std::istream& in,
                                           StreamingReaderConfig config)
    : stream_(in, config.format), config_(config) {}

StreamingFastxReader::StreamingFastxReader(const std::string& path,
                                           StreamingReaderConfig config)
    : owned_(open_or_throw(path)),
      stream_(*owned_, config.format),
      config_(config) {}

void StreamingFastxReader::flush_bucket(std::size_t ceiling) {
    auto it = buckets_.find(ceiling);
    if (it == buckets_.end()) return;
    Bucket& bucket = it->second;
    detail::hist_observe("pipeline.bucket_occupancy",
                         static_cast<double>(bucket.batch.reads.size()) /
                             static_cast<double>(config_.batch_size));
    detail::counter_add("pipeline.pad_bases", bucket.pad_bases);
    buffered_ -= bucket.batch.reads.size();
    ready_.push_back({std::move(bucket.batch), std::move(bucket.ordinals)});
    buckets_.erase(it);
}

void StreamingFastxReader::flush_oldest() {
    std::size_t oldest_key = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [key, bucket] : buckets_) {
        if (!bucket.ordinals.empty() && bucket.ordinals.front() < oldest) {
            oldest = bucket.ordinals.front();
            oldest_key = key;
        }
    }
    if (oldest != std::numeric_limits<std::uint64_t>::max()) {
        flush_bucket(oldest_key);
    }
}

bool StreamingFastxReader::next_bucket(OrderedBatch& out) {
    const std::size_t span_limit =
        config_.batch_size *
        (config_.max_deferred_batches == 0 ? 1
                                           : config_.max_deferred_batches);
    genomics::FastqRecord record;
    std::string error;
    while (ready_.empty() && !input_done_) {
        const auto status = stream_.next(record, &error);
        if (status == genomics::FastxRecordStream::Status::End) {
            input_done_ = true;
            // Flush surviving buckets oldest-record-first so downstream
            // reordering stays shallow.
            while (!buckets_.empty()) flush_oldest();
            break;
        }
        if (status == genomics::FastxRecordStream::Status::Malformed) {
            if (config_.on_malformed == OnMalformed::Fail) {
                throw std::runtime_error(
                    "record " + std::to_string(stream_.records_seen()) +
                    ": " + error);
            }
            ++stats_.dropped_malformed;
            stats_.last_error = error;
            continue;
        }
        const std::size_t len = record.sequence.size();
        if (len == 0 || (config_.read_length != 0 &&
                         len != config_.read_length)) {
            ++stats_.dropped_length;
            continue;
        }
        const std::size_t ceiling = config_.read_length != 0
                                        ? config_.read_length
                                        : class_ceiling(len, config_);
        if (classes_seen_.insert(ceiling).second) {
            stats_.length_classes = classes_seen_.size();
        }
        if (ceiling > stats_.read_length) stats_.read_length = ceiling;
        Bucket& bucket = buckets_[ceiling];
        bucket.batch.read_length = ceiling; // virtual pad: scratch size
        bucket.pad_bases += ceiling - len;  // codes stay true-length
        bucket.ordinals.push_back(next_ordinal_++);
        bucket.batch.reads.push_back(
            make_read(record, bucket.batch.reads.size()));
        ++buffered_;
        ++stats_.records;
        stats_.pad_bases += ceiling - len;
        if (bucket.batch.reads.size() >= config_.batch_size) {
            flush_bucket(ceiling);
        } else if (buffered_ > span_limit) {
            flush_oldest();
        }
    }

    if (ready_.empty()) return false;
    out = std::move(ready_.front());
    ready_.pop_front();
    ++stats_.batches;
    return true;
}

PairedStreamingReader::PairedStreamingReader(std::istream& in1,
                                             std::istream& in2,
                                             StreamingReaderConfig config)
    : stream1_(in1, config.format),
      stream2_(in2, config.format),
      config_(config) {}

PairedStreamingReader::PairedStreamingReader(const std::string& path1,
                                             const std::string& path2,
                                             StreamingReaderConfig config)
    : owned1_(open_or_throw(path1)),
      owned2_(open_or_throw(path2)),
      stream1_(*owned1_, config.format),
      stream2_(*owned2_, config.format),
      config_(config) {}

void PairedStreamingReader::flush_bucket(std::uint64_t key) {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return;
    PairBucket& bucket = it->second;
    detail::hist_observe("pipeline.bucket_occupancy",
                         static_cast<double>(bucket.first.reads.size()) /
                             static_cast<double>(config_.batch_size));
    detail::counter_add("pipeline.pad_bases", bucket.pad_bases);
    buffered_ -= bucket.first.reads.size();
    ready_.push_back({std::move(bucket.first), std::move(bucket.second),
                      std::move(bucket.ordinals)});
    buckets_.erase(it);
}

void PairedStreamingReader::flush_oldest() {
    std::uint64_t oldest_key = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [key, bucket] : buckets_) {
        if (!bucket.ordinals.empty() && bucket.ordinals.front() < oldest) {
            oldest = bucket.ordinals.front();
            oldest_key = key;
        }
    }
    if (oldest != std::numeric_limits<std::uint64_t>::max()) {
        flush_bucket(oldest_key);
    }
}

bool PairedStreamingReader::next_bucket(OrderedPairBatch& out) {
    const std::size_t span_limit =
        config_.batch_size *
        (config_.max_deferred_batches == 0 ? 1
                                           : config_.max_deferred_batches);
    genomics::FastqRecord r1, r2;
    std::string e1, e2;
    using Status = genomics::FastxRecordStream::Status;
    while (ready_.empty() && !input_done_) {
        const auto s1 = stream1_.next(r1, &e1);
        const auto s2 = stream2_.next(r2, &e2);
        if (s1 == Status::End || s2 == Status::End) {
            if (s1 != s2) {
                throw std::runtime_error(
                    "paired inputs desynchronized: mate files yield "
                    "different record counts");
            }
            input_done_ = true;
            while (!buckets_.empty()) flush_oldest();
            break;
        }
        if (s1 == Status::Malformed || s2 == Status::Malformed) {
            // Drop the whole pair so the files stay record-synchronized.
            if (config_.on_malformed == OnMalformed::Fail) {
                const bool first_bad = s1 == Status::Malformed;
                throw std::runtime_error(
                    "record " +
                    std::to_string(first_bad ? stream1_.records_seen()
                                             : stream2_.records_seen()) +
                    (first_bad ? " (mate 1): " : " (mate 2): ") +
                    (first_bad ? e1 : e2));
            }
            ++stats_.dropped_malformed;
            stats_.last_error = s1 == Status::Malformed ? e1 : e2;
            continue;
        }
        const std::size_t len1 = r1.sequence.size();
        const std::size_t len2 = r2.sequence.size();
        if (len1 == 0 || len2 == 0 ||
            (config_.read_length != 0 &&
             (len1 != config_.read_length ||
              len2 != config_.read_length))) {
            ++stats_.dropped_length;
            continue;
        }
        const std::size_t c1 = config_.read_length != 0
                                   ? config_.read_length
                                   : class_ceiling(len1, config_);
        const std::size_t c2 = config_.read_length != 0
                                   ? config_.read_length
                                   : class_ceiling(len2, config_);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(c1) << 32) |
            static_cast<std::uint64_t>(c2);
        if (classes_seen_.insert(key).second) {
            stats_.length_classes = classes_seen_.size();
        }
        const std::size_t widest = c1 > c2 ? c1 : c2;
        if (widest > stats_.read_length) stats_.read_length = widest;
        PairBucket& bucket = buckets_[key];
        bucket.first.read_length = c1;
        bucket.second.read_length = c2;
        bucket.pad_bases += (c1 - len1) + (c2 - len2);
        bucket.ordinals.push_back(next_ordinal_++);
        bucket.first.reads.push_back(
            make_read(r1, bucket.first.reads.size()));
        bucket.second.reads.push_back(
            make_read(r2, bucket.second.reads.size()));
        ++buffered_;
        ++stats_.records; // pairs
        stats_.pad_bases += (c1 - len1) + (c2 - len2);
        if (bucket.first.reads.size() >= config_.batch_size) {
            flush_bucket(key);
        } else if (buffered_ > span_limit) {
            flush_oldest();
        }
    }

    if (ready_.empty()) return false;
    out = std::move(ready_.front());
    ready_.pop_front();
    ++stats_.batches;
    return true;
}

} // namespace repute::pipeline
