#include "pipeline/sam_emitter.hpp"

#include <charconv>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "util/packed_dna.hpp"

namespace repute::pipeline {

namespace {

/// One SAM line's fields as views, so a record is formatted straight
/// from the read, the mapping and the emitter's buffers without a
/// SamRecord (and its string copies) per record.
struct RecordView {
    std::string_view qname;
    std::uint16_t flag = 0;
    std::string_view rname = "*";
    std::uint32_t pos = 0;
    unsigned mapq = 255;
    std::string_view cigar = "*";
    std::string_view rnext = "*";
    std::uint32_t pnext = 0;
    std::int32_t tlen = 0;
    std::string_view seq = "*";
    std::uint32_t nm = 0;
};

RecordView view_of(const genomics::SamRecord& rec) {
    RecordView view;
    view.qname = rec.qname;
    view.flag = rec.flag;
    view.rname = rec.unmapped() ? std::string_view("*")
                                : std::string_view(rec.rname);
    view.pos = rec.pos;
    view.mapq = rec.mapq;
    view.cigar = rec.cigar;
    view.rnext = rec.rnext;
    view.pnext = rec.pnext;
    view.tlen = rec.tlen;
    view.seq = rec.seq;
    view.nm = rec.edit_distance;
    return view;
}

template <typename Int>
void append_field(std::string& out, Int value, char end = '\t') {
    char digits[24];
    const auto res = std::to_chars(digits, digits + sizeof digits, value);
    out.append(digits, res.ptr);
    out.push_back(end);
}

void append_field(std::string& out, std::string_view text) {
    out.append(text);
    out.push_back('\t');
}

/// QNAME FLAG RNAME POS MAPQ CIGAR RNEXT PNEXT TLEN SEQ QUAL NM:i.
void append_record(std::string& out, const RecordView& rec) {
    append_field(out, rec.qname);
    append_field(out, rec.flag);
    append_field(out, rec.rname);
    append_field(out, rec.pos);
    append_field(out, rec.mapq);
    append_field(out, rec.cigar);
    append_field(out, rec.rnext);
    append_field(out, rec.pnext);
    append_field(out, rec.tlen);
    append_field(out, rec.seq);
    out.append("*\tNM:i:");
    append_field(out, rec.nm, '\n');
}

} // namespace

SamEmitter::SamEmitter(std::ostream& out,
                       const genomics::MultiReference& multi,
                       SamEmitterConfig config)
    : out_(&out), multi_(&multi), config_(config) {}

void SamEmitter::write_header() {
    *out_ << "@HD\tVN:1.6\tSO:unknown\n";
    for (std::size_t s = 0; s < multi_->sequence_count(); ++s) {
        *out_ << "@SQ\tSN:" << multi_->sequence_name(s)
              << "\tLN:" << multi_->sequence_length(s) << '\n';
    }
    *out_ << "@PG\tID:repute\tPN:repute\tVN:1.0.0\n";
}

void SamEmitter::emit_read(std::string& out,
                           const genomics::ReadBatch& batch,
                           std::size_t index,
                           const core::MapResult& result) {
    const auto& reference = multi_->concatenated();
    const auto& read = batch.reads[index];
    // The read's own length, not batch.read_length: bucketed batches
    // carry the class ceiling there (virtual padding), and boundary
    // checks must see the true footprint.
    const auto read_len = static_cast<std::uint32_t>(read.length());
    seq_.resize(read.codes.size());
    for (std::size_t i = 0; i < read.codes.size(); ++i) {
        seq_[i] = util::code_to_base(read.codes[i]);
    }
    if (config_.cigar) annotator_.set_read(read);
    std::size_t emitted = 0;
    for (const auto& m : result.per_read[index]) {
        if (!multi_->within_one_sequence(m.position, read_len)) {
            ++stats_.dropped_boundary;
            continue;
        }
        RecordView rec;
        rec.qname = read.name;
        rec.seq = seq_;
        rec.nm = m.edit_distance;
        if (m.strand == genomics::Strand::Reverse) {
            rec.flag |= genomics::SamRecord::kFlagReverse;
        }
        if (emitted != 0) rec.flag |= genomics::SamRecord::kFlagSecondary;
        std::uint32_t global_pos = m.position;
        if (config_.cigar) {
            if (!annotator_.annotate(reference, m, config_.delta,
                                     annotated_)) {
                ++stats_.dropped_cigar;
                continue;
            }
            rec.cigar = annotated_.cigar;
            rec.nm = annotated_.mapping.edit_distance;
            global_pos = annotated_.precise_position;
        }
        const auto loc = multi_->resolve(global_pos);
        rec.rname = multi_->sequence_name(loc.sequence_index);
        rec.pos = loc.offset + 1;
        append_record(out, rec);
        ++stats_.records;
        ++emitted;
    }
    if (emitted == 0) {
        RecordView rec;
        rec.qname = read.name;
        rec.flag = genomics::SamRecord::kFlagUnmapped;
        append_record(out, rec);
        ++stats_.records;
    }
    ++stats_.reads;
}

void SamEmitter::emit(const genomics::ReadBatch& batch,
                      const core::MapResult& result) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
        buffer_.clear();
        emit_read(buffer_, batch, i, result);
        out_->write(buffer_.data(),
                    static_cast<std::streamsize>(buffer_.size()));
    }
}

std::string SamEmitter::render_read(const genomics::ReadBatch& batch,
                                    std::size_t index,
                                    const core::MapResult& result) {
    buffer_.clear();
    emit_read(buffer_, batch, index, result);
    return buffer_;
}

void SamEmitter::finalize_pair_record(std::string& out,
                                      genomics::SamRecord& rec,
                                      std::uint32_t own_len,
                                      std::uint32_t mate_len) {
    if (!rec.unmapped()) {
        // paired_to_sam reports concatenated-text coordinates; resolve
        // to the source sequence or demote to unmapped when the
        // placement straddles a boundary.
        if (!multi_->within_one_sequence(rec.pos - 1, own_len)) {
            ++stats_.dropped_boundary;
            rec.flag |= genomics::SamRecord::kFlagUnmapped;
            rec.flag &= static_cast<std::uint16_t>(
                ~genomics::SamRecord::kFlagProperPair);
            rec.pos = 0;
            rec.cigar = "*";
            rec.tlen = 0;
        } else {
            const auto loc = multi_->resolve(rec.pos - 1);
            rec.rname = multi_->sequence_name(loc.sequence_index);
            rec.pos = loc.offset + 1;
        }
    }
    if (rec.pnext != 0) {
        if (multi_->within_one_sequence(rec.pnext - 1, mate_len)) {
            rec.pnext = multi_->resolve(rec.pnext - 1).offset + 1;
        } else {
            rec.rnext = "*";
            rec.pnext = 0;
            rec.tlen = 0;
        }
    }
    append_record(out, view_of(rec));
    ++stats_.records;
    ++stats_.reads;
}

std::vector<std::string> SamEmitter::render_paired(
    const genomics::ReadBatch& first, const genomics::ReadBatch& second,
    const core::PairedResult& result) {
    auto records = core::paired_to_sam(
        first, second, result, multi_->concatenated().name());
    std::vector<std::string> out;
    out.reserve(records.size() / 2);
    // records[2i] / records[2i+1] are pair i's first/second mate; each
    // record's own placement is checked against its own read length and
    // its PNEXT against the mate's.
    for (std::size_t i = 0; i * 2 + 1 < records.size(); ++i) {
        const auto len1 =
            static_cast<std::uint32_t>(first.reads[i].length());
        const auto len2 =
            static_cast<std::uint32_t>(second.reads[i].length());
        buffer_.clear();
        finalize_pair_record(buffer_, records[2 * i], len1, len2);
        finalize_pair_record(buffer_, records[2 * i + 1], len2, len1);
        out.push_back(buffer_);
    }
    return out;
}

void RecordReorderWriter::add(std::uint64_t ordinal, std::string bytes) {
    parked_.emplace(ordinal, std::move(bytes));
    if (parked_.size() > max_parked_) max_parked_ = parked_.size();
    while (!parked_.empty() && parked_.begin()->first == next_) {
        *out_ << parked_.begin()->second;
        parked_.erase(parked_.begin());
        ++next_;
    }
}

void RecordReorderWriter::finish() {
    if (!parked_.empty()) {
        throw std::logic_error(
            "RecordReorderWriter: " + std::to_string(parked_.size()) +
            " record(s) still parked at finish (ordinal gap at " +
            std::to_string(next_) + ")");
    }
}

} // namespace repute::pipeline
