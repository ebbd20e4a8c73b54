#include "pipeline/sam_emitter.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/cigar.hpp"

namespace repute::pipeline {

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

void SamEmitter::write_record(std::ostream& out,
                              const genomics::SamRecord& rec) {
    out << rec.qname << '\t' << rec.flag << '\t'
        << (rec.unmapped() ? "*" : rec.rname) << '\t' << rec.pos << '\t'
        << static_cast<unsigned>(rec.mapq) << '\t' << rec.cigar << '\t'
        << rec.rnext << '\t' << rec.pnext << '\t' << rec.tlen << '\t'
        << rec.seq << "\t*\tNM:i:" << rec.edit_distance << '\n';
    ++stats_.records;
}

void SamEmitter::emit_read(std::ostream& out,
                           const genomics::ReadBatch& batch,
                           std::size_t index,
                           const core::MapResult& result) {
    const auto& reference = multi_->concatenated();
    const auto& read = batch.reads[index];
    // The read's own length, not batch.read_length: bucketed batches
    // carry the class ceiling there (virtual padding), and boundary
    // checks must see the true footprint.
    const auto read_len = static_cast<std::uint32_t>(read.length());
    std::size_t emitted = 0;
    bool first = true;
    for (const auto& m : result.per_read[index]) {
        if (!multi_->within_one_sequence(m.position, read_len)) {
            ++stats_.dropped_boundary;
            continue;
        }
        genomics::SamRecord rec;
        rec.qname = read.name;
        rec.seq = read.to_string();
        rec.edit_distance = m.edit_distance;
        if (m.strand == genomics::Strand::Reverse) {
            rec.flag |= genomics::SamRecord::kFlagReverse;
        }
        if (!first) rec.flag |= genomics::SamRecord::kFlagSecondary;
        std::uint32_t global_pos = m.position;
        if (config_.cigar) {
            const auto annotated = core::annotate_mapping(
                reference, read, m, config_.delta);
            if (!annotated.has_value()) {
                ++stats_.dropped_cigar;
                continue;
            }
            rec.cigar = annotated->cigar;
            rec.edit_distance = annotated->mapping.edit_distance;
            global_pos = annotated->precise_position;
        }
        const auto loc = multi_->resolve(global_pos);
        rec.rname = multi_->sequence_name(loc.sequence_index);
        rec.pos = loc.offset + 1;
        write_record(out, rec);
        first = false;
        ++emitted;
    }
    if (emitted == 0) {
        genomics::SamRecord rec;
        rec.qname = read.name;
        rec.flag = genomics::SamRecord::kFlagUnmapped;
        rec.rname = "*";
        write_record(out, rec);
    }
    ++stats_.reads;
}

void SamEmitter::emit(const genomics::ReadBatch& batch,
                      const core::MapResult& result) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
        emit_read(*out_, batch, i, result);
    }
}

std::string SamEmitter::render_read(const genomics::ReadBatch& batch,
                                    std::size_t index,
                                    const core::MapResult& result) {
    std::ostringstream buf;
    emit_read(buf, batch, index, result);
    return std::move(buf).str();
}

void SamEmitter::finalize_pair_record(std::ostream& out,
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
    write_record(out, rec);
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
        std::ostringstream buf;
        finalize_pair_record(buf, records[2 * i], len1, len2);
        finalize_pair_record(buf, records[2 * i + 1], len2, len1);
        out.push_back(std::move(buf).str());
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
