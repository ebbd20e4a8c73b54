#pragma once
// The one-batch SAM oracle the streaming tests compare against: parse
// the whole FASTQ into one batch, map it with a single mapper call and
// render it with a single SamEmitter::emit. No bucketing, no
// reordering, no pipeline threads — the simplest program that produces
// the SAM bytes, so any divergence points at the streaming machinery.

#include <sstream>
#include <string>

#include "core/mapping.hpp"
#include "genomics/fastx.hpp"
#include "genomics/multi_reference.hpp"
#include "pipeline/sam_emitter.hpp"

namespace repute::testing_oracle {

/// SAM (header included) for `fastq` mapped in one batch at
/// `config.delta`. Reads of a length other than the majority are
/// dropped (genomics::to_read_batch), so pass uniform-length input.
inline std::string one_batch_sam(const std::string& fastq,
                                 core::Mapper& mapper,
                                 const genomics::MultiReference& multi,
                                 pipeline::SamEmitterConfig config) {
    std::istringstream in(fastq);
    const auto batch = genomics::to_read_batch(genomics::read_fastq(in));
    std::ostringstream sam;
    pipeline::SamEmitter emitter(sam, multi, config);
    emitter.write_header();
    emitter.emit(batch, mapper.map(batch, config.delta));
    return sam.str();
}

} // namespace repute::testing_oracle
