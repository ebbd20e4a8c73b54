#pragma once
// The mapping front end over the generic BatchPipeline: stream a
// FASTQ/FASTA file (or a lockstep pair of them) as length-class buckets
// through one or more mappers into an ordered sink. MappingSession, the
// pipeline_throughput bench and the streaming tests call these; they
// wire the reader/map/sink callbacks and keep per-worker mapper
// ownership at the caller.

#include <functional>
#include <span>

#include "core/mapping.hpp"
#include "core/paired.hpp"
#include "pipeline/batch_pipeline.hpp"
#include "pipeline/streaming_fastx.hpp"

namespace repute::pipeline {

/// Ordered bucketed sink: buckets arrive with consecutive `seq` in
/// *dispatch* order. That is not input record order — buckets of
/// different length classes interleave — so sinks that need input
/// order replay unit.ordinals through a RecordReorderWriter.
using OrderedBatchSink = std::function<void(
    std::size_t seq, const OrderedBatch& unit,
    const core::MapResult& result)>;

/// Streams length-class buckets from reader.next_bucket() through
/// `mappers` (one map worker per mapper; each worker calls only its own
/// mapper, so mappers need not be shareable) at edit budget `delta`
/// into `sink`, and returns the stage accounting. Each bucket is
/// internally uniform (read_length = class ceiling), so any
/// fixed-scratch Mapper maps it exactly like a uniform batch.
PipelineStats run_bucketed_pipeline(
    StreamingFastxReader& reader, std::span<core::Mapper* const> mappers,
    std::uint32_t delta, const OrderedBatchSink& sink,
    PipelineConfig config = {});

using OrderedPairSink = std::function<void(
    std::size_t seq, const OrderedPairBatch& unit,
    const core::PairedResult& result)>;

/// Paired-end variant over a lockstep PairedStreamingReader (desync
/// detection lives in the reader).
PipelineStats run_bucketed_paired_pipeline(
    PairedStreamingReader& reader,
    std::span<core::PairedMapper* const> mappers, std::uint32_t delta,
    const OrderedPairSink& sink, PipelineConfig config = {});

} // namespace repute::pipeline
