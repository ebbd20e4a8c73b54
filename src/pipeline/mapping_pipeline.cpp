#include "pipeline/mapping_pipeline.hpp"

#include <stdexcept>

namespace repute::pipeline {

PipelineStats run_bucketed_pipeline(
    StreamingFastxReader& reader, std::span<core::Mapper* const> mappers,
    std::uint32_t delta, const OrderedBatchSink& sink,
    PipelineConfig config) {
    if (mappers.empty()) {
        throw std::invalid_argument("run_bucketed_pipeline: no mappers");
    }
    config.map_workers = mappers.size();
    BatchPipeline<OrderedBatch, core::MapResult> engine(config);
    return engine.run(
        [&](OrderedBatch& unit) { return reader.next_bucket(unit); },
        [&](const OrderedBatch& unit, std::size_t worker) {
            return mappers[worker]->map(unit.batch, delta);
        },
        [&](std::size_t seq, const OrderedBatch& unit,
            const core::MapResult& result) { sink(seq, unit, result); });
}

PipelineStats run_bucketed_paired_pipeline(
    PairedStreamingReader& reader,
    std::span<core::PairedMapper* const> mappers, std::uint32_t delta,
    const OrderedPairSink& sink, PipelineConfig config) {
    if (mappers.empty()) {
        throw std::invalid_argument(
            "run_bucketed_paired_pipeline: no mappers");
    }
    config.map_workers = mappers.size();
    BatchPipeline<OrderedPairBatch, core::PairedResult> engine(config);
    return engine.run(
        [&](OrderedPairBatch& unit) { return reader.next_bucket(unit); },
        [&](const OrderedPairBatch& unit, std::size_t worker) {
            return mappers[worker]->map_pairs(unit.first, unit.second,
                                              delta);
        },
        [&](std::size_t seq, const OrderedPairBatch& unit,
            const core::PairedResult& result) {
            sink(seq, unit, result);
        });
}

} // namespace repute::pipeline
