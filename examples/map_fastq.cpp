// map_fastq — the one-batch (load-everything-then-map) reference path.
//
//   map_fastq --reference ref.fa --reads reads.fastq [--delta 5]
//             [--smin 14] [--max-locations 100] [--out out.sam]
//             [--cigar true]
//
// For real work prefer the `repute` CLI (src/cli), which streams the
// same mapping through the bounded, length-bucketed batch pipeline;
// this example stays as the simplest possible end-to-end program — the
// same one-batch shape the streaming tests use as their oracle (both
// paths render through pipeline::SamEmitter, so their SAM output is
// byte-identical).
//
// Multi-sequence FASTA references are supported (sequences are indexed
// as one concatenated text; mappings crossing a boundary are dropped
// and positions resolve back to per-sequence coordinates). With --cigar
// (default) each mapping is re-aligned for a precise position and CIGAR
// string — the paper's announced SAM extension.
//
// Without --reference/--reads the example writes a small simulated
// dataset to the working directory first and then maps it, so it is
// runnable out of the box.

#include <cstdio>
#include <fstream>

#include "core/repute_mapper.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace repute;

namespace {

void write_demo_inputs(const std::string& fasta_path,
                       const std::string& fastq_path) {
    genomics::GenomeSimConfig gconfig;
    gconfig.length = 1'000'000;
    const auto reference = genomics::simulate_genome(gconfig);
    {
        std::ofstream fa(fasta_path);
        genomics::write_fasta(
            fa, {{reference.name(), reference.sequence().to_string()}});
    }
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 1000;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true; // Illumina-like quality ramp
    const auto sim = genomics::simulate_reads(reference, rconfig);
    std::ofstream fq(fastq_path);
    genomics::write_fastq(fq, genomics::to_fastq_records(sim));
    std::printf("wrote demo inputs: %s, %s\n", fasta_path.c_str(),
                fastq_path.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    std::string fasta = args.get_string("reference", "");
    std::string fastq = args.get_string("reads", "");
    const auto delta =
        static_cast<std::uint32_t>(args.get_int("delta", 5));
    const auto s_min =
        static_cast<std::uint32_t>(args.get_int("smin", 14));
    const auto max_locations =
        static_cast<std::uint32_t>(args.get_int("max-locations", 100));
    const std::string out_path = args.get_string("out", "out.sam");

    if (fasta.empty() || fastq.empty()) {
        fasta = "demo_reference.fa";
        fastq = "demo_reads.fastq";
        write_demo_inputs(fasta, fastq);
    }

    util::Stopwatch timer;
    const auto fasta_records = genomics::read_fasta_file(fasta);
    if (fasta_records.empty()) {
        std::fprintf(stderr, "no sequences in %s\n", fasta.c_str());
        return 1;
    }
    const genomics::MultiReference multi(fasta_records);
    const auto& reference = multi.concatenated();
    std::printf("reference: %zu sequence(s), %zu bp total "
                "(loaded in %.1f s)\n",
                multi.sequence_count(), reference.size(), timer.seconds());

    timer.reset();
    const index::FmIndex fm(reference, 4);
    std::printf("index built in %.1f s (%.1f MB)\n", timer.seconds(),
                static_cast<double>(fm.memory_bytes()) / 1e6);

    std::size_t dropped = 0;
    const auto batch =
        genomics::to_read_batch(genomics::read_fastq_file(fastq), &dropped);
    std::printf("%zu reads of length %zu (%zu dropped)\n", batch.size(),
                batch.read_length, dropped);
    if (batch.empty()) return 1;

    auto platform = ocl::Platform::system1();
    core::HeterogeneousMapperConfig config;
    config.kernel.s_min = s_min;
    config.kernel.max_locations_per_read = max_locations;
    auto mapper =
        core::make_repute(reference, fm,
                          {{&platform.device("i7-2600"), 1.0}}, config);

    timer.reset();
    const auto result = mapper->map(batch, delta);
    std::printf("mapped %zu/%zu reads (%llu mappings) — host %.1f s, "
                "modeled %.3f s\n",
                result.reads_mapped(), batch.size(),
                static_cast<unsigned long long>(result.total_mappings()),
                timer.seconds(), result.mapping_seconds);

    // SAM export through the shared emitter: resolves concatenated
    // coordinates back to the source sequences, drops
    // boundary-straddling mappings, computes CIGARs unless disabled.
    std::ofstream out(out_path, std::ios::binary);
    pipeline::SamEmitterConfig emit_config;
    emit_config.cigar = args.get_bool("cigar", true);
    emit_config.delta = delta;
    pipeline::SamEmitter emitter(out, multi, emit_config);
    emitter.write_header();
    emitter.emit(batch, result);
    std::printf("SAM written to %s (%zu records; %zu boundary-dropped, "
                "%zu cigar-dropped)\n",
                out_path.c_str(), emitter.stats().records,
                emitter.stats().dropped_boundary,
                emitter.stats().dropped_cigar);
    return 0;
}
