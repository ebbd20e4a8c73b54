// Fixture generator: seeded, deterministic inputs built with the
// repository's own simulators. References are repeat-rich (50%
// interspersed repeat families at 2.5% divergence); reads carry up to
// 5 edits, 30% of them indels. run.py caches the output by (seed,
// generator hash) and gzips the mate files where a workload asks.
//
//   gen --kind ref    --length BP --seed S --dir DIR
//       -> DIR/ref.fa, DIR/ref.rix
//   gen --kind single --index ref.rix --n N --read-length L --seed S
//       --fastq OUT.fq --truth OUT.truth
//   gen --kind paired --index ref.rix --n PAIRS --read-length L --seed S
//       --fastq1 R1.fq --fastq2 R2.fq --truth OUT.truth

#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"

namespace perfbench {

namespace {

namespace genomics = repute::genomics;

constexpr std::uint32_t kMaxEdits = 5;
constexpr double kIndelFraction = 0.30;

void write_file(const std::string& path,
                const std::vector<genomics::FastqRecord>& records) {
    std::ofstream out(path, std::ios::binary);
    genomics::write_fastq(out, records);
    if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<genomics::FastqRecord> fastq_of(const genomics::ReadBatch& batch) {
    std::vector<genomics::FastqRecord> records;
    records.reserve(batch.size());
    for (const auto& read : batch.reads) {
        records.push_back({read.name, read.to_string(),
                           std::string(read.length(), 'I')});
    }
    return records;
}

int gen_reference(const repute::util::Args& args) {
    const std::string dir = args.get_string("dir", "");
    if (dir.empty()) throw std::invalid_argument("gen: --dir required");
    genomics::GenomeSimConfig config;
    config.length = static_cast<std::size_t>(args.get_int("length", 4'000'000));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.interspersed_fraction = 0.50;
    config.repeat_divergence = 0.025;
    auto reference = genomics::simulate_genome(config, "chr_sim");
    {
        std::ofstream fasta(dir + "/ref.fa", std::ios::binary);
        genomics::write_fasta(
            fasta, {{reference.name(), reference.sequence().to_string()}});
        if (!fasta) throw std::runtime_error("cannot write " + dir + "/ref.fa");
    }
    const genomics::MultiReference multi(std::move(reference));
    const repute::index::FmIndex fm(multi.concatenated(), 4, 128,
                                    repute::index::FmIndex::kDefaultQgramLength);
    repute::index::write_rix(dir + "/ref.rix", multi, fm);
    return 0;
}

int gen_reads(const repute::util::Args& args, bool paired) {
    const auto index = repute::index::MappedIndex::open(
        args.get_string("index", ""));
    const auto& reference = index.multi().concatenated();
    const auto n = static_cast<std::size_t>(args.get_int("n", 1000));
    const auto length =
        static_cast<std::size_t>(args.get_int("read-length", 100));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    Truth truth;
    truth.paired = paired;
    if (!paired) {
        genomics::ReadSimConfig config;
        config.n_reads = n;
        config.read_length = length;
        config.max_errors = kMaxEdits;
        config.indel_fraction = kIndelFraction;
        config.seed = seed;
        const auto sim = genomics::simulate_reads(reference, config);
        write_file(args.get_string("fastq", ""), fastq_of(sim.batch));
        for (const auto& origin : sim.origins) {
            truth.pos1.push_back(origin.position);
            truth.reverse1.push_back(
                origin.strand == genomics::Strand::Reverse ? 1 : 0);
        }
    } else {
        genomics::PairSimConfig config;
        config.n_pairs = n;
        config.read_length = length;
        config.max_errors = kMaxEdits;
        config.indel_fraction = kIndelFraction;
        config.seed = seed;
        const auto sim = genomics::simulate_pairs(reference, config);
        write_file(args.get_string("fastq1", ""), fastq_of(sim.first));
        write_file(args.get_string("fastq2", ""), fastq_of(sim.second));
        for (const auto& origin : sim.origins) {
            truth.pos1.push_back(origin.fragment_start);
            truth.reverse1.push_back(0);
            truth.pos2.push_back(origin.fragment_start +
                                 origin.fragment_length -
                                 static_cast<std::uint32_t>(length));
        }
    }
    truth.save(args.get_string("truth", ""));
    return 0;
}

} // namespace

int run_gen(const repute::util::Args& args) {
    const std::string kind = args.get_string("kind", "");
    if (kind == "ref") return gen_reference(args);
    if (kind == "single") return gen_reads(args, false);
    if (kind == "paired") return gen_reads(args, true);
    throw std::invalid_argument("gen: --kind must be ref, single or paired");
}

} // namespace perfbench
