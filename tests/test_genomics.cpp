// genomics: sequences, FASTA/FASTQ round trips, the genome simulator's
// statistical contracts, the read simulator's ground-truth guarantee,
// and the SAM-lite record's strand flag.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "align/edit_distance.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "genomics/sam_lite.hpp"
#include "genomics/sequence.hpp"

namespace {

using repute::genomics::FastaRecord;
using repute::genomics::FastqRecord;
using repute::genomics::GenomeSimConfig;
using repute::genomics::Read;
using repute::genomics::read_fasta;
using repute::genomics::read_fastq;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::SamRecord;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::Strand;
using repute::genomics::to_read_batch;
using repute::genomics::write_fasta;
using repute::genomics::write_fastq;

// -------------------------------------------------------------- Sequence

TEST(Sequence, ReadRoundTripAndReverseComplement) {
    Read read;
    read.codes = {0, 0, 1, 2, 3}; // AACGT
    EXPECT_EQ(read.to_string(), "AACGT");
    const auto rc = read.reverse_complement();
    Read rc_read;
    rc_read.codes = rc;
    EXPECT_EQ(rc_read.to_string(), "ACGTT");
}

TEST(Sequence, ReferenceFromAsciiHandlesN) {
    const auto ref = Reference::from_ascii("chr", "ACGTNNNNACGT");
    EXPECT_EQ(ref.size(), 12u);
    // Ns become deterministic bases: same seed, same result.
    const auto ref2 = Reference::from_ascii("chr", "ACGTNNNNACGT");
    EXPECT_EQ(ref.sequence().to_string(), ref2.sequence().to_string());
    EXPECT_EQ(ref.sequence().to_string().substr(0, 4), "ACGT");
}

// ----------------------------------------------------------------- FASTA

TEST(Fasta, ParsesMultiRecordMultiLine) {
    std::istringstream in(">chr1 description here\nACGT\nACGT\n"
                          ";comment\n>chr2\nTTTT\n");
    const auto records = read_fasta(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "chr1");
    EXPECT_EQ(records[0].sequence, "ACGTACGT");
    EXPECT_EQ(records[1].name, "chr2");
    EXPECT_EQ(records[1].sequence, "TTTT");
}

TEST(Fasta, RejectsSequenceBeforeHeader) {
    std::istringstream in("ACGT\n>chr1\nACGT\n");
    EXPECT_THROW((void)read_fasta(in), std::runtime_error);
}

TEST(Fasta, WriteReadRoundTrip) {
    const std::vector<FastaRecord> records = {
        {"a", std::string(150, 'A')}, {"b", "ACGT"}};
    std::stringstream io;
    write_fasta(io, records, 60);
    const auto parsed = read_fasta(io);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].sequence, records[0].sequence);
    EXPECT_EQ(parsed[1].sequence, records[1].sequence);
}

// ----------------------------------------------------------------- FASTQ

TEST(Fastq, ParsesAndValidates) {
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2 extra\nTT\n+r2\nII\n");
    const auto records = read_fastq(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "r1");
    EXPECT_EQ(records[0].sequence, "ACGT");
    EXPECT_EQ(records[1].name, "r2");
}

TEST(Fastq, RejectsTruncatedAndMismatched) {
    std::istringstream truncated("@r1\nACGT\n+\n");
    EXPECT_THROW((void)read_fastq(truncated), std::runtime_error);
    std::istringstream mismatched("@r1\nACGT\n+\nII\n");
    EXPECT_THROW((void)read_fastq(mismatched), std::runtime_error);
    std::istringstream no_plus("@r1\nACGT\nX\nIIII\n");
    EXPECT_THROW((void)read_fastq(no_plus), std::runtime_error);
}

TEST(Fastq, RoundTripAndBatchConversion) {
    std::vector<FastqRecord> records = {
        {"a", "ACGTACGT", "IIIIIIII"},
        {"b", "TTTTAAAA", "IIIIIIII"},
        {"short", "ACG", "III"}, // dropped: minority length
    };
    std::stringstream io;
    write_fastq(io, records);
    const auto parsed = read_fastq(io);
    ASSERT_EQ(parsed.size(), 3u);

    std::size_t dropped = 0;
    const auto batch = to_read_batch(parsed, &dropped);
    EXPECT_EQ(batch.read_length, 8u);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(batch.reads[0].to_string(), "ACGTACGT");
    EXPECT_EQ(batch.reads[1].id, 1u);
}

// ------------------------------------------------------------ genome sim

TEST(GenomeSim, RespectsLengthAndDeterminism) {
    GenomeSimConfig config;
    config.length = 30'000;
    config.seed = 5;
    const auto a = simulate_genome(config);
    const auto b = simulate_genome(config);
    EXPECT_EQ(a.size(), 30'000u);
    EXPECT_EQ(a.sequence(), b.sequence());

    config.seed = 6;
    const auto c = simulate_genome(config);
    EXPECT_NE(a.sequence(), c.sequence());
}

TEST(GenomeSim, GcContentNearTarget) {
    GenomeSimConfig config;
    config.length = 200'000;
    config.gc_content = 0.41;
    const auto ref = simulate_genome(config);
    std::size_t gc = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto code = ref.code_at(i);
        gc += (code == 1 || code == 2) ? 1 : 0;
    }
    const double fraction = static_cast<double>(gc) / ref.size();
    EXPECT_NEAR(fraction, 0.41, 0.04);
}

/// 12-mer spectrum of a reference, counted in the test itself: the
/// largest k-mer count and the fraction of positions whose k-mer occurs
/// more than 4 times.
struct KmerSpectrum {
    std::uint32_t max_count = 0;
    double repetitive_fraction = 0.0;
};

KmerSpectrum kmer_spectrum_of(const Reference& ref) {
    std::map<std::uint64_t, std::uint32_t> counts;
    std::uint64_t kmer = 0;
    const std::uint32_t k = 12;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        kmer = ((kmer << 2) | ref.code_at(i)) & ((1ULL << (2 * k)) - 1);
        if (i + 1 >= k) ++counts[kmer];
    }
    KmerSpectrum s;
    std::uint64_t repetitive = 0;
    for (const auto& [key, count] : counts) {
        s.max_count = std::max(s.max_count, count);
        if (count > 4) repetitive += count;
    }
    s.repetitive_fraction =
        static_cast<double>(repetitive) / (ref.size() - k + 1);
    return s;
}

TEST(GenomeSim, RepeatsSkewKmerSpectrum) {
    // With interspersed repeats, some k-mers must be much more frequent
    // than the Poisson background would allow.
    GenomeSimConfig config;
    config.length = 150'000;
    config.interspersed_fraction = 0.45;
    const KmerSpectrum spectrum = kmer_spectrum_of(simulate_genome(config));
    // Background expectation is ~150k/16.7M << 1 per k-mer; repeats
    // should push some k-mer into double digits.
    EXPECT_GE(spectrum.max_count, 10u);
}

TEST(Spectrum, RepeatRichGenomeIsHeavyTailed) {
    // Against a repeat-free genome of the same length, the repeat-rich
    // one must have a heavy-tailed spectrum (DESIGN.md §2: the synthetic
    // genome stands in for a repeat-rich chromosome).
    GenomeSimConfig repeat_rich;
    repeat_rich.length = 120'000;
    repeat_rich.interspersed_fraction = 0.5;
    repeat_rich.repeat_divergence = 0.02;
    GenomeSimConfig plain = repeat_rich;
    plain.interspersed_fraction = 0.0;
    plain.tandem_fraction = 0.0;

    const KmerSpectrum rich = kmer_spectrum_of(simulate_genome(repeat_rich));
    const KmerSpectrum flat = kmer_spectrum_of(simulate_genome(plain));
    EXPECT_GT(rich.repetitive_fraction, 5 * flat.repetitive_fraction);
    EXPECT_GT(rich.max_count, 4 * flat.max_count);
}

TEST(GenomeSim, RejectsDegenerateConfigs) {
    GenomeSimConfig config;
    config.length = 0;
    EXPECT_THROW((void)simulate_genome(config), std::invalid_argument);
    config.length = 1000;
    config.interspersed_fraction = 0.9;
    config.tandem_fraction = 0.2;
    EXPECT_THROW((void)simulate_genome(config), std::invalid_argument);
}

// -------------------------------------------------------------- read sim

TEST(ReadSim, GroundTruthWithinEditBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    const auto ref = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.n_reads = 200;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    const auto sim = simulate_reads(ref, rconfig);
    ASSERT_EQ(sim.batch.size(), 200u);
    ASSERT_EQ(sim.origins.size(), 200u);

    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto& read = sim.batch.reads[i];
        const auto& origin = sim.origins[i];
        ASSERT_EQ(read.length(), 100u);
        EXPECT_LE(origin.edits, 5u);

        // The read (in forward orientation) must align to its origin
        // window within the budget.
        const auto window = ref.sequence().extract(
            origin.position, rconfig.read_length + rconfig.max_errors);
        const std::vector<std::uint8_t> query =
            origin.strand == Strand::Reverse ? read.reverse_complement()
                                             : read.codes;
        const auto distance =
            repute::align::semiglobal_distance(query, window);
        EXPECT_LE(distance, origin.edits)
            << "read " << i << " strand "
            << repute::genomics::strand_char(origin.strand);
    }
}

TEST(ReadSim, DeterministicAndSeedSensitive) {
    GenomeSimConfig gconfig;
    gconfig.length = 20'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 50;
    const auto a = simulate_reads(ref, rconfig);
    const auto b = simulate_reads(ref, rconfig);
    EXPECT_EQ(a.batch.reads[7].codes, b.batch.reads[7].codes);
    rconfig.seed = 999;
    const auto c = simulate_reads(ref, rconfig);
    bool any_diff = false;
    for (std::size_t i = 0; i < 50; ++i) {
        any_diff |= a.batch.reads[i].codes != c.batch.reads[i].codes;
    }
    EXPECT_TRUE(any_diff);
}

TEST(ReadSim, QualityModelProducesRampAndBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 80'000;
    const auto ref = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.n_reads = 400;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true;
    rconfig.phred_start = 38.0;
    rconfig.phred_end = 15.0; // strong ramp so the 3' bias is visible
    const auto sim = simulate_reads(ref, rconfig);

    std::uint64_t total_errors = 0;
    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto& read = sim.batch.reads[i];
        ASSERT_EQ(read.quality.size(), 100u);
        EXPECT_LE(sim.origins[i].edits, 5u);
        total_errors += sim.origins[i].edits;
        // Phred+33 characters in the modeled range.
        for (const char c : read.quality) {
            EXPECT_GE(c, 33 + 2);
            EXPECT_LE(c, 33 + 41);
        }
        // Forward reads: quality descends along the read.
        if (sim.origins[i].strand == Strand::Forward) {
            EXPECT_GT(read.quality.front(), read.quality.back());
        } else {
            EXPECT_LT(read.quality.front(), read.quality.back());
        }
    }
    // With phred 38->15 the mean per-base error probability is ~1%,
    // so ~1-2 errors/read on average; definitely nonzero.
    EXPECT_GT(total_errors, sim.batch.size() / 2);
}

TEST(ReadSim, QualityReadsRemainMappableWithinBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 100;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true;
    const auto sim = simulate_reads(ref, rconfig);
    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto window = ref.sequence().extract(
            sim.origins[i].position,
            rconfig.read_length + rconfig.max_errors);
        const auto query =
            sim.origins[i].strand == Strand::Reverse
                ? sim.batch.reads[i].reverse_complement()
                : sim.batch.reads[i].codes;
        EXPECT_LE(repute::align::semiglobal_distance(query, window),
                  sim.origins[i].edits);
    }
}

TEST(ReadSim, ToFastqRecordsRoundTrip) {
    GenomeSimConfig gconfig;
    gconfig.length = 30'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 50;
    rconfig.read_length = 80;
    rconfig.quality_model = true;
    const auto sim = simulate_reads(ref, rconfig);

    const auto records = repute::genomics::to_fastq_records(sim);
    ASSERT_EQ(records.size(), 50u);
    std::size_t dropped = 0;
    const auto batch = to_read_batch(records, &dropped);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(batch.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(batch.reads[i].codes, sim.batch.reads[i].codes);
    }
}

TEST(ReadSim, RejectsTooShortReference) {
    const auto ref = Reference::from_ascii("tiny", "ACGTACGT");
    ReadSimConfig config;
    config.read_length = 100;
    EXPECT_THROW((void)simulate_reads(ref, config), std::invalid_argument);
}

// -------------------------------------------------------------- SAM-lite

TEST(SamLite, StrandFlag) {
    SamRecord rec;
    EXPECT_EQ(rec.strand(), Strand::Forward);
    rec.flag |= SamRecord::kFlagReverse;
    EXPECT_EQ(rec.strand(), Strand::Reverse);
}

} // namespace
