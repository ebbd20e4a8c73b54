// Filtration: partition invariants for every seeder, equivalence of the
// memory-optimized DP with the full Optimal Seed Solver, optimality of
// the DP against brute-force enumeration, frequency scanner consistency,
// and candidate gathering.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <string>

#include "filter/candidates.hpp"
#include "filter/frequency_scanner.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/optimal_seeder.hpp"
#include "filter/uniform_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "util/prng.hpp"

namespace {

using repute::filter::FrequencyScanner;
using repute::filter::gather_candidates;
using repute::filter::HeuristicSeeder;
using repute::filter::MemoryOptimizedSeeder;
using repute::filter::OptimalSeeder;
using repute::filter::Seeder;
using repute::filter::SeedPlan;
using repute::filter::UniformSeeder;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::index::FmIndex;
using repute::util::Xoshiro256;

/// Shared fixture: one repeat-rich genome + index for all filter tests.
class FilterTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig config;
        config.length = 120'000;
        config.seed = 11;
        reference_ = new Reference(simulate_genome(config));
        fm_ = new FmIndex(*reference_, 4);
    }
    static void TearDownTestSuite() {
        delete fm_;
        delete reference_;
        fm_ = nullptr;
        reference_ = nullptr;
    }

    static std::vector<std::uint8_t> sample_read(Xoshiro256& rng,
                                                 std::size_t n) {
        const std::size_t pos = rng.bounded(reference_->size() - n);
        return reference_->sequence().extract(pos, n);
    }

    static void check_partition(const SeedPlan& plan, std::size_t n,
                                std::uint32_t delta, std::uint32_t s_min) {
        ASSERT_EQ(plan.seeds.size(), delta + 1);
        std::uint32_t expected_start = 0;
        for (const auto& seed : plan.seeds) {
            EXPECT_EQ(seed.start, expected_start);
            EXPECT_GE(seed.length, s_min);
            expected_start += seed.length;
        }
        EXPECT_EQ(expected_start, n);
    }

    static Reference* reference_;
    static FmIndex* fm_;
};

Reference* FilterTest::reference_ = nullptr;
FmIndex* FilterTest::fm_ = nullptr;

// --------------------------------------------------- partition contracts

class SeederContractTest
    : public FilterTest,
      public ::testing::WithParamInterface<int> {};

std::unique_ptr<Seeder> make_seeder(int kind, std::uint32_t s_min) {
    switch (kind) {
        case 0: return std::make_unique<UniformSeeder>(s_min);
        case 1: return std::make_unique<HeuristicSeeder>(s_min);
        case 2: return std::make_unique<OptimalSeeder>(s_min);
        default: return std::make_unique<MemoryOptimizedSeeder>(s_min);
    }
}

TEST_P(SeederContractTest, PartitionCoversReadWithMinLengths) {
    Xoshiro256 rng(100 + GetParam());
    for (const std::size_t n : {100u, 150u}) {
        for (const std::uint32_t delta : {3u, 5u, 7u}) {
            const std::uint32_t s_min = 12;
            if ((delta + 1) * s_min > n) continue;
            const auto seeder = make_seeder(GetParam(), s_min);
            for (int trial = 0; trial < 10; ++trial) {
                const auto read = sample_read(rng, n);
                const auto plan = seeder->select(*fm_, read, delta);
                check_partition(plan, n, delta, s_min);
                // total_candidates is the sum of the seed range counts.
                std::uint64_t sum = 0;
                for (const auto& s : plan.seeds) sum += s.range.count();
                EXPECT_EQ(plan.total_candidates, sum);
            }
        }
    }
}

TEST_P(SeederContractTest, RejectsImpossibleParameters) {
    const auto seeder = make_seeder(GetParam(), 20);
    const std::vector<std::uint8_t> read(100, 1);
    // 6 seeds x 20 = 120 > 100.
    EXPECT_THROW((void)seeder->select(*fm_, read, 5),
                 std::invalid_argument);
}

TEST_P(SeederContractTest, ScratchBoundIsPositive) {
    const auto seeder = make_seeder(GetParam(), 12);
    EXPECT_GT(seeder->scratch_bound(100, 5), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSeeders, SeederContractTest,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------ memory-optimized == full OSS

/// Memopt must reproduce the full solver's plan exactly (starts,
/// lengths, FM ranges, candidate total), never issue more FM extends
/// than it, and report exactly its static scratch bound.
void expect_memopt_matches_oss(const FmIndex& fm,
                               std::span<const std::uint8_t> read,
                               std::uint32_t delta, const OptimalSeeder& full,
                               const MemoryOptimizedSeeder& memopt) {
    SCOPED_TRACE("n=" + std::to_string(read.size()) + " delta=" +
                 std::to_string(delta) +
                 " s_min=" + std::to_string(memopt.s_min()));
    const auto a = full.select(fm, read, delta);
    const auto b = memopt.select(fm, read, delta);
    ASSERT_EQ(a.seeds.size(), b.seeds.size());
    for (std::size_t s = 0; s < a.seeds.size(); ++s) {
        EXPECT_EQ(a.seeds[s].start, b.seeds[s].start);
        EXPECT_EQ(a.seeds[s].length, b.seeds[s].length);
        EXPECT_EQ(a.seeds[s].range, b.seeds[s].range);
    }
    EXPECT_EQ(a.total_candidates, b.total_candidates);
    EXPECT_LE(b.fm_extends, a.fm_extends);
    EXPECT_EQ(b.scratch_bytes, memopt.scratch_bound(read.size(), delta));
}

TEST_F(FilterTest, MemoptMatchesFullOssOnRandomReads) {
    // Two read sources: exact substrings of the shared fixture genome,
    // and reads with edits sampled from a genome that is half
    // interspersed repeats at 2.5% divergence, where near-duplicate
    // k-mers make equal-cost divider ties common.
    GenomeSimConfig config;
    config.length = 150'000;
    config.seed = 29;
    config.interspersed_fraction = 0.5;
    config.repeat_divergence = 0.025;
    const Reference repeats = simulate_genome(config);
    const FmIndex repeat_fm(repeats, 4);
    auto edited_reads = [&](std::size_t n, std::size_t count,
                            std::uint64_t seed) {
        ReadSimConfig rconfig;
        rconfig.n_reads = count;
        rconfig.read_length = n;
        rconfig.max_errors = 5;
        rconfig.seed = seed;
        return simulate_reads(repeats, rconfig).batch.reads;
    };

    Xoshiro256 rng(77);
    const std::uint32_t deltas[] = {0, 3, 4, 5, 6, 7};
    for (const std::uint32_t s_min : {10u, 12u, 14u, 16u}) {
        const OptimalSeeder full(s_min);
        const MemoryOptimizedSeeder memopt(s_min);
        for (const std::size_t n : {100u, 150u}) {
            const auto edited = edited_reads(n, 8, 500 + s_min + n);
            for (const std::uint32_t delta : deltas) {
                if ((delta + 1) * s_min > n) continue;
                for (int trial = 0; trial < 8; ++trial) {
                    expect_memopt_matches_oss(*fm_, sample_read(rng, n),
                                              delta, full, memopt);
                    expect_memopt_matches_oss(repeat_fm,
                                              edited[trial].codes, delta,
                                              full, memopt);
                }
            }
        }
        // The E = 0 edge: every k-mer is exactly s_min long, so each
        // iteration's window is the single end x * s_min.
        for (const std::uint32_t delta : deltas) {
            const std::size_t n = (delta + 1) * s_min;
            ASSERT_EQ(MemoryOptimizedSeeder::exploration_space(n, delta,
                                                               s_min),
                      0u);
            const auto edited = edited_reads(n, 4, 900 + s_min + delta);
            for (int trial = 0; trial < 4; ++trial) {
                expect_memopt_matches_oss(*fm_, sample_read(rng, n), delta,
                                          full, memopt);
                expect_memopt_matches_oss(repeat_fm, edited[trial].codes,
                                          delta, full, memopt);
            }
        }
    }
}

TEST_F(FilterTest, FmExtendsEqualOccWordsRead) {
    // At the default checkpoint spacing one occ() reads one BWT word and
    // every extend() makes two occ() calls, so across one select() the
    // thread's occ-word counter moves by exactly 2 * fm_extends: every
    // extend charged to the device model was issued, and every issued
    // one was charged (DP scans, plan_from_boundaries and CORAL's
    // early-stopping length probes alike).
    ASSERT_EQ(fm_->checkpoint_every(), 128u);
    Xoshiro256 rng(4242);
    for (const std::uint32_t s_min : {10u, 14u}) {
        const MemoryOptimizedSeeder memopt(s_min);
        const OptimalSeeder optimal(s_min);
        const UniformSeeder uniform(s_min);
        const HeuristicSeeder heuristic(s_min);
        const Seeder* seeders[] = {&memopt, &optimal, &uniform, &heuristic};
        for (const std::size_t n : {100u, 150u}) {
            for (const std::uint32_t delta : {0u, 3u, 5u}) {
                if ((delta + 1) * s_min > n) continue;
                for (int trial = 0; trial < 6; ++trial) {
                    // Substitutions leave k-mers with no occurrence, so
                    // scans and CORAL's length probes stop early.
                    auto read = sample_read(rng, n);
                    for (int e = 0; e < trial; ++e) {
                        const std::size_t p = rng.bounded(n);
                        read[p] = static_cast<std::uint8_t>(
                            (read[p] + 1 + rng.bounded(3)) & 3);
                    }
                    for (const Seeder* s : seeders) {
                        SCOPED_TRACE(std::string(s->name()) + " n=" +
                                     std::to_string(n) + " delta=" +
                                     std::to_string(delta));
                        SeedPlan plan;
                        repute::filter::SeedScratch scratch;
                        const std::uint64_t before =
                            FmIndex::thread_occ_words();
                        s->select(*fm_, read, delta, plan, scratch);
                        EXPECT_EQ(FmIndex::thread_occ_words() - before,
                                  2 * plan.fm_extends);
                    }
                }
            }
        }
    }
}

TEST_F(FilterTest, MemoptUsesLessScratchThanFullOss) {
    const OptimalSeeder full(12);
    const MemoryOptimizedSeeder memopt(12);
    for (const std::size_t n : {100u, 150u}) {
        for (const std::uint32_t delta : {3u, 5u, 7u}) {
            EXPECT_LT(memopt.scratch_bound(n, delta),
                      full.scratch_bound(n, delta))
                << "n=" << n << " delta=" << delta;
        }
    }
}

// ---------------------------------------------- optimality (brute force)

TEST_F(FilterTest, DpIsOptimalAgainstBruteForceEnumeration) {
    // Short reads keep the brute-force partition count manageable.
    Xoshiro256 rng(31);
    const std::uint32_t s_min = 8;
    const std::uint32_t delta = 2; // 3 seeds
    const std::size_t n = 36;
    const MemoryOptimizedSeeder seeder(s_min);

    for (int trial = 0; trial < 20; ++trial) {
        const auto read = sample_read(rng, n);
        const auto plan = seeder.select(*fm_, read, delta);

        // Enumerate all (d1, d2) with seeds >= s_min.
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        FrequencyScanner scanner(*fm_, read);
        for (std::uint32_t d1 = s_min; d1 + 2 * s_min <= n; ++d1) {
            for (std::uint32_t d2 = d1 + s_min; d2 + s_min <= n; ++d2) {
                const std::uint64_t total =
                    scanner.frequency(0, d1) + scanner.frequency(d1, d2) +
                    scanner.frequency(d2, static_cast<std::uint32_t>(n));
                best = std::min(best, total);
            }
        }
        EXPECT_EQ(plan.total_candidates, best) << "trial " << trial;
    }
}

TEST_F(FilterTest, DpNeverWorseThanUniformOrHeuristic) {
    Xoshiro256 rng(53);
    const std::uint32_t s_min = 12;
    const MemoryOptimizedSeeder dp(s_min);
    const UniformSeeder uniform(s_min);
    const HeuristicSeeder heuristic(s_min);
    for (int trial = 0; trial < 30; ++trial) {
        const auto read = sample_read(rng, 100);
        const std::uint32_t delta = 3 + trial % 3;
        const auto dp_plan = dp.select(*fm_, read, delta);
        EXPECT_LE(dp_plan.total_candidates,
                  uniform.select(*fm_, read, delta).total_candidates);
        EXPECT_LE(dp_plan.total_candidates,
                  heuristic.select(*fm_, read, delta).total_candidates);
    }
}

// --------------------------------------------------- frequency scanner

TEST_F(FilterTest, SuffixFrequenciesMatchDirectSearch) {
    Xoshiro256 rng(41);
    const auto read = sample_read(rng, 80);
    FrequencyScanner scanner(*fm_, read);

    const std::uint32_t end = 60;
    const std::uint32_t min_start = 20;
    std::vector<std::uint32_t> freqs(end - min_start);
    scanner.suffix_frequencies(min_start, end, freqs);

    for (std::uint32_t d = min_start; d < end; ++d) {
        const auto direct = fm_->search(
            std::span(read).subspan(d, end - d));
        EXPECT_EQ(freqs[d - min_start], direct.count()) << "d=" << d;
    }
}

TEST_F(FilterTest, FrequencyShortCircuitsOnEmptyRange) {
    // A read full of the same base eventually has zero-frequency long
    // k-mers only if the genome lacks such runs; either way the scanner
    // must agree with direct search and never crash.
    std::vector<std::uint8_t> read(64, 2);
    FrequencyScanner scanner(*fm_, read);
    std::uint64_t extends = 0;
    const auto f = scanner.frequency(0, 64, &extends);
    EXPECT_EQ(f, fm_->search(read).count());
    EXPECT_LE(extends, 64u);
}

// -------------------------------------------------------- candidates

TEST_F(FilterTest, CandidatesContainTrueOriginForExactReads) {
    Xoshiro256 rng(67);
    const MemoryOptimizedSeeder seeder(12);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 100;
        const std::size_t pos = rng.bounded(reference_->size() - n);
        const auto read = reference_->sequence().extract(pos, n);
        const auto plan = seeder.select(*fm_, read, 5);
        const auto cands = gather_candidates(
            *fm_, plan, static_cast<std::uint32_t>(n), 5, {});
        // The true position must be within merge radius of a candidate.
        bool found = false;
        for (const auto c : cands.positions) {
            if (c <= pos + 5 && pos <= c + 5) found = true;
        }
        EXPECT_TRUE(found) << "true pos " << pos;
    }
}

TEST_F(FilterTest, CandidatesAreSortedAndDeduped) {
    Xoshiro256 rng(71);
    const UniformSeeder seeder(10);
    const auto read = sample_read(rng, 100);
    const auto plan = seeder.select(*fm_, read, 4);
    const auto cands = gather_candidates(*fm_, plan, 100, 4, {});
    for (std::size_t i = 1; i < cands.positions.size(); ++i) {
        EXPECT_GT(cands.positions[i], cands.positions[i - 1] + 4);
    }
}

TEST_F(FilterTest, MaxHitsPerSeedCapsLocates) {
    Xoshiro256 rng(73);
    const UniformSeeder seeder(10);
    const auto read = sample_read(rng, 100);
    const auto plan = seeder.select(*fm_, read, 4);
    repute::filter::CandidateConfig config;
    config.max_hits_per_seed = 2;
    const auto cands = gather_candidates(*fm_, plan, 100, 4, config);
    EXPECT_LE(cands.located_hits, 2u * plan.seeds.size());
}

TEST_F(FilterTest, JumpTablePathMatchesPlainBackwardSearch) {
    // The q-gram jump table is a pure fast path: every seeder must
    // produce the same partition, ranges, and candidate totals whether
    // the index carries a table (default q=8) or none at all (q=0) —
    // only the extends-vs-jumps accounting split may differ.
    const FmIndex no_jump(*reference_, 4, 128, /*qgram_length=*/0);
    ASSERT_NE(fm_->qgrams(), nullptr);
    ASSERT_EQ(no_jump.qgrams(), nullptr);

    const MemoryOptimizedSeeder memopt(12);
    const OptimalSeeder optimal(12);
    const UniformSeeder uniform(10);
    const Seeder* seeders[] = {&memopt, &optimal, &uniform};

    Xoshiro256 rng(2468);
    for (int trial = 0; trial < 10; ++trial) {
        const auto read = sample_read(rng, 80 + rng.bounded(120));
        const std::uint32_t delta = 2 + rng.bounded(4);
        for (const Seeder* s : seeders) {
            SCOPED_TRACE(std::string(s->name()) + " trial " +
                         std::to_string(trial));
            const SeedPlan with = s->select(*fm_, read, delta);
            const SeedPlan without = s->select(no_jump, read, delta);
            ASSERT_EQ(with.seeds.size(), without.seeds.size());
            for (std::size_t i = 0; i < with.seeds.size(); ++i) {
                EXPECT_EQ(with.seeds[i].start, without.seeds[i].start);
                EXPECT_EQ(with.seeds[i].length, without.seeds[i].length);
                EXPECT_EQ(with.seeds[i].range.count(),
                          without.seeds[i].range.count());
                if (!with.seeds[i].range.empty()) {
                    EXPECT_EQ(with.seeds[i].range, without.seeds[i].range);
                }
            }
            EXPECT_EQ(with.total_candidates, without.total_candidates);
            EXPECT_EQ(with.dp_cells, without.dp_cells);
            EXPECT_GT(with.qgram_jumps, 0u);
            EXPECT_EQ(without.qgram_jumps, 0u);
            EXPECT_LT(with.fm_extends, without.fm_extends);
        }
    }
}

TEST_F(FilterTest, ExplorationSpaceFormula) {
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(100, 4, 10), 50u);
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(150, 5, 22), 18u);
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(100, 4, 20), 0u);
}

} // namespace
