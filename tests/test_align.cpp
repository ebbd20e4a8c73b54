// Alignment kernels: the DP references against hand-checked cases, the
// Myers bit-vector / banded DP against the full DP on random sweeps, and
// the differential harness pinning the bit-parallel CIGAR traceback
// (semiglobal_align) to the full-table DP oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "align/edit_distance.hpp"
#include "align/myers.hpp"
#include "full_dp_oracle.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"

namespace {

using repute::align::banded_semiglobal_distance;
using repute::align::levenshtein;
using repute::align::MyersMatcher;
using repute::align::semiglobal_align;
using repute::align::SemiGlobalAligner;
using repute::align::SemiGlobalAlignment;
using repute::align::semiglobal_distance;
using repute::testing::full_dp_align;
using repute::util::Xoshiro256;

std::vector<std::uint8_t> codes(const std::string& s) {
    std::vector<std::uint8_t> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        out[i] = repute::util::base_to_code(s[i]);
    }
    return out;
}

std::vector<std::uint8_t> random_codes(Xoshiro256& rng, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& c : out) c = static_cast<std::uint8_t>(rng.bounded(4));
    return out;
}

/// Applies up to `edits` random edits to a copy of `base`.
std::vector<std::uint8_t> mutate(Xoshiro256& rng,
                                 std::vector<std::uint8_t> base,
                                 std::uint32_t edits) {
    for (std::uint32_t e = 0; e < edits && !base.empty(); ++e) {
        const auto kind = rng.bounded(3);
        const std::size_t pos = rng.bounded(base.size());
        if (kind == 0) {
            base[pos] =
                static_cast<std::uint8_t>((base[pos] + 1 + rng.bounded(3)) & 3);
        } else if (kind == 1) {
            base.insert(base.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<std::uint8_t>(rng.bounded(4)));
        } else {
            base.erase(base.begin() + static_cast<std::ptrdiff_t>(pos));
        }
    }
    return base;
}

// ----------------------------------------------------------- references

TEST(Levenshtein, HandCheckedCases) {
    EXPECT_EQ(levenshtein(codes(""), codes("")), 0u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("ACGT")), 0u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("")), 4u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("AGT")), 1u);  // deletion
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("AACGT")), 1u); // insertion
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("ACCT")), 1u);  // sub
    EXPECT_EQ(levenshtein(codes("AAAA"), codes("TTTT")), 4u);
    EXPECT_EQ(levenshtein(codes("GATTACA"), codes("TACT")), 4u);
}

TEST(Levenshtein, SymmetricAndTriangle) {
    Xoshiro256 rng(5);
    for (int i = 0; i < 40; ++i) {
        const auto a = random_codes(rng, 1 + rng.bounded(40));
        const auto b = random_codes(rng, 1 + rng.bounded(40));
        const auto c = random_codes(rng, 1 + rng.bounded(40));
        const auto ab = levenshtein(a, b);
        EXPECT_EQ(ab, levenshtein(b, a));
        EXPECT_LE(levenshtein(a, c), ab + levenshtein(b, c));
    }
}

TEST(SemiGlobal, ZeroWhenPatternIsSubstring) {
    EXPECT_EQ(semiglobal_distance(codes("TACA"), codes("GATTACAG")), 0u);
    EXPECT_EQ(semiglobal_distance(codes("GATT"), codes("GATTACAG")), 0u);
    EXPECT_EQ(semiglobal_distance(codes("ACAG"), codes("GATTACAG")), 0u);
}

TEST(SemiGlobal, NeverExceedsGlobalDistance) {
    Xoshiro256 rng(17);
    for (int i = 0; i < 60; ++i) {
        const auto p = random_codes(rng, 1 + rng.bounded(30));
        const auto t = random_codes(rng, 1 + rng.bounded(60));
        EXPECT_LE(semiglobal_distance(p, t), levenshtein(p, t));
        EXPECT_LE(semiglobal_distance(p, t), p.size());
    }
}

TEST(SemiGlobalAlign, TracebackConsistency) {
    const auto result =
        semiglobal_align(codes("TACA"), codes("GATTACAG"), 1);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->distance, 0u);
    EXPECT_EQ(result->cigar, "4M");
    EXPECT_EQ(result->text_start, 3u);
    EXPECT_EQ(result->text_end, 7u);
}

TEST(SemiGlobalAlign, RejectsAboveMaxDistance) {
    EXPECT_FALSE(
        semiglobal_align(codes("AAAA"), codes("TTTTTTTT"), 2).has_value());
    EXPECT_TRUE(
        semiglobal_align(codes("AAAA"), codes("TTTTTTTT"), 4).has_value());
}

TEST(SemiGlobalAlign, CigarConsumesWholePattern) {
    Xoshiro256 rng(23);
    for (int i = 0; i < 40; ++i) {
        const auto p = random_codes(rng, 4 + rng.bounded(40));
        const auto t = mutate(rng, p, rng.bounded(4));
        if (t.empty()) continue;
        const auto result = semiglobal_align(
            p, t, static_cast<std::uint32_t>(p.size()));
        ASSERT_TRUE(result.has_value());
        // Parse CIGAR: M and I consume pattern bases.
        std::size_t consumed = 0, num = 0;
        for (const char c : result->cigar) {
            if (c >= '0' && c <= '9') {
                num = num * 10 + static_cast<std::size_t>(c - '0');
            } else {
                if (c == 'M' || c == 'I') consumed += num;
                num = 0;
            }
        }
        EXPECT_EQ(consumed, p.size()) << "cigar " << result->cigar;
        EXPECT_EQ(result->distance, semiglobal_distance(p, t));
    }
}

// ------------------------------------ CIGAR traceback: differential

/// Asserts the aligner's answer equals the full-table oracle's: same
/// accept/reject, and when accepted the same distance, window and CIGAR.
void expect_matches_oracle(SemiGlobalAligner& aligner,
                           const std::vector<std::uint8_t>& p,
                           const std::vector<std::uint8_t>& t,
                           std::uint32_t max_distance, std::size_t& cases) {
    const auto oracle = full_dp_align(p, t, max_distance);
    SemiGlobalAlignment got;
    got.cigar = "stale"; // a reused result must be fully overwritten
    const bool accepted = aligner.align(p, t, max_distance, got);
    ++cases;
    ASSERT_EQ(accepted, oracle.has_value())
        << "m=" << p.size() << " t=" << t.size() << " max=" << max_distance;
    if (!accepted) return;
    ASSERT_EQ(got.distance, oracle->distance)
        << "m=" << p.size() << " t=" << t.size() << " max=" << max_distance;
    ASSERT_EQ(got.text_start, oracle->text_start)
        << "m=" << p.size() << " t=" << t.size() << " max=" << max_distance;
    ASSERT_EQ(got.text_end, oracle->text_end)
        << "m=" << p.size() << " t=" << t.size() << " max=" << max_distance;
    ASSERT_EQ(got.cigar, oracle->cigar)
        << "m=" << p.size() << " t=" << t.size() << " max=" << max_distance;
}

/// A low-complexity pattern (tandem repeat of a 1-4 base motif): ties
/// between equally good alignments are everywhere, so the tie-breaks
/// (leftmost end, diagonal before I before D) decide the CIGAR.
std::vector<std::uint8_t> tandem_codes(Xoshiro256& rng, std::size_t n) {
    const auto motif = random_codes(rng, 1 + rng.bounded(4));
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = motif[i % motif.size()];
    return out;
}

// 100 is the single-end read length, 150 the paired one, 512 the
// verification kernel's longest read; the rest straddle word edges.
constexpr std::size_t kCigarLengths[] = {1,   63,  64,  65,  100,
                                         127, 128, 129, 150, 512};

/// Sweep cases per (length, δ): shrinking with m², the oracle's table.
std::size_t cigar_cases_per_delta(std::size_t m) {
    return std::clamp<std::size_t>(100'000'000 / (m * m) / 9, 40, 3000);
}

class CigarDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CigarDifferential, MatchesFullTableOracle) {
    // Seeded sweep at one pattern length: every δ in 0..8, windows of
    // the annotate geometry (n + 2δ, the read planted with ≤ δ+2
    // edits), windows clipped at the reference's start or end (possibly
    // shorter than the pattern), unrelated and empty texts, all-mismatch
    // pairs and tandem repeats; budgets of δ, 0, ≥ m and unbounded.
    const std::size_t m = GetParam();
    Xoshiro256 rng(0xC16A5 + m);
    const std::size_t per_delta = cigar_cases_per_delta(m);
    SemiGlobalAligner aligner;
    std::size_t cases = 0;
    for (std::uint32_t delta = 0; delta <= 8; ++delta) {
        const std::size_t full = m + 2 * delta;
        for (std::size_t c = 0; c < per_delta; ++c) {
            auto p = rng.chance(0.15) ? tandem_codes(rng, m)
                                      : random_codes(rng, m);
            std::vector<std::uint8_t> t;
            switch (rng.bounded(8)) {
            case 0: // unrelated window
                t = random_codes(rng, full);
                break;
            case 1: // clipped at the text's start: a shorter left flank
            case 2: { // or at its end: the window runs off the text
                auto left = random_codes(rng, rng.bounded(delta + 1));
                const auto edits =
                    static_cast<std::uint32_t>(rng.bounded(delta + 1));
                const auto body = mutate(rng, p, edits);
                left.insert(left.end(), body.begin(), body.end());
                const std::size_t keep = rng.bounded(left.size() + 1);
                if (rng.chance(0.5)) {
                    t.assign(left.end() - static_cast<std::ptrdiff_t>(keep),
                             left.end());
                } else {
                    t.assign(left.begin(),
                             left.begin() + static_cast<std::ptrdiff_t>(keep));
                }
                break;
            }
            case 3: // empty, or shorter than the pattern
                t = rng.chance(0.3) ? std::vector<std::uint8_t>{}
                                    : random_codes(rng, rng.bounded(m));
                break;
            case 4: { // all-mismatch pair
                const auto base = static_cast<std::uint8_t>(rng.bounded(4));
                p.assign(m, base);
                const auto other =
                    static_cast<std::uint8_t>((base + 1 + rng.bounded(3)) & 3);
                t.assign(rng.bounded(full + 1), other);
                break;
            }
            default: { // the annotate geometry: read planted in n + 2δ
                const auto edits =
                    static_cast<std::uint32_t>(rng.bounded(delta + 3));
                const auto body = mutate(rng, p, edits);
                t = random_codes(rng, rng.bounded(2 * delta + 1));
                t.insert(t.end(), body.begin(), body.end());
                const auto right = random_codes(rng, full > t.size()
                                                         ? full - t.size()
                                                         : 0);
                t.insert(t.end(), right.begin(), right.end());
                t.resize(std::min(t.size(), full));
                break;
            }
            }
            std::uint32_t max_distance = delta;
            const auto budget = rng.bounded(10);
            if (budget == 0) {
                max_distance = 0;
            } else if (budget == 1) {
                max_distance = static_cast<std::uint32_t>(m + rng.bounded(4));
            } else if (budget == 2) {
                max_distance = std::numeric_limits<std::uint32_t>::max();
            }
            expect_matches_oracle(aligner, p, t, max_distance, cases);
            if (HasFatalFailure()) return;
        }
    }
    EXPECT_EQ(cases, 9 * per_delta);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CigarDifferential,
                         ::testing::ValuesIn(kCigarLengths),
                         [](const auto& param_info) {
                             return "m" + std::to_string(param_info.param);
                         });

TEST(CigarDifferential, SweepRunsAtLeast100kCases) {
    std::size_t total = 0;
    for (const std::size_t m : kCigarLengths) {
        total += 9 * cigar_cases_per_delta(m);
    }
    EXPECT_GE(total, 100'000u);
}

TEST(CigarDifferential, ScratchReuseAcrossRandomLengths) {
    // One aligner across patterns of 1..600 bases (past the verification
    // kernel's 512 cap: the aligner has no length limit) and texts that
    // grow and shrink, so every call runs on scratch sized by an earlier,
    // different call.
    Xoshiro256 rng(600);
    SemiGlobalAligner aligner;
    std::size_t cases = 0;
    for (int c = 0; c < 1500; ++c) {
        const std::size_t m = 1 + rng.bounded(600);
        const auto p = rng.chance(0.2) ? tandem_codes(rng, m)
                                       : random_codes(rng, m);
        auto t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(12)));
        const auto flank = random_codes(rng, rng.bounded(20));
        t.insert(t.begin(), flank.begin(), flank.end());
        t.resize(rng.bounded(t.size() + 1));
        expect_matches_oracle(aligner, p, t,
                              static_cast<std::uint32_t>(rng.bounded(16)),
                              cases);
        if (HasFatalFailure()) return;
    }
}

TEST(CigarDifferential, EmptyPatternAndEmptyText) {
    SemiGlobalAligner aligner;
    std::size_t cases = 0;
    expect_matches_oracle(aligner, {}, {}, 0, cases);
    expect_matches_oracle(aligner, {}, codes("ACGT"), 0, cases);
    expect_matches_oracle(aligner, codes("ACG"), {}, 3, cases);
    expect_matches_oracle(aligner, codes("ACG"), {}, 2, cases);
    const auto empty_pattern = semiglobal_align({}, codes("ACGT"), 0);
    ASSERT_TRUE(empty_pattern.has_value());
    EXPECT_EQ(empty_pattern->cigar, "");
    const auto empty_text = semiglobal_align(codes("ACG"), {}, 3);
    ASSERT_TRUE(empty_text.has_value());
    EXPECT_EQ(empty_text->cigar, "3I");
}

TEST(CigarDifferential, TieBreaksHandChecked) {
    // Two exact occurrences: the leftmost end wins.
    const auto twice = semiglobal_align(codes("ACGT"), codes("ACGTACGT"), 0);
    ASSERT_TRUE(twice.has_value());
    EXPECT_EQ(twice->text_end, 4u);
    // One base short of a homopolymer run: ending at the last G costs
    // a deletion (1), but ending one base earlier with a G/A
    // substitution costs 1 too, and the leftmost best end wins.
    const auto run = semiglobal_align(codes("CCAAAGG"), codes("CCAAAAGG"), 1);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->distance, 1u);
    EXPECT_EQ(run->text_start, 0u);
    EXPECT_EQ(run->text_end, 7u);
    EXPECT_EQ(run->cigar, "7M");
}

// ----------------------------------------------------------- banded DP

TEST(BandedSemiGlobal, MatchesFullDpWithinBand) {
    Xoshiro256 rng(31);
    for (int i = 0; i < 120; ++i) {
        const auto p = random_codes(rng, 8 + rng.bounded(60));
        const auto edits = static_cast<std::uint32_t>(rng.bounded(6));
        auto t = mutate(rng, p, edits);
        if (t.empty()) t = random_codes(rng, 4);
        const std::uint32_t band = 1 + static_cast<std::uint32_t>(
                                           rng.bounded(8));
        const auto exact = semiglobal_distance(p, t);
        const auto banded = banded_semiglobal_distance(p, t, band);
        if (exact <= band) {
            EXPECT_EQ(banded, exact)
                << "band " << band << " |p|=" << p.size()
                << " |t|=" << t.size();
        } else {
            EXPECT_EQ(banded, band + 1);
        }
    }
}

// -------------------------------------------------------- Myers matcher

TEST(Myers, RejectsBadPatterns) {
    EXPECT_THROW(MyersMatcher(codes("")), std::invalid_argument);
    EXPECT_THROW(MyersMatcher(std::vector<std::uint8_t>(513, 0)),
                 std::invalid_argument);
    EXPECT_NO_THROW(MyersMatcher(std::vector<std::uint8_t>(512, 1)));
}

TEST(Myers, ExactSubstringScoresZero) {
    const MyersMatcher m(codes("TTACA"));
    const auto hit = m.best_in(codes("GATTACAGATT"));
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 7u);
}

class MyersSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MyersSweep, MatchesFullDpSemiGlobal) {
    const auto [pattern_len, seed] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 1000 + pattern_len);
    for (int trial = 0; trial < 25; ++trial) {
        const auto p = random_codes(rng, pattern_len);
        // Mix of related and unrelated texts around the pattern length.
        std::vector<std::uint8_t> t;
        if (rng.chance(0.6)) {
            t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(10)));
            // Embed in flanking sequence.
            auto left = random_codes(rng, rng.bounded(20));
            auto right = random_codes(rng, rng.bounded(20));
            left.insert(left.end(), t.begin(), t.end());
            left.insert(left.end(), right.begin(), right.end());
            t = std::move(left);
        } else {
            t = random_codes(rng, 1 + rng.bounded(2 * pattern_len));
        }
        const MyersMatcher m(p);
        const auto hit = m.best_in(t);
        EXPECT_EQ(hit.distance, semiglobal_distance(p, t))
            << "len " << pattern_len << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, MyersSweep,
    ::testing::Combine(
        // Word-boundary cases matter: 1 word (<=64), exactly 64,
        // 2 words (100, 128), 3 words (150, 192), 4+ (200, 300).
        ::testing::Values<std::size_t>(5, 17, 33, 63, 64, 65, 100, 127,
                                       128, 129, 150, 192, 200, 300),
        ::testing::Values(1, 2, 3)));

TEST(Myers, EarliestBestEndReported) {
    // Pattern occurs twice exactly; the earlier end must win.
    const MyersMatcher m(codes("ACGT"));
    const auto hit = m.best_in(codes("TTACGTTTACGTTT"));
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 6u);
}

TEST(Myers, ScanCostScalesWithWords) {
    Xoshiro256 rng(1);
    const MyersMatcher one_word(random_codes(rng, 64));
    const MyersMatcher three_words(random_codes(rng, 150));
    EXPECT_EQ(one_word.scan_cost(100), 100u);
    EXPECT_EQ(three_words.scan_cost(100), 300u);
}

TEST(Myers, EmptyTextReturnsPatternLength) {
    const MyersMatcher m(codes("ACGTACGT"));
    const auto hit = m.best_in({});
    EXPECT_EQ(hit.distance, 8u);
    EXPECT_EQ(hit.text_end, 0u);
}

// ------------------------------------------------- banded Myers matcher

class MyersBandedSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MyersBandedSweep, AgreesWithFullScanAtEveryDelta) {
    const auto [pattern_len, seed] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7777 + pattern_len);
    for (int trial = 0; trial < 25; ++trial) {
        const auto p = random_codes(rng, pattern_len);
        std::vector<std::uint8_t> t;
        if (rng.chance(0.6)) {
            t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(10)));
            auto left = random_codes(rng, rng.bounded(20));
            auto right = random_codes(rng, rng.bounded(20));
            left.insert(left.end(), t.begin(), t.end());
            left.insert(left.end(), right.begin(), right.end());
            t = std::move(left);
        } else {
            t = random_codes(rng, 1 + rng.bounded(2 * pattern_len));
        }
        const MyersMatcher m(p);
        const auto full = m.best_in(t);
        const auto full_ops = m.last_word_ops();
        EXPECT_EQ(full_ops, m.scan_cost(t.size()));
        for (std::uint32_t delta = 0; delta <= 8; ++delta) {
            const auto banded = m.best_in_bounded(t, delta);
            if (full.distance <= delta) {
                // Exact contract below the bound: same distance, same
                // earliest end.
                EXPECT_EQ(banded.distance, full.distance)
                    << "len " << pattern_len << " delta " << delta;
                EXPECT_EQ(banded.text_end, full.text_end)
                    << "len " << pattern_len << " delta " << delta;
            } else {
                EXPECT_GT(banded.distance, delta)
                    << "len " << pattern_len << " delta " << delta;
            }
            // The banded scan never does more work than the full scan.
            EXPECT_LE(m.last_word_ops(), full_ops);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, MyersBandedSweep,
    ::testing::Combine(
        ::testing::Values<std::size_t>(5, 17, 63, 64, 65, 100, 127, 128,
                                       129, 150, 192, 200, 300),
        ::testing::Values(1, 2, 3)));

TEST(MyersBanded, SkipsWordsOutsideTheBand) {
    // n=300 (5 words), short window: the band never reaches the high
    // words early and freezes low words late, so the banded scan must
    // do measurably fewer word-columns than the full scan.
    Xoshiro256 rng(99);
    const auto p = random_codes(rng, 300);
    const auto t = random_codes(rng, 310);
    const MyersMatcher m(p);
    (void)m.best_in(t);
    const auto full_ops = m.last_word_ops();
    (void)m.best_in_bounded(t, 5);
    EXPECT_LT(m.last_word_ops(), full_ops / 2)
        << "banded scan did " << m.last_word_ops() << " of " << full_ops;
}

TEST(MyersBanded, EarlyExitOnHopelessWindowIsFlagged) {
    // All-A pattern vs all-T text: the bottom score stays ~m, so the
    // Lipschitz bound abandons the scan long before the last column.
    const std::vector<std::uint8_t> p(100, 0), t(500, 3);
    const MyersMatcher m(p);
    const auto hit = m.best_in_bounded(t, 5);
    EXPECT_GT(hit.distance, 5u);
    EXPECT_TRUE(hit.early_exit);
    EXPECT_LT(m.last_word_ops(), m.scan_cost(t.size()));
}

TEST(MyersBanded, ExactHitStopsAtZero) {
    const MyersMatcher m(codes("ACGT"));
    const auto hit = m.best_in_bounded(codes("TTACGTTTACGTTT"), 1);
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 6u);
    EXPECT_TRUE(hit.early_exit);
}

TEST(MyersBanded, WindowShorterThanPattern) {
    // Clamped windows at reference boundaries can be shorter than the
    // read; the scan must survive and agree with the full DP.
    Xoshiro256 rng(123);
    for (int trial = 0; trial < 40; ++trial) {
        const auto p = random_codes(rng, 20 + rng.bounded(120));
        const auto t = random_codes(rng, 1 + rng.bounded(p.size() - 1));
        const MyersMatcher m(p);
        const auto full = m.best_in(t);
        for (const std::uint32_t delta : {0u, 3u, 5u}) {
            const auto banded = m.best_in_bounded(t, delta);
            if (full.distance <= delta) {
                EXPECT_EQ(banded.distance, full.distance);
                EXPECT_EQ(banded.text_end, full.text_end);
            } else {
                EXPECT_GT(banded.distance, delta);
            }
        }
    }
}

TEST(MyersBanded, EmptyTextReturnsPatternLength) {
    const MyersMatcher m(codes("ACGTACGT"));
    const auto hit = m.best_in_bounded({}, 3);
    EXPECT_EQ(hit.distance, 8u);
    EXPECT_EQ(hit.text_end, 0u);
    EXPECT_FALSE(hit.early_exit);
    EXPECT_EQ(m.last_word_ops(), 0u);
}

} // namespace
