// Binary (de)serialization helpers (util/serialize.hpp) and the word
// round trip the .rix container relies on: BitVector and PackedDna are
// written as their backing words and reopened as zero-copy views.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/bitvector.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"
#include "util/serialize.hpp"

namespace {

using repute::util::BitVector;
using repute::util::PackedDna;
using repute::util::Xoshiro256;

TEST(Serialize, PodAndVectorRoundTrip) {
    std::stringstream io;
    repute::util::write_pod<std::uint32_t>(io, 0xDEADBEEF);
    repute::util::write_vector<std::uint16_t>(io, {1, 2, 3});
    EXPECT_EQ(repute::util::read_pod<std::uint32_t>(io), 0xDEADBEEFu);
    EXPECT_EQ(repute::util::read_vector<std::uint16_t>(io),
              (std::vector<std::uint16_t>{1, 2, 3}));
}

TEST(Serialize, ShortReadThrows) {
    std::stringstream io;
    repute::util::write_pod<std::uint16_t>(io, 7);
    EXPECT_THROW((void)repute::util::read_pod<std::uint64_t>(io),
                 std::runtime_error);
}

TEST(Serialize, BitVectorRoundTripPreservesRank) {
    Xoshiro256 rng(3);
    BitVector bv(5000);
    for (int i = 0; i < 700; ++i) bv.set(rng.bounded(5000));
    bv.build_rank();

    // The .rix writer stores words(); the opener rebuilds a view.
    const std::vector<std::uint64_t> stored(bv.words().begin(),
                                            bv.words().end());
    const BitVector loaded = BitVector::view_of(stored, bv.size());
    EXPECT_TRUE(loaded.is_view());
    ASSERT_EQ(loaded.size(), bv.size());
    EXPECT_EQ(loaded.count_ones(), bv.count_ones());
    for (std::size_t i = 0; i <= 5000; i += 37) {
        EXPECT_EQ(loaded.rank1(i), bv.rank1(i)) << "i=" << i;
    }
}

TEST(Serialize, PackedDnaRoundTrip) {
    Xoshiro256 rng(4);
    std::string s(513, 'A');
    for (auto& c : s) c = "ACGT"[rng.bounded(4)];
    const PackedDna dna{std::string_view(s)};

    const std::vector<std::uint64_t> stored(dna.words().begin(),
                                            dna.words().end());
    const PackedDna loaded = PackedDna::view_of(stored, dna.size());
    EXPECT_TRUE(loaded.is_view());
    EXPECT_EQ(loaded, dna);
}

} // namespace
