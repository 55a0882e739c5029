/**
 * @file
 * Tests for the line-level ECC codec and error injection — including
 * the fingerprint-relevant properties ESD relies on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <unordered_set>

#include "common/random.hh"
#include "ecc/error_injector.hh"
#include "ecc/line_ecc.hh"

namespace esd
{
namespace
{

CacheLine
randomLine(Pcg32 &rng)
{
    CacheLine l;
    rng.fillLine(l);
    return l;
}

TEST(LineEcc, ZeroLineHasZeroEcc)
{
    EXPECT_EQ(LineEccCodec::encode(CacheLine{}), 0u);
}

TEST(LineEcc, EqualLinesAlwaysHaveEqualEcc)
{
    Pcg32 rng(1);
    for (int i = 0; i < 200; ++i) {
        CacheLine a = randomLine(rng);
        CacheLine b = a;
        EXPECT_EQ(LineEccCodec::encode(a), LineEccCodec::encode(b));
    }
}

TEST(LineEcc, CheckByteIndexing)
{
    Pcg32 rng(2);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        EXPECT_EQ(LineEccCodec::checkByte(ecc, w),
                  Hamming72::encode(l.word(w)));
    }
}

TEST(LineEcc, CleanLineDecodesOk)
{
    Pcg32 rng(3);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    LineDecodeResult r = LineEccCodec::decode(l, ecc);
    EXPECT_EQ(r.status, EccStatus::Ok);
    EXPECT_EQ(r.correctedWords, 0u);
    EXPECT_TRUE(r.line == l);
}

TEST(LineEcc, SingleBitErrorInEachWordCorrected)
{
    Pcg32 rng(4);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    for (unsigned word = 0; word < kWordsPerLine; ++word) {
        CacheLine bad = l;
        // Flip one bit of this word.
        unsigned bit = word * 64 + rng.below(64);
        ErrorInjector::flipDataBit(bad, bit);
        LineDecodeResult r = LineEccCodec::decode(bad, ecc);
        ASSERT_EQ(r.status, EccStatus::CorrectedData) << "word " << word;
        EXPECT_EQ(r.correctedWords, 1u);
        EXPECT_TRUE(r.line == l);
    }
}

TEST(LineEcc, MultipleWordsEachWithSingleErrorAllCorrected)
{
    Pcg32 rng(5);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    CacheLine bad = l;
    // One flip in every word: SEC per word handles all eight.
    for (unsigned word = 0; word < kWordsPerLine; ++word)
        ErrorInjector::flipDataBit(bad, word * 64 + (word * 7 + 3) % 64);
    LineDecodeResult r = LineEccCodec::decode(bad, ecc);
    EXPECT_EQ(r.status, EccStatus::CorrectedData);
    EXPECT_EQ(r.correctedWords, kWordsPerLine);
    EXPECT_TRUE(r.line == l);
}

TEST(LineEcc, DoubleErrorInOneWordIsUncorrectable)
{
    Pcg32 rng(6);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    CacheLine bad = l;
    ErrorInjector::flipDataBit(bad, 3);
    ErrorInjector::flipDataBit(bad, 17);  // both inside word 0
    LineDecodeResult r = LineEccCodec::decode(bad, ecc);
    EXPECT_EQ(r.status, EccStatus::Uncorrectable);
}

TEST(LineEcc, EccBitErrorCorrectedWithoutTouchingData)
{
    Pcg32 rng(7);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    LineEcc bad_ecc = ecc;
    ErrorInjector::flipEccBit(bad_ecc, 13);
    LineDecodeResult r = LineEccCodec::decode(l, bad_ecc);
    EXPECT_EQ(r.status, EccStatus::CorrectedCheck);
    EXPECT_TRUE(r.line == l);
    EXPECT_EQ(r.ecc, ecc);
}

/** Random-flip property: any single flip across the whole 576-bit
 * (line + ECC) codeword is repaired. */
class LineEccFlipTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LineEccFlipTest, AnySingleFlipRepaired)
{
    Pcg32 rng(100 + GetParam());
    ErrorInjector inj(200 + GetParam());
    for (int i = 0; i < 200; ++i) {
        CacheLine l = randomLine(rng);
        LineEcc ecc = LineEccCodec::encode(l);
        CacheLine bad = l;
        LineEcc bad_ecc = ecc;
        inj.flipRandomBit(bad, bad_ecc);
        LineDecodeResult r = LineEccCodec::decode(bad, bad_ecc);
        ASSERT_NE(r.status, EccStatus::Uncorrectable);
        EXPECT_TRUE(r.line == l);
        EXPECT_EQ(r.ecc, ecc);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineEccFlipTest, ::testing::Range(0, 6));

/** Fingerprint property: random distinct lines essentially never
 * collide in the 64-bit ECC space. */
TEST(LineEccFingerprint, RandomLinesRarelyCollide)
{
    Pcg32 rng(8);
    std::unordered_set<LineEcc> seen;
    for (int i = 0; i < 20000; ++i)
        seen.insert(LineEccCodec::encode(randomLine(rng)));
    // Expected collisions at 2e4 draws from 2^64: ~0.
    EXPECT_GE(seen.size(), 19999u);
}

/** Collisions do exist (the code is linear, kernel is large): a line
 * differing by a word-level kernel element has the same ECC — this is
 * why ESD must byte-compare. */
TEST(LineEccFingerprint, ConstructedCollisionExists)
{
    Pcg32 rng(9);
    CacheLine a = randomLine(rng);
    // Find two distinct words with equal check bytes, then swap word 0
    // of the line between them.
    std::uint64_t w1 = rng.next64();
    std::uint64_t w2 = 0;
    bool found = false;
    for (int i = 0; i < 200000 && !found; ++i) {
        w2 = rng.next64();
        found = (w2 != w1) &&
                Hamming72::encode(w1) == Hamming72::encode(w2);
    }
    ASSERT_TRUE(found) << "no per-word collision found";
    CacheLine b = a;
    a.setWord(0, w1);
    b.setWord(0, w2);
    EXPECT_FALSE(a == b);
    EXPECT_EQ(LineEccCodec::encode(a), LineEccCodec::encode(b));
}

TEST(ErrorInjector, FlipBitsInWordFlipsExactlyN)
{
    Pcg32 rng(10);
    CacheLine l = randomLine(rng);
    LineEcc ecc = LineEccCodec::encode(l);
    ErrorInjector inj(11);
    CacheLine bad = l;
    LineEcc bad_ecc = ecc;
    inj.flipBitsInWord(bad, bad_ecc, 2, 2);
    // Two flips in one word: must be detected as uncorrectable.
    LineDecodeResult r = LineEccCodec::decode(bad, bad_ecc);
    EXPECT_EQ(r.status, EccStatus::Uncorrectable);

    // Over many seeds: exactly n of the word's 72 codeword bits differ,
    // nothing outside the word moves, and check bit k is an independent
    // position from data bit k (both can be hit in one call).
    bool data_and_check_k = false;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        ErrorInjector many(seed);
        std::size_t word = seed % kWordsPerLine;
        unsigned n = 1 + static_cast<unsigned>(seed % 8);
        CacheLine b = l;
        LineEcc be = ecc;
        many.flipBitsInWord(b, be, word, n);
        std::uint64_t data_diff = b.word(word) ^ l.word(word);
        std::uint8_t check_diff = LineEccCodec::checkByte(be ^ ecc, word);
        ASSERT_EQ(n, static_cast<unsigned>(std::popcount(data_diff) +
                                           std::popcount(check_diff)))
            << "seed " << seed;
        ASSERT_EQ(0u, (be ^ ecc) & ~(0xffull << (word * 8)))
            << "seed " << seed;
        for (std::size_t w = 0; w < kWordsPerLine; ++w) {
            if (w != word) {
                ASSERT_EQ(l.word(w), b.word(w)) << "seed " << seed;
            }
        }
        data_and_check_k |= (data_diff & check_diff) != 0;
    }
    EXPECT_TRUE(data_and_check_k);
}

} // namespace
} // namespace esd
