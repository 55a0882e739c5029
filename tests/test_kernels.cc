/**
 * @file
 * Equivalence tests for the hot-path kernels:
 *   - the table-driven SEC-DED line encoder vs the scalar
 *     mask-and-popcount Hamming72::encode oracle (exhaustive 16-bit
 *     patterns + PCG randomized; the suite keeps its historical
 *     BitslicedHamming name), the table-driven line decode vs a
 *     test-local mask-formula reference decoder under injected flips,
 *     and the kernel's use during static initialisation, and
 *   - the early-exit 64-bit-word line compare vs memcmp on equal,
 *     near-equal, and random lines, and
 *   - the word-wide counter-mode pad vs a byte-loop reference, and the
 *     AES batch and hardware paths vs the one-block portable path.
 */

#include <bit>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/types.hh"
#include "crypto/aes.hh"
#include "crypto/ctr_mode.hh"
#include "ecc/line_ecc.hh"

namespace esd
{
namespace
{

// ------------------------------------------------ table-driven SEC-DED

/** All 2^16 patterns, each expanded into a line that places the
 * pattern at a different 16-bit lane of every word, so every data-bit
 * position of the codeword sees both polarities of every pattern. */
TEST(BitslicedHamming, ExhaustiveSixteenBitPatterns)
{
    for (std::uint32_t v = 0; v < (1u << 16); ++v) {
        std::uint64_t words[8];
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t w = static_cast<std::uint64_t>(v)
                              << ((j % 4) * 16);
            if (j >= 4)
                w = ~w;  // complemented lanes hit the other polarity
            words[j] = w;
        }
        std::uint8_t fast[8], ref[8];
        Hamming72::encodeLine(words, fast);
        Hamming72::encodeLineScalar(words, ref);
        ASSERT_EQ(0, std::memcmp(fast, ref, 8))
            << "pattern 0x" << std::hex << v;
    }
}

TEST(BitslicedHamming, SingleBitLines)
{
    // Each of the 512 line bits set alone: the sparsest inputs, where
    // a transpose orientation bug is most visible.
    for (unsigned j = 0; j < 8; ++j) {
        for (unsigned b = 0; b < 64; ++b) {
            std::uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
            words[j] = 1ull << b;
            std::uint8_t fast[8], ref[8];
            Hamming72::encodeLine(words, fast);
            Hamming72::encodeLineScalar(words, ref);
            ASSERT_EQ(0, std::memcmp(fast, ref, 8))
                << "word " << j << " bit " << b;
        }
    }
}

TEST(BitslicedHamming, RandomizedLines)
{
    Pcg32 rng(0x5eed, 0x111);
    for (int it = 0; it < 50000; ++it) {
        std::uint64_t words[8];
        for (auto &w : words)
            w = rng.next64();
        // Mix in sparse/dense lines: random masking every few iters.
        if (it % 5 == 0) {
            for (auto &w : words)
                w &= rng.next64() & rng.next64();
        }
        std::uint8_t fast[8], ref[8];
        Hamming72::encodeLine(words, fast);
        Hamming72::encodeLineScalar(words, ref);
        ASSERT_EQ(0, std::memcmp(fast, ref, 8)) << "iteration " << it;
    }
}

TEST(BitslicedHamming, LineEccCodecUsesIdenticalEncoding)
{
    Pcg32 rng(0xc0de, 0x222);
    for (int it = 0; it < 5000; ++it) {
        CacheLine line;
        rng.fillLine(line);
        LineEcc fast = LineEccCodec::encode(line);
        LineEcc ref = LineEccCodec::encodeScalar(line);
        ASSERT_EQ(fast, ref);

        // Round trip: the encoding still decodes clean...
        LineDecodeResult d = LineEccCodec::decode(line, fast);
        ASSERT_EQ(EccStatus::Ok, d.status);

        // ...and still corrects a single flipped bit per word.
        CacheLine bad = line;
        unsigned word = rng.below(8);
        unsigned bit = rng.below(64);
        bad.setWord(word, bad.word(word) ^ (1ull << bit));
        LineDecodeResult fix = LineEccCodec::decode(bad, fast);
        ASSERT_EQ(EccStatus::CorrectedData, fix.status);
        ASSERT_TRUE(fix.line == line);
    }
}

/**
 * The per-word SEC-DED decode spelled out from the parity masks alone
 * (Hamming72::checkMask + popcount), independent of the check table.
 */
EccDecodeResult
referenceDecodeWord(std::uint64_t data, std::uint8_t check)
{
    EccDecodeResult r;
    r.data = data;
    r.check = check;
    unsigned syndrome = 0;
    for (unsigned c = 0; c < 7; ++c) {
        unsigned p = std::popcount(data & Hamming72::checkMask(c)) & 1;
        syndrome |= (p ^ ((check >> c) & 1u)) << c;
    }
    unsigned overall =
        (std::popcount(data) ^ std::popcount(unsigned{check})) & 1u;
    if (syndrome == 0 && overall == 0)
        return r;
    if (overall == 0 || syndrome > 71) {
        r.status = EccStatus::Uncorrectable;
    } else if (syndrome == 0) {
        r.status = EccStatus::CorrectedCheck;
        r.check = check ^ 0x80;
        r.bitIndex = 7;
    } else if (std::has_single_bit(syndrome)) {
        unsigned c = static_cast<unsigned>(std::countr_zero(syndrome));
        r.status = EccStatus::CorrectedCheck;
        r.check = check ^ static_cast<std::uint8_t>(1u << c);
        r.bitIndex = static_cast<std::uint8_t>(c);
    } else {
        // The data bit whose codeword position (the checks covering
        // it, read as a binary number) equals the syndrome.
        for (unsigned b = 0; b < 64; ++b) {
            unsigned pos = 0;
            for (unsigned c = 0; c < 7; ++c)
                pos |= ((Hamming72::checkMask(c) >> b) & 1u) << c;
            if (pos == syndrome) {
                r.status = EccStatus::CorrectedData;
                r.data = data ^ (1ull << b);
                r.bitIndex = static_cast<std::uint8_t>(b);
            }
        }
    }
    return r;
}

/** Line decode as eight independent reference word decodes: the first
 * uncorrectable word stops the walk, corrections accumulate. */
LineDecodeResult
referenceDecodeLine(const CacheLine &line, LineEcc ecc)
{
    LineDecodeResult out;
    out.line = line;
    out.ecc = ecc;
    for (std::size_t i = 0; i < kWordsPerLine; ++i) {
        EccDecodeResult r =
            referenceDecodeWord(line.word(i), LineEccCodec::checkByte(ecc, i));
        if (r.status == EccStatus::Uncorrectable) {
            out.status = EccStatus::Uncorrectable;
            return out;
        }
        if (r.corrected()) {
            ++out.correctedWords;
            out.line.setWord(i, r.data);
            out.ecc &= ~(0xffull << (i * 8));
            out.ecc |= static_cast<std::uint64_t>(r.check) << (i * 8);
            if (out.status == EccStatus::Ok)
                out.status = r.status;
            else if (out.status != r.status)
                out.status = EccStatus::CorrectedData;
        }
    }
    return out;
}

/** Flip codeword bit @p pos of word @p word: data bits 0..63, check
 * bits 64..71. */
void
flipCodewordBit(CacheLine &line, LineEcc &ecc, std::size_t word,
                unsigned pos)
{
    if (pos < 64)
        line.setWord(word, line.word(word) ^ (1ull << pos));
    else
        ecc ^= 1ull << (word * 8 + (pos - 64));
}

/** Flip @p n distinct codeword bits of word @p word. */
void
flipDistinctBits(Pcg32 &rng, CacheLine &line, LineEcc &ecc,
                 std::size_t word, unsigned n)
{
    unsigned picked[3];
    for (unsigned k = 0; k < n; ++k) {
        unsigned pos;
        bool dup;
        do {
            pos = rng.below(72);
            dup = false;
            for (unsigned j = 0; j < k; ++j)
                dup |= picked[j] == pos;
        } while (dup);
        picked[k] = pos;
        flipCodewordBit(line, ecc, word, pos);
    }
}

/** Compare the codec's line decode (and each word's decode) with the
 * mask-formula reference on one received (line, ecc). */
void
expectDecodeMatchesReference(const CacheLine &line, LineEcc ecc,
                             const char *what)
{
    LineDecodeResult got = LineEccCodec::decode(line, ecc);
    LineDecodeResult ref = referenceDecodeLine(line, ecc);
    ASSERT_EQ(ref.status, got.status) << what;
    ASSERT_TRUE(ref.line == got.line) << what;
    ASSERT_EQ(ref.ecc, got.ecc) << what;
    ASSERT_EQ(ref.correctedWords, got.correctedWords) << what;
    for (std::size_t i = 0; i < kWordsPerLine; ++i) {
        std::uint8_t check = LineEccCodec::checkByte(ecc, i);
        EccDecodeResult w = Hamming72::decode(line.word(i), check);
        EccDecodeResult rw = referenceDecodeWord(line.word(i), check);
        ASSERT_EQ(rw.status, w.status) << what << " word " << i;
        ASSERT_EQ(rw.data, w.data) << what << " word " << i;
        ASSERT_EQ(rw.check, w.check) << what << " word " << i;
        if (rw.corrected()) {
            ASSERT_EQ(rw.bitIndex, w.bitIndex) << what << " word " << i;
        }
    }
}

TEST(HammingTableKernel, DecodeMatchesMaskReferenceUnderInjectedFlips)
{
    Pcg32 rng(0xdec0de, 0x777);
    for (int it = 0; it < 400; ++it) {
        CacheLine line;
        rng.fillLine(line);
        const LineEcc ecc = LineEccCodec::encodeScalar(line);

        // 0 flips: the clean fast path.
        expectDecodeMatchesReference(line, ecc, "clean");

        // 1 flip: every one of the 72 codeword positions of one word.
        std::size_t word = static_cast<std::size_t>(it % kWordsPerLine);
        for (unsigned pos = 0; pos < 72; ++pos) {
            CacheLine bad = line;
            LineEcc bad_ecc = ecc;
            flipCodewordBit(bad, bad_ecc, word, pos);
            expectDecodeMatchesReference(bad, bad_ecc, "single flip");
        }

        // 1, 2 and 3 flips in each of several words at once, and a
        // mix of 0..3 flips per word across the whole line.
        for (unsigned n = 1; n <= 3; ++n) {
            CacheLine bad = line;
            LineEcc bad_ecc = ecc;
            unsigned words = 1 + rng.below(kWordsPerLine);
            for (unsigned w = 0; w < words; ++w)
                flipDistinctBits(rng, bad, bad_ecc,
                                 rng.below(kWordsPerLine), n);
            expectDecodeMatchesReference(bad, bad_ecc, "multi-word flips");
        }
        CacheLine bad = line;
        LineEcc bad_ecc = ecc;
        for (std::size_t w = 0; w < kWordsPerLine; ++w)
            flipDistinctBits(rng, bad, bad_ecc, w, rng.below(4));
        expectDecodeMatchesReference(bad, bad_ecc, "mixed flips");
    }
}

/** Encoded during this unit's dynamic initialisation, before main()
 * runs: the check table must already hold its values then. */
CacheLine
staticInitLine()
{
    CacheLine line;
    Pcg32 rng(0x57a71c, 0x888);
    rng.fillLine(line);
    return line;
}

const CacheLine kStaticInitLine = staticInitLine();
const LineEcc kStaticInitEcc = LineEccCodec::encode(kStaticInitLine);

TEST(HammingTableKernel, EncodesDuringStaticInitialisation)
{
    EXPECT_NE(0u, kStaticInitEcc);
    EXPECT_EQ(LineEccCodec::encodeScalar(kStaticInitLine), kStaticInitEcc);
}

// ---------------------------------------------- fast line comparison

CacheLine
randomLine(Pcg32 &rng)
{
    CacheLine l;
    rng.fillLine(l);
    return l;
}

TEST(FastLineCompare, EqualLinesAgreeWithMemcmp)
{
    Pcg32 rng(0xfeed, 0x333);
    for (int it = 0; it < 1000; ++it) {
        CacheLine a = randomLine(rng);
        CacheLine b = a;
        ASSERT_TRUE(linesEqualFast(a, b));
        ASSERT_TRUE(a == b);
    }
    CacheLine z1, z2;
    EXPECT_TRUE(linesEqualFast(z1, z2));
}

TEST(FastLineCompare, EveryNearEqualBitFlipDetected)
{
    Pcg32 rng(0xbeef, 0x444);
    CacheLine base = randomLine(rng);
    for (unsigned bit = 0; bit < kLineSize * 8; ++bit) {
        CacheLine other = base;
        other[bit / 8] =
            static_cast<std::uint8_t>(other[bit / 8] ^
                                      (1u << (bit % 8)));
        ASSERT_FALSE(linesEqualFast(base, other)) << "bit " << bit;
        ASSERT_FALSE(linesEqualFast(other, base)) << "bit " << bit;
        ASSERT_FALSE(base == other);
    }
}

TEST(FastLineCompare, EveryNearEqualByteChangeDetected)
{
    Pcg32 rng(0xabcd, 0x555);
    CacheLine base = randomLine(rng);
    for (unsigned i = 0; i < kLineSize; ++i) {
        CacheLine other = base;
        other[i] = static_cast<std::uint8_t>(other[i] + 1);
        ASSERT_FALSE(linesEqualFast(base, other)) << "byte " << i;
        ASSERT_EQ(base == other, linesEqualFast(base, other));
    }
}

TEST(FastLineCompare, RandomPairsAgreeWithMemcmp)
{
    Pcg32 rng(0x7777, 0x666);
    for (int it = 0; it < 20000; ++it) {
        CacheLine a = randomLine(rng);
        CacheLine b = rng.chance(0.3) ? a : randomLine(rng);
        // Sometimes diverge only in the last word (exercises the full
        // walk before the early exit can trigger).
        if (rng.chance(0.2)) {
            b = a;
            b.setWord(7, b.word(7) ^ (1ull << rng.below(64)));
        }
        bool ref = std::memcmp(a.data(), b.data(), kLineSize) == 0;
        ASSERT_EQ(ref, linesEqualFast(a, b)) << "iteration " << it;
    }
}

// ------------------------------------------------- counter-mode pad

/** Byte-loop reference pad: counter block bytes 0-7 are the address,
 * 8-14 the counter's low 7 bytes, 15 the block index (all
 * little-endian), each line byte XORed with its pad byte. */
CacheLine
applyPadReference(const Aes128 &aes, Addr addr, std::uint64_t ctr,
                  const CacheLine &in)
{
    CacheLine out;
    for (unsigned blk = 0; blk < 4; ++blk) {
        AesBlock cb{};
        for (int i = 0; i < 8; ++i)
            cb[i] = static_cast<std::uint8_t>(addr >> (8 * i));
        for (int i = 0; i < 7; ++i)
            cb[8 + i] = static_cast<std::uint8_t>(ctr >> (8 * i));
        cb[15] = static_cast<std::uint8_t>(blk);
        AesBlock pad = aes.encryptBlock(cb);
        for (unsigned i = 0; i < 16; ++i)
            out[blk * 16 + i] = in[blk * 16 + i] ^ pad[i];
    }
    return out;
}

AesKey
randomKey(Pcg32 &rng)
{
    AesKey key;
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.next());
    return key;
}

std::string
hexOf(const CacheLine &l)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (unsigned i = 0; i < kLineSize; ++i) {
        s += digits[l[i] >> 4];
        s += digits[l[i] & 0xf];
    }
    return s;
}

TEST(CtrPadKernel, RandomTriplesMatchByteLoopReference)
{
    Pcg32 rng(0xc7a, 0x888);
    for (int k = 0; k < 8; ++k) {
        AesKey key = randomKey(rng);
        Aes128 aes(key);
        CtrModeEngine eng(key);
        for (int it = 0; it < 500; ++it) {
            // Full 64-bit draws: every address byte and, in most
            // draws, counter bits at and above 2^56 are nonzero.
            Addr addr = rng.next64();
            std::uint64_t ctr = rng.next64();
            if (rng.chance(0.3))
                ctr &= 0xffffu;  // small, realistic counters too
            CacheLine in = randomLine(rng);
            ASSERT_TRUE(eng.applyPad(addr, ctr, in) ==
                        applyPadReference(aes, addr, ctr, in))
                << "key " << k << " iteration " << it;
        }
    }
}

TEST(CtrPadKernel, CounterTruncatesToSevenBytes)
{
    // Only the counter's low 7 bytes reach the counter block: counters
    // that differ only at or above bit 56 share a pad.
    AesKey key{};
    key.fill(0x5a);
    Aes128 aes(key);
    CtrModeEngine eng(key);
    CacheLine in;
    in.setWord(3, 0x0123456789abcdefull);
    Addr addr = 0x8877665544332211ull;
    std::uint64_t low = 0x00aabbccddeeff01ull;
    for (std::uint64_t top : {0ull, 1ull, 0x80ull, 0xffull}) {
        std::uint64_t ctr = low | (top << 56);
        EXPECT_TRUE(eng.applyPad(addr, ctr, in) ==
                    applyPadReference(aes, addr, ctr, in));
        EXPECT_TRUE(eng.applyPad(addr, ctr, in) ==
                    eng.applyPad(addr, low, in));
    }
}

TEST(CtrPadKernel, KnownAnswerPads)
{
    // Recorded from the byte-loop implementation the word-wide kernel
    // replaced; the ciphertext must not change bit for bit.
    AesKey k1{};
    for (int i = 0; i < 16; ++i)
        k1[i] = static_cast<std::uint8_t>(i);
    CacheLine l1;
    for (unsigned i = 0; i < kLineSize; ++i)
        l1[i] = static_cast<std::uint8_t>(i * 3 + 1);
    EXPECT_EQ(hexOf(CtrModeEngine(k1).applyPad(0x0123456789abcdc0ull,
                                                0x0102030405060708ull, l1)),
              "cbacea09040b29c4cebd648c5b87173b389bf448e17dfa364913fefc"
              "fde13d073572491d456180f49dc94acc5f38af61f652369dae0cb915"
              "2449bb93e99f322b");

    AesKey k2 = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    EXPECT_EQ(hexOf(CtrModeEngine(k2).applyPad(12345 * kLineSize, 1,
                                                CacheLine{})),
              "16021d36af2194b2265aa6dafdc3df888f8e99b112f56260c1c5ac1b"
              "4a48d760ccdec20c6e0a4cb5a37e538d6172b0545f05687cd6c017fa"
              "c0a2affef5b8fac2");
}

// -------------------------------------------------------- AES paths

AesBlock
randomBlock(Pcg32 &rng)
{
    AesBlock b;
    for (std::uint8_t &x : b)
        x = static_cast<std::uint8_t>(rng.next());
    return b;
}

TEST(AesBatch, FourBlocksEqualFourSingleCalls)
{
    Pcg32 rng(0xae5, 0x999);
    for (int k = 0; k < 50; ++k) {
        Aes128 aes(randomKey(rng));
        AesBlock in[4], out[4];
        for (AesBlock &b : in)
            b = randomBlock(rng);
        aes.encryptBlocks4(in, out);
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(out[i], aes.encryptBlock(in[i]))
                << "key " << k << " block " << i;
    }
}

TEST(AesBatch, DispatchedPathEqualsPortablePath)
{
    // On an AES-NI host encryptBlock() runs the hardware path, so this
    // holds it against the portable T-table path; elsewhere both are
    // the portable path.
    Pcg32 rng(0xae6, 0xaaa);
    for (int k = 0; k < 50; ++k) {
        Aes128 aes(randomKey(rng));
        for (int it = 0; it < 20; ++it) {
            AesBlock in = randomBlock(rng);
            ASSERT_EQ(aes.encryptBlock(in), aes.encryptBlockPortable(in))
                << "key " << k << " block " << it;
        }
    }
}

TEST(AesBatch, Fips197VectorThroughBatchEntry)
{
    AesKey key{};
    AesBlock pt{};
    for (int i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        pt[i] = static_cast<std::uint8_t>(i * 0x11);
    }
    // FIPS-197 Appendix C.1: ciphertext 69c4e0d86a7b0430d8cdb78070b4c55a.
    const AesBlock expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    Aes128 aes(key);
    AesBlock in[4] = {pt, pt, pt, pt};
    AesBlock out[4];
    aes.encryptBlocks4(in, out);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], expect) << "lane " << i;
    EXPECT_EQ(aes.encryptBlockPortable(pt), expect);
}

} // namespace
} // namespace esd
