/**
 * @file
 * Extended known-answer and property tests for the crypto substrate:
 * additional FIPS/RFC vectors, long-message behaviour, avalanche
 * properties, and cross-algorithm sanity.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>

#include "common/random.hh"
#include "crypto/aes.hh"
#include "crypto/crc.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/sha1.hh"

namespace esd
{
namespace
{

// --------------------------------------------------- more SHA-1 KATs

TEST(Sha1Extended, MillionAs)
{
    // FIPS 180-4 long test vector: 1,000,000 repetitions of 'a'.
    Sha1 s;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        s.update(chunk.data(), chunk.size());
    EXPECT_EQ(Sha1::toHex(s.finish()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Extended, ExactBlockBoundaryMessages)
{
    // 55/56/63/64/65-byte messages cross the padding edge cases.
    Pcg32 rng(1);
    std::vector<std::uint8_t> buf(130);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
        // Streaming one byte at a time must equal one-shot.
        Sha1 s;
        for (std::size_t i = 0; i < len; ++i)
            s.update(buf.data() + i, 1);
        EXPECT_EQ(s.finish(), Sha1::digest(buf.data(), len))
            << "len " << len;
    }
}

TEST(Sha1Extended, AvalancheOnLines)
{
    // Flipping any single bit of a line changes ~half the digest bits.
    Pcg32 rng(2);
    CacheLine base;
    rng.fillLine(base);
    std::uint64_t fp = Sha1::fingerprint64(base);
    for (unsigned bit = 0; bit < 512; bit += 37) {
        CacheLine mod = base;
        mod[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        std::uint64_t fp2 = Sha1::fingerprint64(mod);
        int hamming = std::popcount(fp ^ fp2);
        EXPECT_GT(hamming, 10) << "bit " << bit;
        EXPECT_LT(hamming, 54) << "bit " << bit;
    }
}

// ----------------------------------------------------- CRC properties

TEST(CrcExtended, AppendingZerosChangesCrc32c)
{
    // CRC32C (with final inversion) is not length-blind.
    const char *m = "esd";
    std::uint32_t a = Crc32c::compute(m, 3);
    char padded[8] = {'e', 's', 'd', 0, 0, 0, 0, 0};
    EXPECT_NE(a, Crc32c::compute(padded, 8));
}

TEST(CrcExtended, SingleBitSensitivity)
{
    Pcg32 rng(3);
    CacheLine base;
    rng.fillLine(base);
    std::uint32_t c = Crc32c::line(base);
    for (unsigned bit = 0; bit < 512; bit += 61) {
        CacheLine mod = base;
        mod[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(Crc32c::line(mod), c) << bit;
    }
}

TEST(CrcExtended, LinearityOverXor)
{
    // CRCs (modulo the init/final XOR convention) are affine: for
    // equal-length messages, crc(a^b^c) == crc(a)^crc(b)^crc(c).
    Pcg32 rng(4);
    CacheLine a, b, c;
    rng.fillLine(a);
    rng.fillLine(b);
    rng.fillLine(c);
    CacheLine abc;
    for (std::size_t i = 0; i < kLineSize; ++i)
        abc[i] = a[i] ^ b[i] ^ c[i];
    EXPECT_EQ(Crc32c::line(abc),
              Crc32c::line(a) ^ Crc32c::line(b) ^ Crc32c::line(c));
}

// ------------------------------------------------------ AES properties

TEST(AesExtended, SboxIsAPermutation)
{
    bool seen[256] = {};
    for (int x = 0; x < 256; ++x) {
        std::uint8_t y = Aes128::sbox(static_cast<std::uint8_t>(x));
        EXPECT_FALSE(seen[y]);
        seen[y] = true;
    }
}

TEST(AesExtended, SboxHasNoFixedPoints)
{
    for (int x = 0; x < 256; ++x) {
        auto xb = static_cast<std::uint8_t>(x);
        EXPECT_NE(Aes128::sbox(xb), xb);
        EXPECT_NE(Aes128::sbox(xb), static_cast<std::uint8_t>(~xb));
    }
}

TEST(AesExtended, DifferentKeysDifferentCiphertext)
{
    AesKey k1{}, k2{};
    k1.fill(1);
    k2.fill(2);
    AesBlock pt{};
    EXPECT_NE(Aes128(k1).encryptBlock(pt), Aes128(k2).encryptBlock(pt));
}

TEST(AesExtended, BlockAvalanche)
{
    AesKey key{};
    key.fill(0x7e);
    Aes128 aes(key);
    AesBlock pt{};
    AesBlock c0 = aes.encryptBlock(pt);
    pt[0] ^= 1;  // one plaintext bit
    AesBlock c1 = aes.encryptBlock(pt);
    int diff = 0;
    for (int i = 0; i < 16; ++i)
        diff += std::popcount(
            static_cast<unsigned>(c0[i] ^ c1[i]));
    EXPECT_GT(diff, 40);  // ~64 expected of 128
    EXPECT_LT(diff, 90);
}

// ------------------------------------------------- CTR-mode properties

TEST(CtrModeExtended, PadIsXorHomomorphic)
{
    // Same (addr, ctr): cipher(a) ^ cipher(b) == a ^ b — the classic
    // two-time-pad property, which is why the counter must advance
    // per write (and does).
    AesKey key{};
    key.fill(0x21);
    CtrModeEngine eng(key);
    Pcg32 rng(5);
    CacheLine a, b;
    rng.fillLine(a);
    rng.fillLine(b);
    CacheLine ca = eng.applyPad(640, 9, a);
    CacheLine cb = eng.applyPad(640, 9, b);
    for (std::size_t i = 0; i < kLineSize; ++i)
        EXPECT_EQ(static_cast<std::uint8_t>(ca[i] ^ cb[i]),
                  static_cast<std::uint8_t>(a[i] ^ b[i]));
}

TEST(CtrModeExtended, SingleCipherBitFlipMapsToSamePlainBit)
{
    // The property the read-path SEC-DED relies on: CTR decryption is
    // a XOR, so a flipped ciphertext bit flips exactly that plaintext
    // bit.
    AesKey key{};
    key.fill(0x44);
    CtrModeEngine eng(key);
    Pcg32 rng(6);
    CacheLine plain;
    rng.fillLine(plain);
    CacheLine cipher = eng.encrypt(0, plain);
    cipher[17] ^= 0x10;  // bit 4 of byte 17
    CacheLine back = eng.decrypt(0, cipher);
    for (std::size_t i = 0; i < kLineSize; ++i) {
        if (i == 17)
            EXPECT_EQ(static_cast<std::uint8_t>(back[i] ^ plain[i]),
                      0x10);
        else
            EXPECT_EQ(back[i], plain[i]);
    }
}

} // namespace
} // namespace esd
