#include "crypto/aes.hh"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include "crypto/cpu_features.hh"
#define ESD_AES_HW 1
#endif

namespace esd
{

namespace
{

/** GF(2^8) multiply modulo x^8+x^4+x^3+x+1 (0x11b). */
std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        bool hi = a & 0x80;
        a = static_cast<std::uint8_t>(a << 1);
        if (hi)
            a ^= 0x1b;
        b >>= 1;
    }
    return p;
}

std::uint8_t
rotl8(std::uint8_t v, int n)
{
    return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
}

std::uint32_t
pack(std::uint8_t b0, std::uint8_t b1, std::uint8_t b2, std::uint8_t b3)
{
    return static_cast<std::uint32_t>(b0) |
           (static_cast<std::uint32_t>(b1) << 8) |
           (static_cast<std::uint32_t>(b2) << 16) |
           (static_cast<std::uint32_t>(b3) << 24);
}

/**
 * The AES S-box built from first principles (multiplicative inverse +
 * affine transform), plus the four fused SubBytes/ShiftRows/MixColumns
 * T-tables for the fast encrypt path. Byte 0 of a packed column word
 * is state row 0.
 */
struct AesTables
{
    std::array<std::uint8_t, 256> s{};
    std::array<std::uint32_t, 256> t0{}, t1{}, t2{}, t3{};

    AesTables()
    {
        std::array<std::uint8_t, 256> inv{};
        for (int a = 1; a < 256; ++a) {
            for (int b = 1; b < 256; ++b) {
                if (gmul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)) == 1) {
                    inv[a] = static_cast<std::uint8_t>(b);
                    break;
                }
            }
        }
        for (int x = 0; x < 256; ++x) {
            std::uint8_t b = inv[x];
            s[x] = static_cast<std::uint8_t>(b ^ rotl8(b, 1) ^
                                             rotl8(b, 2) ^ rotl8(b, 3) ^
                                             rotl8(b, 4) ^ 0x63);
            std::uint8_t s1 = s[x];
            std::uint8_t s2 = gmul(s1, 2);
            std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s1);
            t0[x] = pack(s2, s1, s1, s3);
            t1[x] = pack(s3, s2, s1, s1);
            t2[x] = pack(s1, s3, s2, s1);
            t3[x] = pack(s1, s1, s3, s2);
        }
    }
};

const AesTables tbl;

constexpr std::uint8_t kRcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

inline std::uint8_t
byteOf(std::uint32_t w, int i)
{
    return static_cast<std::uint8_t>(w >> (8 * i));
}

#ifdef ESD_AES_HW

/**
 * The packed column words are little-endian with byte 0 in the low
 * byte, so the 44-word round-key array is byte-for-byte the FIPS-197
 * expanded key schedule: each group of four consecutive words loads
 * directly as one AES-NI round key.
 */
__attribute__((target("aes,sse2"))) AesBlock
encryptBlockHw(const std::uint32_t *rk, const AesBlock &in)
{
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in.data()));
    b = _mm_xor_si128(b,
                      _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk)));
    for (int r = 1; r <= 9; ++r) {
        b = _mm_aesenc_si128(b, _mm_loadu_si128(reinterpret_cast<
                                                const __m128i *>(rk + 4 * r)));
    }
    b = _mm_aesenclast_si128(
        b, _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk + 40)));
    AesBlock out;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out.data()), b);
    return out;
}

/** Four interleaved streams hide the aesenc latency behind each other. */
__attribute__((target("aes,sse2"))) void
encryptBlocks4Hw(const std::uint32_t *rk, const AesBlock *in, AesBlock *out)
{
    __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk));
    __m128i b0 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in[0].data())), k);
    __m128i b1 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in[1].data())), k);
    __m128i b2 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in[2].data())), k);
    __m128i b3 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in[3].data())), k);
    for (int r = 1; r <= 9; ++r) {
        k = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 4 * r));
        b0 = _mm_aesenc_si128(b0, k);
        b1 = _mm_aesenc_si128(b1, k);
        b2 = _mm_aesenc_si128(b2, k);
        b3 = _mm_aesenc_si128(b3, k);
    }
    k = _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk + 40));
    b0 = _mm_aesenclast_si128(b0, k);
    b1 = _mm_aesenclast_si128(b1, k);
    b2 = _mm_aesenclast_si128(b2, k);
    b3 = _mm_aesenclast_si128(b3, k);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out[0].data()), b0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out[1].data()), b1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out[2].data()), b2);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out[3].data()), b3);
}

#endif // ESD_AES_HW

} // namespace

std::uint8_t
Aes128::sbox(std::uint8_t x)
{
    return tbl.s[x];
}

void
Aes128::expandKey(const AesKey &key)
{
    std::uint8_t bytes[176];
    std::memcpy(bytes, key.data(), 16);
    for (int i = 4; i < 44; ++i) {
        std::uint8_t t[4];
        std::memcpy(t, bytes + (i - 1) * 4, 4);
        if (i % 4 == 0) {
            std::uint8_t tmp = t[0];
            t[0] = static_cast<std::uint8_t>(tbl.s[t[1]] ^
                                             kRcon[i / 4 - 1]);
            t[1] = tbl.s[t[2]];
            t[2] = tbl.s[t[3]];
            t[3] = tbl.s[tmp];
        }
        for (int j = 0; j < 4; ++j)
            bytes[i * 4 + j] =
                static_cast<std::uint8_t>(bytes[(i - 4) * 4 + j] ^ t[j]);
    }
    for (int w = 0; w < 44; ++w) {
        roundKeys_[w] = pack(bytes[w * 4], bytes[w * 4 + 1],
                             bytes[w * 4 + 2], bytes[w * 4 + 3]);
    }
}

AesBlock
Aes128::encryptBlock(const AesBlock &in) const
{
#ifdef ESD_AES_HW
    if (cpuHasAesni())
        return encryptBlockHw(roundKeys_.data(), in);
#endif
    return encryptBlockPortable(in);
}

AesBlock
Aes128::encryptBlockPortable(const AesBlock &in) const
{
    // Column-major state: word j holds s[0..3][j], byte 0 = row 0.
    std::uint32_t c[4];
    for (int j = 0; j < 4; ++j) {
        c[j] = pack(in[4 * j], in[4 * j + 1], in[4 * j + 2],
                    in[4 * j + 3]) ^
               roundKeys_[j];
    }

    // Rounds 1..9: fused SubBytes + ShiftRows + MixColumns via the
    // four T-tables; output column j consumes s[r][j+r].
    for (int round = 1; round <= 9; ++round) {
        std::uint32_t n[4];
        const std::uint32_t *rk = &roundKeys_[round * 4];
        for (int j = 0; j < 4; ++j) {
            n[j] = tbl.t0[byteOf(c[j], 0)] ^
                   tbl.t1[byteOf(c[(j + 1) & 3], 1)] ^
                   tbl.t2[byteOf(c[(j + 2) & 3], 2)] ^
                   tbl.t3[byteOf(c[(j + 3) & 3], 3)] ^ rk[j];
        }
        std::memcpy(c, n, sizeof(c));
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    AesBlock out;
    for (int j = 0; j < 4; ++j) {
        std::uint32_t w =
            pack(tbl.s[byteOf(c[j], 0)], tbl.s[byteOf(c[(j + 1) & 3], 1)],
                 tbl.s[byteOf(c[(j + 2) & 3], 2)],
                 tbl.s[byteOf(c[(j + 3) & 3], 3)]) ^
            roundKeys_[40 + j];
        out[4 * j] = byteOf(w, 0);
        out[4 * j + 1] = byteOf(w, 1);
        out[4 * j + 2] = byteOf(w, 2);
        out[4 * j + 3] = byteOf(w, 3);
    }
    return out;
}

void
Aes128::encryptBlocks4(const AesBlock in[4], AesBlock out[4]) const
{
#ifdef ESD_AES_HW
    if (cpuHasAesni()) {
        encryptBlocks4Hw(roundKeys_.data(), in, out);
        return;
    }
#endif
    for (int i = 0; i < 4; ++i)
        out[i] = encryptBlock(in[i]);
}

} // namespace esd
