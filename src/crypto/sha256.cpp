#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#define GEOANON_SHA_NI 1
#endif

namespace geoanon::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// __builtin_cpu_init makes the query valid even from a static initializer
// that hashes before the CPU-model constructor has run.
bool detect_sha_ni() {
#ifdef GEOANON_SHA_NI
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

}  // namespace

namespace sha256_compress {

void portable(Sha256::State& state, const std::uint8_t* data, std::size_t blocks) {
    for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

bool has_sha_ni() {
    static const bool kHas = detect_sha_ni();
    return kHas;
}

#ifdef GEOANON_SHA_NI
// Intel SHA extensions. sha256rnds2 runs two rounds on the state split as
// ABEF / CDGH; sha256msg1/msg2 compute the message schedule four words at a
// time. The loop below is the FIPS schedule
//   W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]
// in groups of four words: w[j % 4] holds words 4j .. 4j+3.
__attribute__((target("sha,sse4.1"))) void sha_ni(Sha256::State& state,
                                                    const std::uint8_t* data,
                                                    std::size_t blocks) {
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));  // DCBA
    __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                                           // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                         // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                 // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                      // CDGH

    for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4] = {};
#pragma GCC unroll 16
        for (int j = 0; j < 16; ++j) {
            if (j < 4) {
                w[j] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)), bswap);
            } else {
                __m128i x = _mm_sha256msg1_epu32(w[j % 4], w[(j + 1) % 4]);
                x = _mm_add_epi32(x, _mm_alignr_epi8(w[(j + 3) % 4], w[(j + 2) % 4], 4));
                w[j % 4] = _mm_sha256msg2_epu32(x, w[(j + 3) % 4]);
            }
            __m128i k = _mm_add_epi32(
                w[j % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * j])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
            k = _mm_shuffle_epi32(k, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, k);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);        // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);       // DCHG
    abef = _mm_blend_epi16(tmp, cdgh, 0xF0);    // DCBA
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);       // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#else
// No SHA-extension build on this target; has_sha_ni() is false, so this is
// never selected.
void sha_ni(Sha256::State& state, const std::uint8_t* data, std::size_t blocks) {
    portable(state, data, blocks);
}
#endif

}  // namespace sha256_compress

Sha256::Sha256() { state_ = {kInit[0], kInit[1], kInit[2], kInit[3], kInit[4], kInit[5], kInit[6], kInit[7]}; }

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) {
    if (sha256_compress::has_sha_ni()) {
        sha256_compress::sha_ni(state_, data, blocks);
    } else {
        sha256_compress::portable(state_, data, blocks);
    }
}

void Sha256::update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t off = 0;
    if (buf_len_ > 0) {
        const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
        std::memcpy(buf_.data() + buf_len_, data.data(), take);
        buf_len_ += take;
        off += take;
        if (buf_len_ == buf_.size()) {
            compress(buf_.data(), 1);
            buf_len_ = 0;
        }
    }
    if (const std::size_t blocks = (data.size() - off) / kBlockSize; blocks > 0) {
        compress(data.data() + off, blocks);
        off += blocks * kBlockSize;
    }
    if (off < data.size()) {
        std::memcpy(buf_.data(), data.data() + off, data.size() - off);
        buf_len_ = data.size() - off;
    }
}

void Sha256::update(std::string_view s) {
    update({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void Sha256::update_u32(std::uint32_t v) {
    std::uint8_t be[4];
    for (int i = 0; i < 4; ++i) be[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
    update({be, 4});
}

void Sha256::update_u64(std::uint64_t v) {
    std::uint8_t be[8];
    for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    update({be, 8});
}

// geoanon: hot
Sha256::Digest Sha256::finish() {
    // update() never leaves a full buffer, so the 0x80 marker always fits.
    // The 8-byte length needs bytes 56..63; when the marker lands past byte
    // 55 the padding spills into one more block.
    const std::uint64_t bit_len = total_len_ * 8;
    buf_[buf_len_++] = 0x80;
    if (buf_len_ > kBlockSize - 8) {
        std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
        compress(buf_.data(), 1);
        buf_len_ = 0;
    }
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - 8 - buf_len_);
    for (int i = 0; i < 8; ++i)
        buf_[kBlockSize - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(buf_.data(), 1);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[static_cast<std::size_t>(i) * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[static_cast<std::size_t>(i) * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[static_cast<std::size_t>(i) * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[static_cast<std::size_t>(i) * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Sha256::Digest Sha256::hash(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
}

// geoanon: hot
void sha256_keystream_xor(const Sha256& prefix, std::span<std::uint8_t> data) {
    std::uint64_t counter = 0;
    for (std::size_t off = 0; off < data.size(); off += Sha256::kDigestSize, ++counter) {
        Sha256 h = prefix;
        h.update_u64(counter);
        const Sha256::Digest block = h.finish();
        const std::size_t take = std::min(block.size(), data.size() - off);
        for (std::size_t i = 0; i < take; ++i) data[off + i] ^= block[i];
    }
}

std::uint64_t sha256_u64(std::span<const std::uint8_t> data) {
    const auto d = Sha256::hash(data);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
    return v;
}

}  // namespace geoanon::crypto
