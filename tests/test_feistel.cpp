#include <gtest/gtest.h>

#include "crypto/feistel.hpp"
#include "util/rng.hpp"

namespace {

using geoanon::crypto::FeistelPermutation;
using geoanon::util::Bytes;
using geoanon::util::Rng;
using geoanon::util::to_hex;

Bytes random_block(Rng& rng, std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

TEST(Feistel, EncryptDecryptRoundTrip) {
    const FeistelPermutation f(Bytes{1, 2, 3}, 16);
    const Bytes block{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    EXPECT_EQ(f.decrypt(f.encrypt(block)), block);
    EXPECT_EQ(f.encrypt(f.decrypt(block)), block);
}

TEST(Feistel, Deterministic) {
    const FeistelPermutation f(Bytes{9}, 8);
    const Bytes block{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(f.encrypt(block), f.encrypt(block));
}

TEST(Feistel, KeySensitivity) {
    const FeistelPermutation f1(Bytes{1}, 8);
    const FeistelPermutation f2(Bytes{2}, 8);
    const Bytes block{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_NE(f1.encrypt(block), f2.encrypt(block));
}

TEST(Feistel, EncryptActuallyChangesInput) {
    const FeistelPermutation f(Bytes{7, 7}, 10);
    const Bytes block(10, 0x00);
    EXPECT_NE(f.encrypt(block), block);
}

TEST(Feistel, AvalancheAcrossBlock) {
    // Flipping one input bit should change roughly half the output bits.
    const FeistelPermutation f(Bytes{5}, 32);
    Rng rng(1);
    const Bytes a = random_block(rng, 32);
    Bytes b = a;
    b[0] ^= 0x01;
    const Bytes ea = f.encrypt(a);
    const Bytes eb = f.encrypt(b);
    int diff_bits = 0;
    for (std::size_t i = 0; i < ea.size(); ++i)
        diff_bits += __builtin_popcount(static_cast<unsigned>(ea[i] ^ eb[i]));
    EXPECT_GT(diff_bits, 64);   // out of 256
    EXPECT_LT(diff_bits, 192);
}

TEST(Feistel, PermutationIsBijectiveOnTinyDomain) {
    // Exhaustively check bijectivity over a 2-byte block (65536 values).
    const FeistelPermutation f(Bytes{0xAA}, 2);
    std::vector<bool> seen(65536, false);
    for (unsigned v = 0; v < 65536; ++v) {
        const Bytes in{static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
        const Bytes out = f.encrypt(in);
        const unsigned o = (static_cast<unsigned>(out[0]) << 8) | out[1];
        EXPECT_FALSE(seen[o]) << "collision at input " << v;
        seen[o] = true;
    }
}

// Known answers recorded from the original Bytes-based implementation: any
// refactor of the round function, the key schedule or the R || L output
// layout changes these (and with them every uid and ring signature).
Bytes kat_key() {
    Bytes key(32);
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return key;
}

Bytes counting_block(std::size_t n) {
    Bytes block(n);
    for (std::size_t i = 0; i < n; ++i) block[i] = static_cast<std::uint8_t>(i);
    return block;
}

TEST(Feistel, KnownAnswer8ByteBlock) {
    const FeistelPermutation f(kat_key(), 8);
    const Bytes block = counting_block(8);
    EXPECT_EQ(to_hex(f.encrypt(block)), "b75084c98b67ee24");
    EXPECT_EQ(to_hex(f.decrypt(block)), "d5ac720be3a7b551");
}

TEST(Feistel, KnownAnswer72ByteBlock) {
    // 72 bytes is the RST common domain at RSA-512; each half needs two
    // keystream blocks.
    const FeistelPermutation f(kat_key(), 72);
    const Bytes block = counting_block(72);
    EXPECT_EQ(to_hex(f.encrypt(block)),
              "acfa47f86a1ca3b1fc86c8ee1d00952dfb4362dd4de8f348095822fa1013a4665f384e5c48d1a1b7"
              "34062ffc9a991a38a28a0b267e7a26783bb30f7b606fb4d0f942e0a48f9f8a14");
    EXPECT_EQ(to_hex(f.decrypt(block)),
              "dc90a0ec6c1b4ddb982491557f766ab621e18d810f6f19d83ff37534aedc176cbd30d9a9759fbf54"
              "82988dda948f61750ef4b6c7f674b450d85e7e9ec11dd834e1fa2e564796f828");
}

TEST(Feistel, InPlaceMatchesCopyingForms) {
    const FeistelPermutation f(kat_key(), 72);
    const Bytes block = counting_block(72);
    Bytes in_place = block;
    f.encrypt_in_place(in_place);
    EXPECT_EQ(in_place, f.encrypt(block));
    f.decrypt_in_place(in_place);
    EXPECT_EQ(in_place, block);
}

class FeistelRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FeistelRoundTrip, RandomBlocksRoundTrip) {
    const std::size_t block_size = GetParam();
    Rng rng(block_size * 977);
    const FeistelPermutation f(random_block(rng, 32), block_size);
    for (int i = 0; i < 50; ++i) {
        const Bytes block = random_block(rng, block_size);
        EXPECT_EQ(f.decrypt(f.encrypt(block)), block);
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FeistelRoundTrip,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 72u, 130u));

}  // namespace
