#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using geoanon::crypto::Sha256;
using geoanon::crypto::sha256_keystream_xor;
using geoanon::crypto::sha256_u64;
using geoanon::util::Bytes;
using geoanon::util::to_hex;
namespace compress = geoanon::crypto::sha256_compress;

std::string hex_digest(const Sha256::Digest& d) { return to_hex({d.data(), d.size()}); }

/// The keystream itself: XOR into zeros.
Bytes keystream(const Bytes& key, std::size_t n) {
    Sha256 prefix;
    prefix.update(key);
    Bytes out(n, 0);
    sha256_keystream_xor(prefix, out);
    return out;
}

// FIPS 180-4 / NIST CAVS known-answer tests.

TEST(Sha256, EmptyString) {
    EXPECT_EQ(hex_digest(Sha256::hash("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(hex_digest(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(hex_digest(Sha256::hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_digest(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
    // 64 bytes: padding spills into a second block.
    const std::string msg(64, 'x');
    const auto one_shot = Sha256::hash(msg);
    Sha256 streaming;
    streaming.update(msg.substr(0, 13));
    streaming.update(msg.substr(13));
    EXPECT_EQ(one_shot, streaming.finish());
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
    // 55 bytes: padding fits in one block; 56: does not. Both must round-trip
    // against the streaming interface.
    for (std::size_t len : {55u, 56u, 63u, 65u}) {
        const std::string msg(len, 'q');
        Sha256 byte_at_a_time;
        for (char c : msg) byte_at_a_time.update(std::string_view(&c, 1));
        EXPECT_EQ(Sha256::hash(msg), byte_at_a_time.finish()) << "len=" << len;
    }
}

TEST(Sha256, PaddingSpillsIntoAnotherBlock) {
    // 57..63 bytes (mod 64) leave no room for the 0x80 marker plus the 8-byte
    // length, so finish() compresses one extra block. Digests from Python
    // hashlib.sha256(b"a" * n).
    const std::pair<std::size_t, const char*> cases[] = {
        {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
        {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
        {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
        {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    };
    for (const auto& [len, digest] : cases) {
        const std::string msg(len, 'a');
        EXPECT_EQ(hex_digest(Sha256::hash(msg)), digest) << "len=" << len;
        Sha256 split;
        split.update(msg.substr(0, 5));
        split.update(msg.substr(5));
        EXPECT_EQ(hex_digest(split.finish()), digest) << "len=" << len << " split";
    }
}

TEST(Sha256, CopiedHasherForksTheHash) {
    Sha256 prefix;
    prefix.update("shared prefix ");
    Sha256 a = prefix;
    Sha256 b = prefix;
    a.update("one");
    b.update("two");
    EXPECT_EQ(a.finish(), Sha256::hash("shared prefix one"));
    EXPECT_EQ(b.finish(), Sha256::hash("shared prefix two"));
}

TEST(Sha256, IntegerUpdatesAreBigEndian) {
    Sha256 h;
    h.update_u32(0x01020304u);
    h.update_u64(0x05060708090a0b0cull);
    const Bytes expect{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    EXPECT_EQ(h.finish(), Sha256::hash(expect));
}

TEST(Sha256Compress, ShaNiMatchesPortable) {
    if (!compress::has_sha_ni())
        GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable compression runs";
    geoanon::util::Rng rng(20251017);
    for (std::size_t blocks : {1u, 2u, 3u, 7u}) {
        for (int trial = 0; trial < 200; ++trial) {
            Bytes data(blocks * Sha256::kBlockSize);
            for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
            Sha256::State portable_state;
            for (auto& w : portable_state) w = static_cast<std::uint32_t>(rng.next_u64());
            Sha256::State sha_ni_state = portable_state;
            compress::portable(portable_state, data.data(), blocks);
            compress::sha_ni(sha_ni_state, data.data(), blocks);
            ASSERT_EQ(portable_state, sha_ni_state) << "blocks=" << blocks << " trial=" << trial;
        }
    }
}

TEST(Sha256, DifferentInputsDiffer) {
    EXPECT_NE(Sha256::hash("foo"), Sha256::hash("fop"));
    EXPECT_NE(Sha256::hash("foo"), Sha256::hash("foo "));
}

TEST(Sha256Keystream, DeterministicAndLengthExact) {
    const Bytes key{1, 2, 3};
    const Bytes a = keystream(key, 100);
    const Bytes b = keystream(key, 100);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(keystream(key, 7), Bytes(a.begin(), a.begin() + 7));
}

TEST(Sha256Keystream, PrefixProperty) {
    const Bytes key{9, 9};
    const Bytes longer = keystream(key, 96);
    const Bytes shorter = keystream(key, 40);
    EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

TEST(Sha256Keystream, KeySensitivity) {
    EXPECT_NE(keystream(Bytes{1}, 32), keystream(Bytes{2}, 32));
}

TEST(Sha256Keystream, BlocksAreHashesOfKeyAndCounter) {
    // block_i = SHA256(key || u64_be(i)); the last block is truncated.
    const Bytes key{4, 5, 6};
    const Bytes ks = keystream(key, 70);
    for (std::uint64_t i = 0; i < 3; ++i) {
        Bytes msg = key;
        for (int b = 0; b < 8; ++b) msg.push_back(static_cast<std::uint8_t>(i >> (56 - 8 * b)));
        const auto block = Sha256::hash(msg);
        const std::size_t n = i < 2 ? 32 : 6;
        EXPECT_TRUE(std::equal(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(n),
                               ks.begin() + static_cast<std::ptrdiff_t>(32 * i)))
            << "block " << i;
    }
}

TEST(Sha256Keystream, XorTwiceRestoresData) {
    Sha256 prefix;
    prefix.update("key");
    const Bytes plain{10, 20, 30, 40, 50};
    Bytes data = plain;
    sha256_keystream_xor(prefix, data);
    EXPECT_NE(data, plain);
    sha256_keystream_xor(prefix, data);
    EXPECT_EQ(data, plain);
}

TEST(Sha256U64, MatchesDigestPrefix) {
    const auto d = Sha256::hash("abc");
    std::uint64_t expected = 0;
    for (int i = 0; i < 8; ++i) expected = (expected << 8) | d[static_cast<std::size_t>(i)];
    const Bytes abc{'a', 'b', 'c'};
    EXPECT_EQ(sha256_u64(abc), expected);
}

}  // namespace
