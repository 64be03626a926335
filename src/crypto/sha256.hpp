#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"

namespace geoanon::crypto {

/// FIPS 180-4 SHA-256. This is the repo's only collision-resistant hash; it
/// backs pseudonym generation (§3.1.1: n = hash(pr, id)), ring-signature key
/// derivation, certificate signing, and the Feistel round function.
///
/// The compression function is chosen once per process from the CPU: the
/// x86 SHA extensions when present (GCC x86-64 builds), the portable C++
/// otherwise. Both produce the same digest for every input.
///
/// A Sha256 is a plain value: copying a partly-fed hasher forks the hash, so
/// a fixed prefix (a key) can be absorbed once and reused for many messages.
class Sha256 {
  public:
    static constexpr std::size_t kDigestSize = 32;
    static constexpr std::size_t kBlockSize = 64;
    using Digest = std::array<std::uint8_t, kDigestSize>;
    using State = std::array<std::uint32_t, 8>;

    Sha256();

    /// Absorb more input; may be called any number of times before finish().
    void update(std::span<const std::uint8_t> data);
    void update(std::string_view s);
    /// Absorb an integer big-endian, exactly as util::ByteWriter encodes it.
    void update_u32(std::uint32_t v);
    void update_u64(std::uint64_t v);

    /// Finalize and return the digest. The object must not be reused after.
    Digest finish();

    /// One-shot convenience.
    static Digest hash(std::span<const std::uint8_t> data);
    static Digest hash(std::string_view s);

  private:
    /// Fold `blocks` consecutive 64-byte blocks into state_.
    void compress(const std::uint8_t* data, std::size_t blocks);

    State state_;
    std::uint64_t total_len_{0};
    std::array<std::uint8_t, kBlockSize> buf_{};
    std::size_t buf_len_{0};
};

/// SHA-256 in counter mode as an in-place stream cipher: XORs
/// block_i = SHA256(prefix || u64_be(i)), i = 0, 1, ..., into `data`.
/// `prefix` is a hasher that has absorbed the key; it is copied, not
/// consumed. Used by the modeled crypto engine and the Feistel round
/// function.
void sha256_keystream_xor(const Sha256& prefix, std::span<std::uint8_t> data);

/// First 8 bytes of SHA-256 as a big-endian u64 (cheap content fingerprints).
std::uint64_t sha256_u64(std::span<const std::uint8_t> data);

/// The two compression functions behind Sha256, exposed so tests can compare
/// them block for block. Each folds `blocks` consecutive 64-byte blocks into
/// `state`.
namespace sha256_compress {
void portable(Sha256::State& state, const std::uint8_t* data, std::size_t blocks);
/// True when this process runs the SHA-extension compression.
bool has_sha_ni();
/// Requires has_sha_ni().
void sha_ni(Sha256::State& state, const std::uint8_t* data, std::size_t blocks);
}  // namespace sha256_compress

}  // namespace geoanon::crypto
