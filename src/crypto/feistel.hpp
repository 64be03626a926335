#pragma once

#include <cstddef>
#include <span>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace geoanon::crypto {

/// Keyed pseudorandom permutation over fixed-size byte blocks, built as an
/// 8-round balanced Feistel network with SHA-256 as the round function.
///
/// This is the symmetric cipher E_k required by the Rivest–Shamir–Tauman
/// ring-signature combining function, which needs an *invertible* keyed
/// primitive over the common domain (a hash alone would not do).
///
/// Round r XORs F(r, x) = SHA-256-CTR(len(key) || key || r || len(x) || x)
/// into the other half; the block is emitted as R || L after the last round.
/// The permutation is pinned by known-answer tests (tests/test_feistel.cpp).
class FeistelPermutation {
  public:
    static constexpr int kRounds = 8;

    /// `block_bytes` must be even and >= 2 (balanced halves).
    FeistelPermutation(std::span<const std::uint8_t> key, std::size_t block_bytes);

    std::size_t block_bytes() const { return block_bytes_; }

    /// Permute a block forward in place. `block.size()` must equal
    /// block_bytes(). Allocation-free.
    void encrypt_in_place(std::span<std::uint8_t> block) const;
    /// Inverse permutation, in place.
    void decrypt_in_place(std::span<std::uint8_t> block) const;

    /// Copying forms of the above.
    util::Bytes encrypt(std::span<const std::uint8_t> block) const;
    util::Bytes decrypt(std::span<const std::uint8_t> block) const;

  private:
    void permute_in_place(std::span<std::uint8_t> block, bool inverse) const;

    /// Hasher that has absorbed len(key) || key, forked by every round.
    Sha256 keyed_;
    std::size_t block_bytes_;
};

}  // namespace geoanon::crypto
