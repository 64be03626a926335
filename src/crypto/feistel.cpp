#include "crypto/feistel.hpp"

#include <algorithm>
#include <cassert>

namespace geoanon::crypto {

FeistelPermutation::FeistelPermutation(std::span<const std::uint8_t> key,
                                       std::size_t block_bytes)
    : block_bytes_(block_bytes) {
    assert(block_bytes_ >= 2 && block_bytes_ % 2 == 0);
    keyed_.update_u32(static_cast<std::uint32_t>(key.size()));
    keyed_.update(key);
}

// geoanon: hot
void FeistelPermutation::permute_in_place(std::span<std::uint8_t> block, bool inverse) const {
    assert(block.size() == block_bytes_);
    const std::size_t h = block_bytes_ / 2;
    const std::span<std::uint8_t> left = block.first(h);
    const std::span<std::uint8_t> right = block.last(h);
    // Even steps XOR F(round, right) into left, odd steps the reverse, so the
    // halves never move. Decryption walks the rounds backwards over the
    // swapped halves of a ciphertext, which undoes encryption step by step.
    for (int step = 0; step < kRounds; ++step) {
        const int round = inverse ? kRounds - 1 - step : step;
        const std::span<std::uint8_t> src = step % 2 == 0 ? right : left;
        const std::span<std::uint8_t> dst = step % 2 == 0 ? left : right;
        Sha256 f = keyed_;
        f.update_u32(static_cast<std::uint32_t>(round));
        f.update_u32(static_cast<std::uint32_t>(h));
        f.update(src);
        sha256_keystream_xor(f, dst);
    }
    // Emit R || L: the output of an even round count with the final swap.
    std::swap_ranges(left.begin(), left.end(), right.begin());
}

// geoanon: hot
void FeistelPermutation::encrypt_in_place(std::span<std::uint8_t> block) const {
    permute_in_place(block, /*inverse=*/false);
}

// geoanon: hot
void FeistelPermutation::decrypt_in_place(std::span<std::uint8_t> block) const {
    permute_in_place(block, /*inverse=*/true);
}

util::Bytes FeistelPermutation::encrypt(std::span<const std::uint8_t> block) const {
    util::Bytes out(block.begin(), block.end());
    encrypt_in_place(out);
    return out;
}

util::Bytes FeistelPermutation::decrypt(std::span<const std::uint8_t> block) const {
    util::Bytes out(block.begin(), block.end());
    decrypt_in_place(out);
    return out;
}

}  // namespace geoanon::crypto
