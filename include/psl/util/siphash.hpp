// SipHash (Aumasson & Bernstein, 2012): a keyed PRF over byte strings.
//
// A hash that an attacker can evaluate offline can be steered: they craft
// inputs that collide. SipHash under a secret 128-bit key cannot be
// evaluated without the key, so collisions cannot be searched for. The
// serving cache keys on SipHash-1-3 (one compression round, three
// finalization rounds), the variant hash tables commonly use;
// siphash<2, 4> is the reference variant the published test vectors cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace psl::util {

struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

template <int kCompressionRounds, int kFinalizationRounds>
std::uint64_t siphash(const SipKey& key, std::string_view bytes) noexcept {
  std::uint64_t v0 = 0x736f6d6570736575ull ^ key.k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ key.k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ key.k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ key.k1;
  const auto rotl = [](std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); };
  const auto rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      v0 += v1, v1 = rotl(v1, 13), v1 ^= v0, v0 = rotl(v0, 32);
      v2 += v3, v3 = rotl(v3, 16), v3 ^= v2;
      v0 += v3, v3 = rotl(v3, 21), v3 ^= v0;
      v2 += v1, v1 = rotl(v1, 17), v1 ^= v2, v2 = rotl(v2, 32);
    }
  };
  // Message words are little-endian; the last word carries the remaining
  // bytes and the length mod 256 in its top byte.
  const auto load = [&](std::size_t at, std::size_t n) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      m |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
    }
    return m;
  };
  const std::size_t whole = bytes.size() & ~std::size_t{7};
  for (std::size_t at = 0; at < whole; at += 8) {
    const std::uint64_t m = load(at, 8);
    v3 ^= m;
    rounds(kCompressionRounds);
    v0 ^= m;
  }
  const std::uint64_t last =
      load(whole, bytes.size() - whole) | (static_cast<std::uint64_t>(bytes.size()) << 56);
  v3 ^= last;
  rounds(kCompressionRounds);
  v0 ^= last;
  v2 ^= 0xff;
  rounds(kFinalizationRounds);
  return v0 ^ v1 ^ v2 ^ v3;
}

inline std::uint64_t siphash13(const SipKey& key, std::string_view bytes) noexcept {
  return siphash<1, 3>(key, bytes);
}

}  // namespace psl::util
