// FNV-1a checksums over the bit patterns of numeric arrays, for tests that
// pin an exact result (a permutation, a factor) rather than a tolerance.
#pragma once

#include <bit>
#include <span>

#include "common/types.hpp"

namespace ppdl::testsupport {

inline constexpr U64 kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Folds every element's 8-byte pattern, low byte first, into `hash`.
template <typename T>
U64 fnv1a(std::span<const T> values, U64 hash = kFnv1aOffset) {
  static_assert(sizeof(T) == 8, "fnv1a folds 8-byte elements");
  for (const T v : values) {
    U64 bits = std::bit_cast<U64>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xffU;
      hash *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  return hash;
}

}  // namespace ppdl::testsupport
