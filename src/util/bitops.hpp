// Bit-field extraction helpers for physical-address decomposition.
#pragma once

#include <bit>
#include <cstdint>

#include "util/assert.hpp"

namespace memsched::util {

/// True if x is a power of two (and nonzero).
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Floor log2 in O(1); ilog2(0) is 0.
constexpr unsigned ilog2(std::uint64_t x) {
  return static_cast<unsigned>(std::bit_width(x | 1)) - 1;
}
static_assert(ilog2(0) == 0 && ilog2(1) == 0 && ilog2(2) == 1 && ilog2(3) == 1 &&
              ilog2(64) == 6 && ilog2(65) == 6 && ilog2(std::uint64_t{1} << 63) == 63 &&
              ilog2(~std::uint64_t{0}) == 63);

/// Extract `width` bits of `x` starting at bit `pos` (LSB = 0).
constexpr std::uint64_t bits(std::uint64_t x, unsigned pos, unsigned width) {
  if (width == 0) return 0;
  if (width >= 64) return x >> pos;
  return (x >> pos) & ((std::uint64_t{1} << width) - 1);
}

/// Deposit `value` into bits [pos, pos+width) of a zeroed word.
constexpr std::uint64_t deposit(std::uint64_t value, unsigned pos, unsigned width) {
  if (width == 0) return 0;
  const std::uint64_t mask = (width >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  return (value & mask) << pos;
}

}  // namespace memsched::util
