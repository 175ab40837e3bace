// Compact (entropy-packing) coding of frequency orders
// (paper Section V-C Table I and Section V-E).
//
// The most compact representation of a g-RO order uses ceil(log2(g!)) bits:
// the lexicographic (Lehmer) rank of the permutation, MSB-first. This matches
// the "Compact" column of Table I exactly (ABCD -> 00000, ABDC -> 00001, ...,
// DCBA -> 10111).
//
// "However, please note that the problem is only fixed partially, since |Gj|!
// is not a power of two, given |Gj| > 2" — quantified by pack_efficiency().
#pragma once

#include <cstdint>
#include <span>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/group/kendall.hpp"

namespace ropuf::group {

/// g! for g <= 20 (fits in 64 bits).
std::uint64_t factorial(int g);

/// Bits of the compact representation: ceil(log2(g!)).
int compact_bits(int g);

/// Lexicographic rank of a permutation (Lehmer code).
std::uint64_t lehmer_rank(std::span<const int> order);

/// Inverse of lehmer_rank.
Order lehmer_unrank(std::uint64_t rank, int g);

/// Encodes an order as its rank, MSB-first in compact_bits(g) bits.
bits::BitVec compact_encode(const Order& order);

/// compact_encode into caller storage: `code` holds compact_bits(g) bits.
void compact_encode(std::span<const int> order, std::span<std::uint8_t> code);

/// Decodes a compact vector; ranks >= g! (unused codepoints) return the
/// identity order of rank 0 after reduction modulo g! — flagged via `valid`.
struct CompactDecode {
    Order order;
    bool valid = false;
};
CompactDecode compact_decode(const bits::BitVec& code, int g);

/// Entropy efficiency of packing: log2(g!) / compact_bits(g), in (0, 1].
double pack_efficiency(int g);

} // namespace ropuf::group
