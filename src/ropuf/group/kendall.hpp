// Kendall coding of RO frequency orders (paper Section V-C, Table I).
//
// A group of g ROs carries a frequency order — a permutation of its member
// labels. Kendall coding emits one bit per label pair (i, j), i < j, in
// lexicographic pair order: the bit is 1 iff the pair is *inverted* (label j
// precedes label i in the descending-frequency sequence). A single adjacent
// flip in the order (the dominant physical error) changes exactly one bit,
// which is what "relaxes the error-correction requirements in terms of error
// rate" at the cost of |G|(|G|-1)/2 bits per group.
//
// An order is represented as std::vector<int>: order[r] = label of rank r
// (rank 0 = highest frequency), labels 0..g-1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ropuf/bits/bitvec.hpp"

namespace ropuf::group {

using Order = std::vector<int>;

/// Number of Kendall bits for a group of size g: g(g-1)/2.
int kendall_bits(int g);

/// Flat bit index of label pair (i, j), i < j, within the Kendall vector.
int kendall_pair_index(int i, int j, int g);

/// Encodes a frequency order into its Kendall bit vector.
bits::BitVec kendall_encode(const Order& order);

/// kendall_encode into caller storage: `code` holds kendall_bits(g) bits.
void kendall_encode(std::span<const int> order, std::span<std::uint8_t> code);

/// Exact decode: reconstructs the order from a *valid* Kendall codeword by
/// win counting (a total order gives every label a distinct number of wins).
/// Returns nullopt when the vector is not a valid codeword (intransitive).
std::optional<Order> kendall_decode_exact(const bits::BitVec& code, int g);

/// kendall_decode_exact into caller storage: writes the g-label order into
/// `order`, uses `wins` (g entries) as scratch, and returns false when
/// `code` is not a valid codeword.
bool kendall_decode_exact(std::span<const std::uint8_t> code, std::span<int> order,
                          std::span<int> wins);

/// Nearest-codeword decode: returns the order whose Kendall encoding has
/// minimal Hamming distance to `code`. Exhaustive for g <= 7; Borda ranking
/// with adjacent-transposition local search beyond. This is the robust
/// fallback a decoder-assisted device could use (extension; the paper's
/// pipeline relies on the ECC to restore a valid codeword first).
Order kendall_decode_nearest(const bits::BitVec& code, int g);

/// True iff `code` encodes a total order (is a valid Kendall codeword).
bool kendall_is_valid(const bits::BitVec& code, int g);

/// Kendall-tau distance between two orders (= Hamming distance of their
/// Kendall encodings).
int kendall_tau(const Order& a, const Order& b);

} // namespace ropuf::group
