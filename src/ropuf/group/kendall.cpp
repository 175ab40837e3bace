#include "ropuf/group/kendall.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ropuf::group {

int kendall_bits(int g) {
    assert(g >= 0);
    return g * (g - 1) / 2;
}

int kendall_pair_index(int i, int j, int g) {
    assert(0 <= i && i < j && j < g);
    // Pairs (0,1) (0,2) ... (0,g-1) (1,2) ... in lexicographic order.
    return i * g - i * (i + 1) / 2 + (j - i - 1);
}

bits::BitVec kendall_encode(const Order& order) {
    bits::BitVec code(static_cast<std::size_t>(kendall_bits(static_cast<int>(order.size()))));
    kendall_encode(order, code);
    return code;
}

void kendall_encode(std::span<const int> order, std::span<std::uint8_t> code) {
    const int g = static_cast<int>(order.size());
    assert(static_cast<int>(code.size()) == kendall_bits(g));
    // Bit (i, j), i < j, is 1 iff the pair is inverted: label j precedes
    // label i. Every rank pair r < s visits one label pair exactly once.
    std::fill(code.begin(), code.end(), std::uint8_t{0});
    for (int r = 0; r < g; ++r) {
        const int ahead = order[static_cast<std::size_t>(r)];
        assert(ahead >= 0 && ahead < g);
        for (int s = r + 1; s < g; ++s) {
            const int behind = order[static_cast<std::size_t>(s)];
            if (ahead > behind) {
                code[static_cast<std::size_t>(kendall_pair_index(behind, ahead, g))] = 1;
            }
        }
    }
}

namespace {

/// wins[i] = number of labels that label i beats according to the code.
void win_counts(std::span<const std::uint8_t> code, std::span<int> wins) {
    const int g = static_cast<int>(wins.size());
    std::fill(wins.begin(), wins.end(), 0);
    for (int i = 0; i < g; ++i) {
        for (int j = i + 1; j < g; ++j) {
            const auto bit = code[static_cast<std::size_t>(kendall_pair_index(i, j, g))];
            if (bit) {
                ++wins[static_cast<std::size_t>(j)];
            } else {
                ++wins[static_cast<std::size_t>(i)];
            }
        }
    }
}

} // namespace

std::optional<Order> kendall_decode_exact(const bits::BitVec& code, int g) {
    Order order(static_cast<std::size_t>(g));
    std::vector<int> wins(static_cast<std::size_t>(g));
    if (!kendall_decode_exact(code, order, wins)) return std::nullopt;
    return order;
}

bool kendall_decode_exact(std::span<const std::uint8_t> code, std::span<int> order,
                          std::span<int> wins) {
    const int g = static_cast<int>(order.size());
    assert(static_cast<int>(code.size()) == kendall_bits(g));
    assert(wins.size() == order.size());
    win_counts(code, wins);
    // A valid total order gives distinct win counts g-1, g-2, ..., 0.
    std::fill(order.begin(), order.end(), -1);
    for (int label = 0; label < g; ++label) {
        const int rank = g - 1 - wins[static_cast<std::size_t>(label)];
        if (rank < 0 || rank >= g || order[static_cast<std::size_t>(rank)] != -1) return false;
        order[static_cast<std::size_t>(rank)] = label;
    }
    // Every bit must match the order's encoding (label j precedes label i
    // iff j has more wins). Distinct win counts already force a transitive
    // tournament, so on 0/1 bits this guard never fires.
    for (int i = 0; i < g; ++i) {
        for (int j = i + 1; j < g; ++j) {
            const std::uint8_t inverted =
                wins[static_cast<std::size_t>(j)] > wins[static_cast<std::size_t>(i)] ? 1 : 0;
            if (code[static_cast<std::size_t>(kendall_pair_index(i, j, g))] != inverted) {
                return false;
            }
        }
    }
    return true;
}

bool kendall_is_valid(const bits::BitVec& code, int g) {
    return kendall_decode_exact(code, g).has_value();
}

Order kendall_decode_nearest(const bits::BitVec& code, int g) {
    assert(static_cast<int>(code.size()) == kendall_bits(g));
    if (g <= 1) return Order(static_cast<std::size_t>(g), 0);

    if (g <= 7) {
        // Exhaustive search over g! <= 5040 permutations.
        Order perm(static_cast<std::size_t>(g));
        std::iota(perm.begin(), perm.end(), 0);
        Order best = perm;
        int best_dist = bits::hamming(kendall_encode(perm), code);
        while (std::next_permutation(perm.begin(), perm.end())) {
            const int d = bits::hamming(kendall_encode(perm), code);
            if (d < best_dist) {
                best_dist = d;
                best = perm;
            }
        }
        return best;
    }

    // Borda heuristic: rank by win count, then adjacent-transposition local
    // search until no single swap improves the distance.
    std::vector<int> wins(static_cast<std::size_t>(g));
    win_counts(code, wins);
    Order order(static_cast<std::size_t>(g));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (wins[static_cast<std::size_t>(a)] != wins[static_cast<std::size_t>(b)]) {
            return wins[static_cast<std::size_t>(a)] > wins[static_cast<std::size_t>(b)];
        }
        return a < b;
    });
    int dist = bits::hamming(kendall_encode(order), code);
    bool improved = true;
    while (improved) {
        improved = false;
        for (int r = 0; r + 1 < g; ++r) {
            std::swap(order[static_cast<std::size_t>(r)], order[static_cast<std::size_t>(r + 1)]);
            const int d = bits::hamming(kendall_encode(order), code);
            if (d < dist) {
                dist = d;
                improved = true;
            } else {
                std::swap(order[static_cast<std::size_t>(r)],
                          order[static_cast<std::size_t>(r + 1)]);
            }
        }
    }
    return order;
}

int kendall_tau(const Order& a, const Order& b) {
    assert(a.size() == b.size());
    return bits::hamming(kendall_encode(a), kendall_encode(b));
}

} // namespace ropuf::group
