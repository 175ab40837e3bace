#include "ropuf/group/compact.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ropuf/stats/estimators.hpp"

namespace ropuf::group {

std::uint64_t factorial(int g) {
    if (g < 0 || g > 20) throw std::invalid_argument("factorial: need 0 <= g <= 20");
    std::uint64_t f = 1;
    for (int i = 2; i <= g; ++i) f *= static_cast<std::uint64_t>(i);
    return f;
}

int compact_bits(int g) {
    const std::uint64_t f = factorial(g);
    int b = 0;
    while ((1ULL << b) < f) ++b;
    return b;
}

std::uint64_t lehmer_rank(std::span<const int> order) {
    const int g = static_cast<int>(order.size());
    std::uint64_t rank = 0;
    for (int r = 0; r < g; ++r) {
        // Count remaining labels smaller than order[r].
        int smaller = 0;
        for (int s = r + 1; s < g; ++s) {
            if (order[static_cast<std::size_t>(s)] < order[static_cast<std::size_t>(r)]) {
                ++smaller;
            }
        }
        rank += static_cast<std::uint64_t>(smaller) * factorial(g - 1 - r);
    }
    return rank;
}

Order lehmer_unrank(std::uint64_t rank, int g) {
    assert(rank < factorial(g));
    std::vector<int> available(static_cast<std::size_t>(g));
    std::iota(available.begin(), available.end(), 0);
    Order order;
    order.reserve(static_cast<std::size_t>(g));
    for (int r = 0; r < g; ++r) {
        const std::uint64_t f = factorial(g - 1 - r);
        const auto idx = static_cast<std::size_t>(rank / f);
        rank %= f;
        order.push_back(available[idx]);
        available.erase(available.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    return order;
}

bits::BitVec compact_encode(const Order& order) {
    bits::BitVec code(static_cast<std::size_t>(compact_bits(static_cast<int>(order.size()))));
    compact_encode(order, code);
    return code;
}

void compact_encode(std::span<const int> order, std::span<std::uint8_t> code) {
    assert(static_cast<int>(code.size()) == compact_bits(static_cast<int>(order.size())));
    const std::uint64_t rank = lehmer_rank(order);
    const std::size_t nbits = code.size();
    for (std::size_t i = 0; i < nbits; ++i) {
        code[nbits - 1 - i] = static_cast<std::uint8_t>((rank >> i) & 1u);
    }
}

CompactDecode compact_decode(const bits::BitVec& code, int g) {
    assert(static_cast<int>(code.size()) == compact_bits(g));
    const std::uint64_t raw = bits::to_u64(code);
    const std::uint64_t f = factorial(g);
    CompactDecode out;
    out.valid = raw < f;
    out.order = lehmer_unrank(out.valid ? raw : raw % f, g);
    return out;
}

double pack_efficiency(int g) {
    const int b = compact_bits(g);
    if (b == 0) return 1.0;
    return stats::log2_factorial(g) / static_cast<double>(b);
}

} // namespace ropuf::group
