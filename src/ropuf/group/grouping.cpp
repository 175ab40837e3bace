#include "ropuf/group/grouping.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace ropuf::group {

GroupingResult grouping(std::span<const double> values, double delta_f_th,
                        int max_group_size) {
    assert(max_group_size >= 1);
    const int n = static_cast<int>(values.size());
    std::vector<int> pi(static_cast<std::size_t>(n));
    std::iota(pi.begin(), pi.end(), 0);
    std::sort(pi.begin(), pi.end(), [&](int a, int b) {
        if (values[static_cast<std::size_t>(a)] != values[static_cast<std::size_t>(b)]) {
            return values[static_cast<std::size_t>(a)] > values[static_cast<std::size_t>(b)];
        }
        return a < b;
    });

    GroupingResult out;
    out.group_of.assign(static_cast<std::size_t>(n), 0);
    // last_value[j] = value of the most recent RO appended to group j+1;
    // the paper's sentinel RO0.f = infinity models "empty group accepts all".
    std::vector<double> last_value;
    for (int rank = 0; rank < n; ++rank) {
        const int ro = pi[static_cast<std::size_t>(rank)];
        const double f = values[static_cast<std::size_t>(ro)];
        std::size_t j = 0;
        while (j < last_value.size() &&
               (last_value[j] - f <= delta_f_th ||
                static_cast<int>(out.members[j].size()) >= max_group_size)) {
            ++j;
        }
        if (j == last_value.size()) {
            last_value.push_back(f);
            out.members.emplace_back();
        } else {
            last_value[j] = f;
        }
        out.group_of[static_cast<std::size_t>(ro)] = static_cast<int>(j) + 1;
        out.members[j].push_back(ro);
    }
    out.num_groups = static_cast<int>(out.members.size());
    return out;
}

bool group_sizes(std::span<const int> group_of, std::vector<int>& sizes) {
    // n ROs fill at most n dense ids, so any larger id leaves a gap.
    const int n = static_cast<int>(group_of.size());
    int max_group = 0;
    for (const int g : group_of) {
        if (g < 1 || g > n) return false;
        max_group = std::max(max_group, g);
    }
    sizes.assign(static_cast<std::size_t>(max_group), 0);
    for (const int g : group_of) ++sizes[static_cast<std::size_t>(g - 1)];
    return std::find(sizes.begin(), sizes.end(), 0) == sizes.end();
}

std::optional<Partition> partition_from_assignment(std::span<const int> group_of) {
    std::vector<int> sizes;
    if (!group_sizes(group_of, sizes)) return std::nullopt;
    Partition out;
    out.offsets.resize(sizes.size() + 1);
    out.offsets[0] = 0;
    std::partial_sum(sizes.begin(), sizes.end(), out.offsets.begin() + 1);
    // Counting sort by id; scanning ROs in index order keeps each group's
    // members ascending. `sizes` becomes the per-group write cursor.
    std::copy(out.offsets.begin(), out.offsets.end() - 1, sizes.begin());
    out.indices.resize(group_of.size());
    for (std::size_t i = 0; i < group_of.size(); ++i) {
        out.indices[static_cast<std::size_t>(sizes[static_cast<std::size_t>(group_of[i] - 1)]++)] =
            static_cast<int>(i);
    }
    return out;
}

double grouping_entropy_bits(const GroupingResult& grouping) {
    double h = 0.0;
    for (const auto& m : grouping.members) {
        h += stats::log2_factorial(static_cast<int>(m.size()));
    }
    return h;
}

} // namespace ropuf::group
