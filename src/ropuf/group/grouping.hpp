// The grouping algorithm of group-based RO PUFs (paper Section V-B,
// Algorithm 2; Yin, Qu & Zhou, DATE 2013).
//
// ROs are processed in descending (distilled) frequency order and greedily
// appended to the first group whose most recent member is more than Δfth
// faster. Because insertion order is monotone decreasing, the gap to the most
// recent member lower-bounds the gap to *every* member, so all within-group
// pairs exceed Δfth — the invariant our tests assert.
//
// The available entropy is sum_j log2(|Gj|!): "having few large groups is
// more beneficial than having many small groups".
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ropuf/stats/estimators.hpp"

namespace ropuf::group {

struct GroupingResult {
    /// 1-based group id per RO (Algorithm 2's convention).
    std::vector<int> group_of;
    int num_groups = 0;
    /// members[j] lists group j+1's RO indices in descending value order
    /// (the order Algorithm 2 inserted them).
    std::vector<std::vector<int>> members;
};

/// Runs Algorithm 2 on a value map (enrolled frequencies or residuals).
///
/// `max_group_size` caps group growth (a full group no longer accepts
/// members and the scan moves to the next group). The paper's pseudocode has
/// no cap, but notes the Kendall "workload increases quadratically with the
/// group size" — practical implementations bound it; we default to 12,
/// matching GroupPufConfig::max_group_size.
GroupingResult grouping(std::span<const double> values, double delta_f_th,
                        int max_group_size = 12);

/// A stored group assignment in flat (CSR) form: the members of group
/// j+1, in ascending RO index (the canonical label order), are
/// indices[offsets[j] .. offsets[j+1]).
struct Partition {
    std::vector<int> offsets; ///< groups() + 1 entries, offsets[0] = 0
    std::vector<int> indices; ///< every RO exactly once

    int groups() const { return static_cast<int>(offsets.size()) - 1; }
    int size_of(int j) const {
        return offsets[static_cast<std::size_t>(j) + 1] - offsets[static_cast<std::size_t>(j)];
    }
    std::span<const int> members(int j) const {
        return {indices.data() + offsets[static_cast<std::size_t>(j)],
                static_cast<std::size_t>(size_of(j))};
    }
};

/// Group sizes of a stored assignment (device side): sizes[j] = members of
/// group j+1. False when the ids are not dense: an id < 1 or a gap.
bool group_sizes(std::span<const int> group_of, std::vector<int>& sizes);

/// Rebuilds the partition from a stored group assignment; nullopt when the
/// ids are not dense (see group_sizes).
std::optional<Partition> partition_from_assignment(std::span<const int> group_of);

/// Total extractable entropy sum_j log2(|Gj|!) in bits.
double grouping_entropy_bits(const GroupingResult& grouping);

} // namespace ropuf::group
