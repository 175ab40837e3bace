#include "ropuf/helperdata/sanity.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace ropuf::helperdata {

SanityReport check_pair_list(const std::vector<IndexPair>& pairs, int ro_count,
                             bool forbid_reuse) {
    SanityReport report;
    std::set<int> used;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto [a, b] = pairs[p];
        if (a < 0 || a >= ro_count || b < 0 || b >= ro_count) {
            report.fail("pair " + std::to_string(p) + ": RO index out of range");
            continue;
        }
        if (a == b) {
            report.fail("pair " + std::to_string(p) + ": self-pair");
            continue;
        }
        if (forbid_reuse) {
            if (used.contains(a) || used.contains(b)) {
                report.fail("pair " + std::to_string(p) + ": RO re-used across pairs");
            }
            used.insert(a);
            used.insert(b);
        }
    }
    return report;
}

SanityReport check_group_assignment(const std::vector<int>& group_of, int ro_count) {
    SanityReport report;
    if (static_cast<int>(group_of.size()) != ro_count) {
        report.fail("group assignment length != RO count");
        return report;
    }
    int max_group = 0;
    for (std::size_t i = 0; i < group_of.size(); ++i) {
        if (group_of[i] < 1) {
            report.fail("RO " + std::to_string(i) + ": group id below 1");
        }
        max_group = std::max(max_group, group_of[i]);
    }
    if (!report.ok) return report;
    std::vector<int> sizes(static_cast<std::size_t>(max_group) + 1, 0);
    for (int g : group_of) ++sizes[static_cast<std::size_t>(g)];
    for (int g = 1; g <= max_group; ++g) {
        if (sizes[static_cast<std::size_t>(g)] == 0) {
            report.fail("group ids not dense: group " + std::to_string(g) + " empty");
        }
    }
    return report;
}

SanityReport check_coefficients(const std::vector<double>& beta, double magnitude_bound) {
    SanityReport report;
    for (std::size_t i = 0; i < beta.size(); ++i) {
        if (!std::isfinite(beta[i])) {
            report.fail("coefficient " + std::to_string(i) + ": not finite");
        } else if (std::abs(beta[i]) > magnitude_bound) {
            report.fail("coefficient " + std::to_string(i) + ": magnitude " +
                        std::to_string(std::abs(beta[i])) + " exceeds bound " +
                        std::to_string(magnitude_bound));
        }
    }
    return report;
}

} // namespace ropuf::helperdata
