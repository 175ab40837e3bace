// Algorithm 2 (grouping) tests: the paper's pseudocode on handcrafted inputs
// plus the invariants that make group-based coding sound.
#include <gtest/gtest.h>

#include <cmath>

#include "ropuf/group/grouping.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace {

using ropuf::group::grouping;
using ropuf::group::GroupingResult;
using ropuf::group::grouping_entropy_bits;
using ropuf::group::group_sizes;
using ropuf::group::partition_from_assignment;

TEST(Grouping, HandcraftedExample) {
    // Values: 10, 9.5, 8, 7.9, 6 with threshold 1.0.
    // Descending: 10 (idx0) -> G1; 9.5 (idx1): 10-9.5 <= 1 -> G2;
    // 8 (idx2): 9.5... G1 last=10: 10-8=2 > 1 -> G1; 7.9 (idx3): G1 last=8:
    // 0.1 <= 1 -> G2 last=9.5: 1.6 > 1 -> G2; 6 (idx4): G1 last=8: 2 > 1 -> G1.
    const std::vector<double> values{10.0, 9.5, 8.0, 7.9, 6.0};
    const auto g = grouping(values, 1.0);
    EXPECT_EQ(g.num_groups, 2);
    EXPECT_EQ(g.group_of, (std::vector<int>{1, 2, 1, 2, 1}));
    EXPECT_EQ(g.members[0], (std::vector<int>{0, 2, 4}));
    EXPECT_EQ(g.members[1], (std::vector<int>{1, 3}));
}

TEST(Grouping, ZeroThresholdPutsEverythingInOneGroup) {
    const std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
    const auto g = grouping(values, 0.0);
    EXPECT_EQ(g.num_groups, 1);
    EXPECT_EQ(static_cast<int>(g.members[0].size()), 5);
    // Members listed in descending value order.
    EXPECT_EQ(g.members[0], (std::vector<int>{0, 4, 2, 3, 1}));
}

TEST(Grouping, HugeThresholdMakesSingletons) {
    const std::vector<double> values{5.0, 1.0, 3.0};
    const auto g = grouping(values, 100.0);
    EXPECT_EQ(g.num_groups, 3);
    for (const auto& m : g.members) EXPECT_EQ(m.size(), 1u);
}

class GroupingInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupingInvariants, StrictPartitionAndThreshold) {
    ropuf::rng::Xoshiro256pp rng(GetParam());
    std::vector<double> values(128);
    for (auto& v : values) v = rng.gaussian(200.0, 1.0);
    const double th = 0.3;
    const auto g = grouping(values, th);

    // Strict partition: every RO in exactly one group.
    std::vector<int> count(values.size(), 0);
    for (const auto& m : g.members) {
        for (int ro : m) ++count[static_cast<std::size_t>(ro)];
    }
    for (int c : count) EXPECT_EQ(c, 1);

    // Every within-group pair exceeds the threshold (the key invariant:
    // Algorithm 2 only checks the last member, but monotone processing
    // implies the property for all pairs).
    for (const auto& m : g.members) {
        for (std::size_t i = 0; i < m.size(); ++i) {
            for (std::size_t j = i + 1; j < m.size(); ++j) {
                EXPECT_GT(std::abs(values[static_cast<std::size_t>(m[i])] -
                                   values[static_cast<std::size_t>(m[j])]),
                          th);
            }
        }
    }

    // Members are in descending value order (Algorithm 2's insertion order).
    for (const auto& m : g.members) {
        for (std::size_t i = 0; i + 1 < m.size(); ++i) {
            EXPECT_GT(values[static_cast<std::size_t>(m[i])],
                      values[static_cast<std::size_t>(m[i + 1])]);
        }
    }

    // group_of is consistent with members.
    for (std::size_t gi = 0; gi < g.members.size(); ++gi) {
        for (int ro : g.members[gi]) {
            EXPECT_EQ(g.group_of[static_cast<std::size_t>(ro)], static_cast<int>(gi) + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingInvariants,
                         ::testing::Values(161u, 162u, 163u, 164u, 165u));

TEST(Grouping, GreedyPrefersLowGroupIds) {
    // Larger thresholds push ROs into later groups; group 1 is always the
    // largest-or-equal in the greedy scheme for generic inputs.
    ropuf::rng::Xoshiro256pp rng(166);
    std::vector<double> values(256);
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    const auto g = grouping(values, 0.2);
    for (std::size_t gi = 1; gi < g.members.size(); ++gi) {
        EXPECT_GE(g.members[0].size(), g.members[gi].size() / 2)
            << "greedy first group unexpectedly small";
    }
}

TEST(Grouping, EntropyMatchesFormula) {
    const std::vector<double> values{10.0, 9.5, 8.0, 7.9, 6.0};
    const auto g = grouping(values, 1.0);
    // Groups of size 3 and 2: log2(3!) + log2(2!) = log2(6) + 1.
    EXPECT_NEAR(grouping_entropy_bits(g), std::log2(6.0) + 1.0, 1e-9);
}

TEST(Grouping, EntropyDecreasesWithThreshold) {
    ropuf::rng::Xoshiro256pp rng(167);
    std::vector<double> values(256);
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    double prev = 1e18;
    for (double th : {0.05, 0.15, 0.35, 0.7}) {
        const double h = grouping_entropy_bits(grouping(values, th));
        EXPECT_LT(h, prev);
        prev = h;
    }
}

std::vector<int> members_of(const ropuf::group::Partition& p, int j) {
    return {p.members(j).begin(), p.members(j).end()};
}

TEST(PartitionFromAssignment, RebuildsAscendingOrder) {
    const std::vector<int> group_of{2, 1, 2, 1, 1};
    const auto p = partition_from_assignment(group_of);
    ASSERT_TRUE(p.has_value());
    ASSERT_EQ(p->groups(), 2);
    EXPECT_EQ(members_of(*p, 0), (std::vector<int>{1, 3, 4}));
    EXPECT_EQ(members_of(*p, 1), (std::vector<int>{0, 2}));
    std::vector<int> sizes;
    ASSERT_TRUE(group_sizes(group_of, sizes));
    EXPECT_EQ(sizes, (std::vector<int>{3, 2}));
}

TEST(PartitionFromAssignment, RejectsInvalidIds) {
    EXPECT_FALSE(partition_from_assignment(std::vector<int>{0, 1}).has_value());  // id < 1
    EXPECT_FALSE(partition_from_assignment(std::vector<int>{1, 3}).has_value());  // gap at 2
    EXPECT_FALSE(partition_from_assignment(std::vector<int>{-1, 1}).has_value());
    // An id beyond the RO count always leaves a gap; it is refused by
    // counting, without sizing anything by the id.
    EXPECT_FALSE(partition_from_assignment(std::vector<int>{1, 2147483647}).has_value());
    EXPECT_TRUE(partition_from_assignment(std::vector<int>{}).has_value());
}

TEST(PartitionFromAssignment, RoundTripsWithGrouping) {
    ropuf::rng::Xoshiro256pp rng(168);
    std::vector<double> values(64);
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    const auto g = grouping(values, 0.25);
    const auto p = partition_from_assignment(g.group_of);
    ASSERT_TRUE(p.has_value());
    ASSERT_EQ(static_cast<std::size_t>(p->groups()), g.members.size());
    for (int gi = 0; gi < p->groups(); ++gi) {
        // Same sets, different order conventions (ascending vs descending-value).
        auto b = g.members[static_cast<std::size_t>(gi)];
        std::sort(b.begin(), b.end());
        EXPECT_EQ(members_of(*p, gi), b);
    }
}

} // namespace
