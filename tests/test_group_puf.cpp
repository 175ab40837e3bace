// Group-based RO PUF pipeline tests (paper Fig. 4).
#include <gtest/gtest.h>

#include "ropuf/group/group_puf.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::group;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

GroupPufConfig test_config() {
    GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    cfg.enroll_samples = 32;
    return cfg;
}

ProcessParams quiet_params() {
    ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

class GroupPufSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupPufSeeds, EnrollThenReconstruct) {
    const RoArray arr({16, 8}, quiet_params(), GetParam());
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(GetParam() ^ 0x777);
    const auto enrollment = puf.enroll(rng);
    ASSERT_GT(enrollment.key.size(), 20u);
    int ok = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        ok += rec.ok && rec.key == enrollment.key;
    }
    EXPECT_GE(ok, 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupPufSeeds, ::testing::Values(201u, 202u, 203u, 204u));

TEST(GroupPuf, KeyLengthMatchesGroupStructure) {
    const RoArray arr({16, 8}, quiet_params(), 211);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(212);
    const auto enrollment = puf.enroll(rng);
    int expected_key = 0;
    int expected_kendall = 0;
    for (const auto& m : enrollment.grouping.members) {
        expected_key += compact_bits(static_cast<int>(m.size()));
        expected_kendall += kendall_bits(static_cast<int>(m.size()));
    }
    EXPECT_EQ(static_cast<int>(enrollment.key.size()), expected_key);
    EXPECT_EQ(static_cast<int>(enrollment.kendall_ref.size()), expected_kendall);
    EXPECT_EQ(enrollment.helper.ecc.response_bits, expected_kendall);
}

TEST(GroupPuf, EncodeGroupsConsistentWithHandComputation) {
    // Two groups: {2, 0} (labels 0->0, 1->2) and {1} (singleton).
    // Residuals: r0 = 5, r1 = 99, r2 = 7 -> group 1 order: label1 (RO 2,
    // value 7) before label0 (RO 0, value 5) -> Kendall bit 1, compact bit 1.
    const auto groups = ropuf::group::partition_from_assignment(std::vector<int>{1, 2, 1});
    ASSERT_TRUE(groups.has_value());
    const std::vector<double> residuals{5.0, 99.0, 7.0};
    const auto coded = GroupBasedPuf::encode_groups(*groups, residuals);
    EXPECT_EQ(bits::to_string(coded.kendall), "1");
    EXPECT_EQ(bits::to_string(coded.key), "1");
}

TEST(GroupPuf, ReconstructionFailsOnNonDenseGroups) {
    const RoArray arr({16, 8}, quiet_params(), 213);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(214);
    auto helper = puf.enroll(rng).helper;
    helper.group_of[0] = 1000; // creates a gap
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, ReconstructionFailsOnOversizedGroup) {
    GroupPufConfig cfg = test_config();
    cfg.max_group_size = 4;
    const RoArray arr({16, 8}, quiet_params(), 215);
    const GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(216);
    auto helper = puf.enroll(rng).helper;
    // Merge everything into group 1.
    for (auto& g : helper.group_of) g = 1;
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, ReconstructionFailsOnBadCoefficientCount) {
    const RoArray arr({16, 8}, quiet_params(), 217);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(218);
    auto helper = puf.enroll(rng).helper;
    helper.beta.push_back(1.0); // 7 coefficients match no degree
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, AcceptsHigherDegreeCoefficients) {
    // The naive device infers the degree from the coefficient count — a
    // degree-3 vector (10 coefficients) parses fine. This is what lets the
    // attacker inject arbitrary surfaces.
    const RoArray arr({16, 8}, quiet_params(), 219);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(220);
    auto helper = puf.enroll(rng).helper;
    std::vector<double> beta3(10, 0.0);
    for (std::size_t i = 0; i < helper.beta.size(); ++i) beta3[i] = helper.beta[i];
    helper.beta = beta3;
    const auto rec = puf.reconstruct(helper, rng);
    EXPECT_TRUE(rec.ok); // same surface, padded with zero cubic terms
}

TEST(GroupPuf, SteepInjectionOverridesGrouping) {
    // Fig. 6a precondition: a steep injected surface fully determines the
    // regenerated orders. With an attacker-consistent partition + parity, the
    // device reconstructs the attacker's key.
    const ArrayGeometry g{10, 4};
    const RoArray arr(g, quiet_params(), 221);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(222);
    const auto enrollment = puf.enroll(rng);

    // Attacker surface: steep vertical plane; pair ROs vertically.
    GroupPufHelper attack = enrollment.helper;
    attack.beta[2] -= 1000.0; // subtracting -1000y adds +1000y to residuals
    attack.group_of.assign(static_cast<std::size_t>(g.count()), 0);
    bits::BitVec expected_kendall;
    int gid = 1;
    for (int x = 0; x < g.cols; ++x) {
        for (int y = 0; y + 1 < g.rows; y += 2) {
            attack.group_of[static_cast<std::size_t>(g.index(x, y))] = gid;
            attack.group_of[static_cast<std::size_t>(g.index(x, y + 1))] = gid;
            // Higher y gets +1000y: the higher-indexed RO is larger -> bit 1.
            expected_kendall.push_back(1);
            ++gid;
        }
    }
    attack.ecc = ropuf::ecc::BlockEcc(puf.code()).enroll(expected_kendall);
    const auto rec = puf.reconstruct(attack, rng);
    ASSERT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, expected_kendall); // 2-RO groups: key bit = kendall bit
}

TEST(GroupPuf, SerializationRoundTrip) {
    const RoArray arr({16, 8}, quiet_params(), 223);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(224);
    const auto enrollment = puf.enroll(rng);
    const auto parsed = parse_group_puf(serialize(enrollment.helper));
    EXPECT_EQ(parsed.beta, enrollment.helper.beta);
    EXPECT_EQ(parsed.group_of, enrollment.helper.group_of);
    EXPECT_EQ(parsed.ecc.parity, enrollment.helper.ecc.parity);
    const auto rec = puf.reconstruct(parsed, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

TEST(GroupPuf, HigherDistillerDegreeAlsoWorks) {
    GroupPufConfig cfg = test_config();
    cfg.distiller_degree = 3; // DAC'13's other recommended value
    const RoArray arr({16, 8}, quiet_params(), 225);
    const GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(226);
    const auto enrollment = puf.enroll(rng);
    const auto rec = puf.reconstruct(enrollment.helper, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

} // namespace
