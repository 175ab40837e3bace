// The countermeasure registry and its middleware: token grammar, canonical
// spelling, refusal accounting, lockout/rate-limit bricking, MAC binding,
// the canonical-form check and the noisy-refusal coin — plus the
// scenario-level outcome classification the attack x defense matrix is
// built on, and the paper's Section VII countermeasures (`sanity`, `mac`)
// against real devices and the Section VI manipulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/defense/middleware.hpp"
#include "ropuf/defense/registry.hpp"

namespace {

using namespace ropuf;
using core::AnyOracle;
using core::OracleStats;
using core::Probe;
using helperdata::Nvm;

/// Scripted inner oracle: verdict = byte 0 of the probe blob ("1" fails),
/// every evaluated probe charged as one query + 10 measurements.
class ScriptedOracle final : public core::OracleBase {
public:
    void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) override {
        verdicts.clear();
        for (const auto& probe : probes) {
            ++stats_.queries;
            stats_.measurements += 10;
            verdicts.push_back(!probe.helper.bytes().empty() && probe.helper.bytes()[0] == 1);
        }
    }
    OracleStats stats() const override { return stats_; }

private:
    OracleStats stats_;
};

Probe probe_with(std::uint8_t first_byte) {
    return {Nvm(std::vector<std::uint8_t>{first_byte, 0xab, 0xcd}), std::nullopt};
}

// ---------------------------------------------------------------------------
// Token grammar
// ---------------------------------------------------------------------------

TEST(DefenseToken, ParsesNamesAndArgs) {
    const auto plain = defense::parse_defense_token("sanity");
    EXPECT_EQ(plain.name, "sanity");
    EXPECT_TRUE(plain.args.empty());

    const auto args = defense::parse_defense_token(" ratelimit( 200 , 64 ) ");
    EXPECT_EQ(args.name, "ratelimit");
    ASSERT_EQ(args.args.size(), 2u);
    EXPECT_DOUBLE_EQ(args.args[0], 200.0);
    EXPECT_DOUBLE_EQ(args.args[1], 64.0);
    EXPECT_EQ(defense::format_token(args), "ratelimit(200,64)");
}

TEST(DefenseToken, RejectsMalformedTokens) {
    EXPECT_THROW((void)defense::parse_defense_token("lockout(8"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout(x)"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout()8"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("Lock Out"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token(""), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout(1,)"), std::invalid_argument);
}

TEST(DefenseToken, CanonicalSpellingFillsRegistryDefaults) {
    const auto& registry = defense::default_registry();
    EXPECT_EQ(defense::canonical_token("", registry), "none");
    EXPECT_EQ(defense::canonical_token("none", registry), "none");
    EXPECT_EQ(defense::canonical_token("sanity", registry), "sanity");
    EXPECT_EQ(defense::canonical_token("lockout", registry), "lockout(32)");
    EXPECT_EQ(defense::canonical_token("lockout( 8 )", registry), "lockout(8)");
    EXPECT_EQ(defense::canonical_token("ratelimit(100)", registry), "ratelimit(100,64)");
    EXPECT_EQ(defense::canonical_token("noisyrefusal", registry), "noisyrefusal(0.5)");
    // Args %g would round to six significant digits keep every digit.
    EXPECT_EQ(defense::canonical_token("ratelimit(1234567,64)", registry),
              "ratelimit(1234567,64)");
    EXPECT_EQ(defense::canonical_token("noisyrefusal(0.1234567)", registry),
              "noisyrefusal(0.1234567)");
}

TEST(DefenseToken, UnknownNamesAndArityViolationsCarrySuggestions) {
    const auto& registry = defense::default_registry();
    try {
        (void)defense::canonical_token("lockotu", registry);
        FAIL() << "unknown defense accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("lockout"), std::string::npos); // did-you-mean
    }
    EXPECT_THROW((void)defense::canonical_token("sanity(1)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(1,2)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(0)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(1.5)", registry),
                 std::invalid_argument);
}

TEST(DefenseRegistry, DuplicateAddThrowsAndBuiltinsAreIdempotent) {
    defense::DefenseRegistry registry;
    defense::register_builtin_defenses(registry);
    const std::size_t size = registry.size();
    defense::register_builtin_defenses(registry); // add_or_replace: no growth
    EXPECT_EQ(registry.size(), size);
    EXPECT_THROW(registry.add({"none", "", "", 0, {}, {}, {}}), std::invalid_argument);
    EXPECT_GE(size, 7u); // none, sanity, crc, mac, lockout, ratelimit, noisyrefusal
}

// ---------------------------------------------------------------------------
// Middleware semantics
// ---------------------------------------------------------------------------

TEST(DefenseMiddleware, MacBindingRefusesEverythingButTheEnrolledBlob) {
    defense::DefenseContext ctx;
    ctx.enrolled = Nvm(std::vector<std::uint8_t>{0, 0xab, 0xcd});
    auto inner = std::make_shared<ScriptedOracle>();
    auto mac = defense::apply_defense("mac", AnyOracle(inner), ctx);

    std::vector<Probe> probes = {probe_with(0), probe_with(1), probe_with(0)};
    probes[1].helper.bytes()[2] ^= 0x80; // any bit flip breaks the binding
    EXPECT_EQ(mac.oracle.evaluate(probes), (std::vector<bool>{false, true, false}));
    EXPECT_EQ(mac.refused(), 1);
    EXPECT_FALSE(mac.locked());

    // The refused probe costs a query but no measurement.
    const OracleStats stats = mac.oracle.stats();
    EXPECT_EQ(stats.queries, 3);
    EXPECT_EQ(stats.measurements, 20);
    EXPECT_EQ(stats.refused, 1);
}

TEST(DefenseMiddleware, CrcRefusesTrailingGarbageBeforeTheDevice) {
    // Scripted canonical check: the canonical encoding is exactly 3 bytes.
    defense::DefenseContext ctx;
    ctx.canonical = [](const Nvm& nvm) { return nvm.bytes().size() == 3; };
    auto inner = std::make_shared<ScriptedOracle>();
    auto crc = defense::apply_defense("crc", AnyOracle(inner), ctx);

    std::vector<Probe> probes = {probe_with(0), probe_with(0), probe_with(1)};
    probes[1].helper.bytes().push_back(0xee); // trailing garbage
    EXPECT_EQ(crc.oracle.evaluate(probes), (std::vector<bool>{false, true, true}));
    EXPECT_EQ(crc.refused(), 1);
    EXPECT_FALSE(crc.locked());

    // One query, no measurement, and the inner oracle never saw the blob.
    const OracleStats stats = crc.oracle.stats();
    EXPECT_EQ(stats.queries, 3);
    EXPECT_EQ(stats.measurements, 20);
    EXPECT_EQ(stats.refused, 1);
    EXPECT_EQ(inner->stats().queries, 2);
}

TEST(DefenseMiddleware, LockoutBricksMidBatchAfterKFailures) {
    auto inner = std::make_shared<ScriptedOracle>();
    auto lockout = std::make_shared<defense::LockoutOracle>(AnyOracle(inner), 2);

    // Failures 1 and 2 trip the threshold; everything after is refused
    // without reaching the inner oracle — including the would-pass probe.
    std::vector<Probe> probes = {probe_with(1), probe_with(0), probe_with(1), probe_with(0),
                                 probe_with(1)};
    std::vector<bool> verdicts;
    lockout->evaluate(probes, verdicts);
    EXPECT_EQ(verdicts, (std::vector<bool>{true, false, true, true, true}));
    EXPECT_TRUE(lockout->locked());
    EXPECT_EQ(lockout->refused(), 2);
    EXPECT_EQ(inner->stats().queries, 3); // only the pre-brick probes measured

    // A bricked device stays bricked across batches.
    lockout->evaluate(probes, verdicts);
    EXPECT_EQ(verdicts, (std::vector<bool>(5, true)));
    EXPECT_EQ(lockout->refused(), 7);
}

TEST(DefenseMiddleware, RateLimitCapsBatchesAndLifetime) {
    auto inner = std::make_shared<ScriptedOracle>();
    auto limiter =
        std::make_shared<defense::RateLimitOracle>(AnyOracle(inner), /*max_queries=*/5,
                                                   /*max_batch=*/2);

    std::vector<Probe> batch(4, probe_with(0));
    std::vector<bool> verdicts;
    limiter->evaluate(batch, verdicts); // serves 2, refuses 2 (batch cap)
    EXPECT_EQ(verdicts, (std::vector<bool>{false, false, true, true}));
    EXPECT_FALSE(limiter->locked());
    limiter->evaluate(batch, verdicts); // serves 2 more (4 of 5 spent), refuses 2
    limiter->evaluate(batch, verdicts); // serves 1, lifetime exhausted
    EXPECT_EQ(verdicts, (std::vector<bool>{false, true, true, true}));
    EXPECT_TRUE(limiter->locked());
    limiter->evaluate(batch, verdicts); // everything refused now
    EXPECT_EQ(verdicts, (std::vector<bool>(4, true)));
    EXPECT_EQ(inner->stats().queries, 5);
    EXPECT_EQ(limiter->refused(), 2 + 2 + 3 + 4);
}

TEST(DefenseMiddleware, NoisyRefusalAnswersRefusalsFromADeterministicCoin) {
    const auto validator = [](const Nvm& nvm) {
        helperdata::SanityReport report;
        if (!nvm.bytes().empty() && nvm.bytes()[0] == 2) report.fail("forged");
        return report;
    };
    const auto run_with_seed = [&](std::uint64_t seed) {
        defense::DefenseContext ctx;
        ctx.validator = validator;
        ctx.seed = seed;
        auto inner = std::make_shared<ScriptedOracle>();
        auto noisy = defense::apply_defense("noisyrefusal(0.5)", AnyOracle(inner), ctx);
        std::vector<Probe> probes;
        for (int i = 0; i < 200; ++i) probes.push_back(probe_with(2));
        probes.push_back(probe_with(0)); // valid: forwarded, passes
        probes.push_back(probe_with(1)); // valid: forwarded, fails
        const std::vector<bool> verdicts = noisy.oracle.evaluate(probes);
        EXPECT_EQ(noisy.refused(), 200);
        EXPECT_EQ(inner->stats().queries, 2); // only the valid probes measured
        EXPECT_FALSE(verdicts[200]);
        EXPECT_TRUE(verdicts[201]);
        return verdicts;
    };

    const auto a = run_with_seed(99);
    const auto b = run_with_seed(99);
    EXPECT_EQ(a, b); // refusal answers are deterministic per seed
    // ... and genuinely mixed: a blanket-refusing validator would answer all
    // 200 with "failed"; the 0.5 coin must produce both outcomes.
    const int failures = static_cast<int>(std::count(a.begin(), a.begin() + 200, true));
    EXPECT_GT(failures, 50);
    EXPECT_LT(failures, 150);
    EXPECT_NE(run_with_seed(100), a); // another seed, another coin sequence
}

// ---------------------------------------------------------------------------
// Scenario-level classification + PR-4 equivalence
// ---------------------------------------------------------------------------

TEST(DefenseScenarios, OutcomeClassificationCoversTheMatrixColumns) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;

    params.defense = "mac";
    EXPECT_EQ(engine.run("seqpair/swap", params).outcome,
              core::AttackOutcome::refused_by_defense);

    params.defense = "lockout(8)";
    const auto locked = engine.run("seqpair/swap", params);
    EXPECT_EQ(locked.outcome, core::AttackOutcome::locked_out);
    EXPECT_GT(locked.refused, 0);

    params.defense = "sanity";
    EXPECT_EQ(engine.run("group/sortmerge", params).outcome,
              core::AttackOutcome::refused_by_defense);
    EXPECT_EQ(engine.run("group/sortmerge-adaptive", params).outcome,
              core::AttackOutcome::recovered);

    params.defense = "none";
    EXPECT_EQ(engine.run("group/sortmerge", params).outcome,
              core::AttackOutcome::recovered);
}

TEST(DefenseScenarios, MislabeledDefenseCombinationsFailLoudly) {
    // fuzzy/reference bypasses the oracle stack entirely and therefore
    // cannot honor any defense token: crossing it with one must throw,
    // never run undefended while the record claims the defense.
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.defense = "mac";
    EXPECT_THROW((void)engine.run("fuzzy/reference", params), std::invalid_argument);
    // The compatible spelling still runs.
    params.defense = "none";
    EXPECT_NO_THROW((void)engine.run("fuzzy/reference", params));
}

TEST(DefenseScenarios, SanityAxisRefusesDistillerSurfacesAtSeedFive) {
    // The pin the retired maskedchain/distiller-defended alias carried,
    // spelled as the defense axis: every probe dies at the check.
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.seed = 5;
    params.defense = "sanity";
    const auto axis = engine.run("maskedchain/distiller", params);
    EXPECT_EQ(axis.outcome, core::AttackOutcome::refused_by_defense);
    EXPECT_EQ(axis.queries, 256);
    EXPECT_EQ(axis.refused, 256);
    EXPECT_EQ(axis.measurements, 0);
    EXPECT_EQ(axis.accuracy, 0.75);
}

TEST(DefenseScenarios, DefenseNoneIsBitwiseTheUndefendedRun) {
    // The PR-4 baseline contract: naming the identity defense changes
    // nothing about the experiment — same queries, same RNG consumption,
    // same report, trial for trial.
    const core::CampaignRunner runner(attack::default_registry());
    core::CampaignConfig config;
    config.trials = 3;
    config.workers = 1;
    config.master_seed = 77;
    const auto baseline = runner.run("seqpair/swap", config);
    config.base.defense = "none";
    const auto with_none = runner.run("seqpair/swap", config);
    EXPECT_EQ(baseline.key_recovered_count, with_none.key_recovered_count);
    EXPECT_EQ(baseline.success_rate, with_none.success_rate);
    EXPECT_EQ(baseline.mean_accuracy, with_none.mean_accuracy);
    EXPECT_EQ(baseline.outcomes, with_none.outcomes);
    EXPECT_EQ(baseline.total_measurements, with_none.total_measurements);
    EXPECT_EQ(baseline.queries.mean, with_none.queries.mean);
    EXPECT_EQ(baseline.queries.stddev, with_none.queries.stddev);
    EXPECT_EQ(baseline.queries.min, with_none.queries.min);
    EXPECT_EQ(baseline.queries.max, with_none.queries.max);
    EXPECT_EQ(baseline.measurements.mean, with_none.measurements.mean);
}

// ---------------------------------------------------------------------------
// Section VII countermeasures against real devices: `mac` (the authenticated
// helper blob of Boyen et al. [1]) and `sanity` (structural validation plus
// the distiller-coefficient bound), each wrapped around make_oracle(victim)
// exactly as a scenario's oracle stack does.
// ---------------------------------------------------------------------------

/// What attack/scenarios.cpp's build_stack hands a defense: the
/// construction's validator and its honest enrolled blob.
template <core::Device Puf>
defense::DefenseContext context_for(const Puf& puf,
                                    const typename core::DeviceTraits<Puf>::Helper& enrolled) {
    defense::DefenseContext ctx;
    ctx.validator = attack::make_sanity_validator(puf);
    ctx.enrolled = core::DeviceTraits<Puf>::store(enrolled);
    return ctx;
}

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

group::GroupPufConfig group_config() {
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    return cfg;
}

using SeqVictim = attack::SeqPairingAttack::Victim;
using GroupVictim = attack::GroupBasedAttack::Victim;

TEST(SectionSevenDefenses, HonestSeqPairingBlobPassesSanityAndMac) {
    for (const auto& [chip_seed, enroll_seed] : {std::pair{901, 902}, std::pair{707, 708}}) {
        const sim::RoArray chip({16, 8}, sim::ProcessParams{}, chip_seed);
        const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
        rng::Xoshiro256pp rng(enroll_seed);
        const auto enrollment = puf.enroll(rng);
        const auto ctx = context_for(puf, enrollment.helper);
        const std::vector<Probe> honest(
            10, attack::make_probe<pairing::SeqPairingPuf>(enrollment.helper));
        for (const char* token : {"mac", "sanity"}) {
            SeqVictim victim(puf, enrollment.key, enroll_seed);
            auto applied = defense::apply_defense(token, attack::make_oracle(victim), ctx);
            EXPECT_EQ(applied.oracle.evaluate(honest), std::vector<bool>(10, false))
                << token << " on chip " << chip_seed;
            EXPECT_EQ(applied.refused(), 0);
            EXPECT_EQ(victim.queries(), 10);
        }
    }
}

TEST(SectionSevenDefenses, MacRefusesEveryByteFlipBeforeTheDevice) {
    for (const auto& [chip_seed, enroll_seed, stride_div, mask] :
         {std::tuple{903, 904, 11, 0x20}, std::tuple{707, 708, 7, 0x01}}) {
        const sim::RoArray chip({16, 8}, sim::ProcessParams{}, chip_seed);
        const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
        rng::Xoshiro256pp rng(enroll_seed);
        const auto enrollment = puf.enroll(rng);
        const Nvm blob = pairing::serialize(enrollment.helper);
        std::vector<Probe> tampered;
        for (std::size_t i = 0; i < blob.bytes().size();
             i += blob.bytes().size() / static_cast<std::size_t>(stride_div)) {
            Nvm flipped = blob;
            flipped.bytes()[i] ^= static_cast<std::uint8_t>(mask);
            tampered.push_back({std::move(flipped), std::nullopt});
        }
        SeqVictim victim(puf, enrollment.key, enroll_seed);
        auto mac = defense::apply_defense("mac", attack::make_oracle(victim),
                                          context_for(puf, enrollment.helper));
        EXPECT_EQ(mac.oracle.evaluate(tampered), std::vector<bool>(tampered.size(), true));
        EXPECT_EQ(mac.refused(), static_cast<std::int64_t>(tampered.size()));
        EXPECT_EQ(victim.queries(), 0) << "a refused blob never reaches the device";
    }
}

TEST(SectionSevenDefenses, MacRefusesSwapVariantsThatSanityAccepts) {
    // The Section VI-A manipulations: mac refuses every variant, while the
    // structural checks cannot see a swap (the pair set is unchanged).
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 905);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(906);
    const auto enrollment = puf.enroll(rng);
    std::vector<Probe> variants;
    for (int j = 1; j <= 5; ++j) {
        variants.push_back(attack::make_probe<pairing::SeqPairingPuf>(
            attack::SeqPairingAttack::make_swap_helper(enrollment.helper, puf.code(), 0, j,
                                                       puf.code().t())));
    }
    const auto ctx = context_for(puf, enrollment.helper);

    SeqVictim mac_victim(puf, enrollment.key, 906);
    auto mac = defense::apply_defense("mac", attack::make_oracle(mac_victim), ctx);
    EXPECT_EQ(mac.oracle.evaluate(variants), std::vector<bool>(5, true));
    EXPECT_EQ(mac.refused(), 5) << "every forged variant must die at the binding";
    EXPECT_EQ(mac_victim.queries(), 0);

    SeqVictim sanity_victim(puf, enrollment.key, 906);
    auto sanity = defense::apply_defense("sanity", attack::make_oracle(sanity_victim), ctx);
    (void)sanity.oracle.evaluate(variants);
    EXPECT_EQ(sanity.refused(), 0) << "swaps are invisible to structural checks";
    EXPECT_EQ(sanity_victim.queries(), 5);
}

TEST(SectionSevenDefenses, SanityRefusesRoReuseHelper) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 907);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(908);
    const auto enrollment = puf.enroll(rng);
    auto reused = enrollment.helper;
    reused.pairs[1] = reused.pairs[0]; // RO re-use
    SeqVictim victim(puf, enrollment.key, 908);
    auto sanity = defense::apply_defense("sanity", attack::make_oracle(victim),
                                         context_for(puf, enrollment.helper));
    EXPECT_TRUE(sanity.oracle.evaluate_one(attack::make_probe<pairing::SeqPairingPuf>(reused)));
    EXPECT_EQ(sanity.refused(), 1);
    EXPECT_EQ(victim.queries(), 0);
}

TEST(SectionSevenDefenses, HonestGroupBlobPassesSanityAndMac) {
    const sim::RoArray chip({10, 4}, quiet_params(), 911);
    const group::GroupBasedPuf puf(chip, group_config());
    rng::Xoshiro256pp rng(912);
    const auto enrollment = puf.enroll(rng);
    const auto ctx = context_for(puf, enrollment.helper);
    for (const char* token : {"mac", "sanity"}) {
        GroupVictim victim(puf, enrollment.key, 912);
        auto applied = defense::apply_defense(token, attack::make_oracle(victim), ctx);
        EXPECT_FALSE(applied.oracle.evaluate_one(
            attack::make_probe<group::GroupBasedPuf>(enrollment.helper)))
            << token;
        EXPECT_EQ(applied.refused(), 0);
    }
}

TEST(SectionSevenDefenses, SanityRefusesDistillerInjectionsAtTheCoefficientBound) {
    // Group sanity bounds |beta| by 2.5 * f_nominal (500 MHz at the default
    // 200 MHz): the Fig. 6a surfaces die there, with a strict partition.
    const sim::RoArray chip({10, 4}, quiet_params(), 913);
    const group::GroupBasedPuf puf(chip, group_config());
    rng::Xoshiro256pp rng(914);
    const auto enrollment = puf.enroll(rng);
    const auto instance = attack::GroupBasedAttack::build_comparison(
        enrollment.helper, chip.geometry(), puf.code(), 3, 17, 1000.0);
    const auto ctx = context_for(puf, enrollment.helper);
    GroupVictim victim(puf, 914);
    auto sanity = defense::apply_defense("sanity", attack::make_oracle(victim), ctx);
    for (int h = 0; h < 2; ++h) {
        EXPECT_TRUE(helperdata::check_group_assignment(instance.group_of, chip.count()).ok);
        const Probe probe = attack::make_probe<group::GroupBasedPuf>(instance.helper[h],
                                                                     instance.expected_key[h]);
        const auto report = ctx.validator(probe.helper);
        ASSERT_FALSE(report.ok);
        EXPECT_NE(report.violations.front().find("coefficient"), std::string::npos)
            << report.violations.front();
        EXPECT_TRUE(sanity.oracle.evaluate_one(probe));
    }
    EXPECT_EQ(sanity.refused(), 2);
    // The honest helper sails through the same check.
    EXPECT_TRUE(ctx.validator(ctx.enrolled).ok);
    EXPECT_EQ(victim.queries(), 0);
}

TEST(SectionSevenDefenses, MacLeavesTheGroupAttackWithoutAKey) {
    // The Section VI-C comparison hypotheses never reach a mac-bound device...
    const sim::RoArray chip({10, 4}, quiet_params(), 915);
    const group::GroupBasedPuf puf(chip, group_config());
    rng::Xoshiro256pp rng(916);
    const auto enrollment = puf.enroll(rng);
    const auto instance = attack::GroupBasedAttack::build_comparison(
        enrollment.helper, chip.geometry(), puf.code(), 0, 11,
        attack::GroupBasedAttack::Config{}.steep_amp);
    GroupVictim victim(puf, 917);
    auto mac = defense::apply_defense("mac", attack::make_oracle(victim),
                                      context_for(puf, enrollment.helper));
    for (int h = 0; h < 2; ++h) {
        EXPECT_TRUE(mac.oracle.evaluate_one(attack::make_probe<group::GroupBasedPuf>(
            instance.helper[h], instance.expected_key[h])));
    }
    EXPECT_EQ(mac.refused(), 2);
    EXPECT_EQ(victim.queries(), 0);

    // ... so the full scenario ends refused, with no key.
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.defense = "mac";
    const auto report = engine.run("group/sortmerge", params);
    EXPECT_EQ(report.outcome, core::AttackOutcome::refused_by_defense);
    EXPECT_FALSE(report.key_recovered);
    EXPECT_EQ(report.measurements, 0);
}

} // namespace
