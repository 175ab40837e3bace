// Sweep-spec parsing: list/range expansion, default sentinels, malformed
// input rejection, text/JSON input parity, canonical-form round trips and
// spec-hash stability, and planner expansion against the live registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;
using xp::parse_spec;
using xp::plan_spec;
using xp::SpecError;
using xp::SweepSpec;

// ---------------------------------------------------------------------------
// Parsing and expansion
// ---------------------------------------------------------------------------

TEST(SweepSpec, ParsesListsRangesCommentsAndDefaults) {
    const SweepSpec spec = parse_spec(
        "# attack cost vs noise\n"
        "name = demo\n"
        "scenarios = seqpair/swap, group/sortmerge   # inline comment\n"
        "sigma_noise_mhz = 0.5:1.5:0.5\n"
        "geometry = 16x8, 24x12\n"
        "trials = 5\n");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.scenarios, (std::vector<std::string>{"seqpair/swap", "group/sortmerge"}));
    EXPECT_EQ(spec.sigma_noise_mhz, (std::vector<double>{0.5, 1.0, 1.5}));
    EXPECT_EQ(spec.geometry, (std::vector<std::pair<int, int>>{{16, 8}, {24, 12}}));
    EXPECT_EQ(spec.trials, std::vector<int>{5});
    // Untouched axes hold exactly their default sentinel.
    EXPECT_EQ(spec.ambient_c, std::vector<double>{25.0});
    EXPECT_EQ(spec.majority_wins, std::vector<int>{0});
    EXPECT_EQ(spec.ecc, (std::vector<std::pair<int, int>>{{0, 0}}));
    EXPECT_EQ(spec.master_seed, std::vector<std::uint64_t>{1});
    EXPECT_FALSE(spec.all_scenarios);
}

TEST(SweepSpec, IntAndSeedRangesAreInclusive) {
    const SweepSpec spec = parse_spec(
        "name = r\n"
        "scenarios = all\n"
        "majority_wins = 1:7:2\n"
        "master_seed = 10:30:10\n");
    EXPECT_EQ(spec.majority_wins, (std::vector<int>{1, 3, 5, 7}));
    EXPECT_EQ(spec.master_seed, (std::vector<std::uint64_t>{10, 20, 30}));
    EXPECT_TRUE(spec.all_scenarios);
}

TEST(SweepSpec, SeedRangeStepPastStopStopsAtStop) {
    const SweepSpec spec = parse_spec(
        "name = r\nscenarios = all\nmaster_seed = 5:8:10\n");
    EXPECT_EQ(spec.master_seed, std::vector<std::uint64_t>{5});
}

TEST(SweepSpec, EccTokensKeepTheirInnerComma) {
    const SweepSpec spec = parse_spec(
        "name = e\nscenarios = all\necc = bch(6,3), bch(7,5)\n");
    EXPECT_EQ(spec.ecc, (std::vector<std::pair<int, int>>{{6, 3}, {7, 5}}));
}

TEST(SweepSpec, JsonInputMatchesTextInput) {
    const SweepSpec text = parse_spec(
        "name = parity\n"
        "scenarios = seqpair/swap\n"
        "sigma_noise_mhz = 0.5:1.5:0.5\n"
        "trials = 7\n");
    const SweepSpec json = parse_spec(
        R"({"name":"parity","scenarios":"seqpair/swap",)"
        R"("sigma_noise_mhz":"0.5:1.5:0.5","trials":7})");
    EXPECT_EQ(xp::canonical_text(text), xp::canonical_text(json));
    EXPECT_EQ(xp::spec_hash(text), xp::spec_hash(json));
}

TEST(SweepSpec, JsonArrayValuesExpand) {
    const SweepSpec spec = parse_spec(
        R"({"name":"arr","scenarios":["seqpair/swap","group/sortmerge"],)"
        R"("sigma_noise_mhz":[0.5,1.5]})");
    EXPECT_EQ(spec.scenarios, (std::vector<std::string>{"seqpair/swap", "group/sortmerge"}));
    EXPECT_EQ(spec.sigma_noise_mhz, (std::vector<double>{0.5, 1.5}));
}

// ---------------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------------

TEST(SweepSpec, RejectsMalformedRanges) {
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=1:2\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=1:2:0.5:9\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=1:2:0\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=2:1:0.5\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ntrials=5:1:1\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nmaster_seed=9:3:1\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=abc\n"), SpecError);
}

TEST(SweepSpec, RejectsUnknownAndDuplicateKeys) {
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nnosuchkey=1\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nname=y\nscenarios=all\n"), SpecError);
    // The JSON input path must enforce the same duplicate-key contract.
    EXPECT_THROW(parse_spec(R"({"name":"x","scenarios":"all","trials":5,"trials":9})"),
                 SpecError);
    try {
        parse_spec("name=x\nscenarios=all\nnosuchkey=1\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(std::string(e.what()).find("nosuchkey"), std::string::npos);
    }
    // A near-miss key earns a did-you-mean suggestion.
    try {
        parse_spec("name=x\nscenarios=all\nquery_buget=10\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'query_budget'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SweepSpec, QueryBudgetAxisParsesAliasesAndExpands) {
    const auto spec = parse_spec("name=b\nscenarios=all\nquery_budget=10:30:10\n");
    EXPECT_EQ(spec.query_budget, (std::vector<int>{10, 20, 30}));
    // `budget` is an accepted alias that canonicalizes to query_budget.
    const auto aliased = parse_spec("name=b\nscenarios=all\nbudget=10,20,30\n");
    EXPECT_EQ(xp::spec_hash(aliased), xp::spec_hash(spec));
    EXPECT_NE(xp::canonical_text(spec).find("query_budget=10,20,30"), std::string::npos);
    // The alias and the canonical key are one key for duplicate detection.
    EXPECT_THROW(parse_spec("name=b\nscenarios=all\nbudget=1\nquery_budget=2\n"), SpecError);
    // The default axis is omitted from the canonical form: adding the axis
    // did not reshuffle any pre-existing spec hash.
    EXPECT_EQ(xp::canonical_text(parse_spec("name=b\nscenarios=all\n"))
                  .find("query_budget"),
              std::string::npos);
    EXPECT_THROW(parse_spec("name=b\nscenarios=all\nquery_budget=-1\n"), SpecError);
}

TEST(SweepSpec, DefenseAxisParsesNormalizesAndExpands) {
    const SweepSpec spec = parse_spec(
        "name = d\n"
        "scenarios = seqpair/swap\n"
        "defense = none, sanity, lockout( 8 ), ratelimit(200,64)\n"
        "trials = 1\n");
    EXPECT_EQ(spec.defense, (std::vector<std::string>{"none", "sanity", "lockout(8)",
                                                      "ratelimit(200,64)"}));
    // Canonical text carries the normalized tokens; the default axis is
    // omitted, so pre-defense specs keep their hashes.
    EXPECT_NE(xp::canonical_text(spec).find("defense=none,sanity,lockout(8)"),
              std::string::npos);
    const SweepSpec plain = parse_spec("name = d\nscenarios = seqpair/swap\ntrials = 1\n");
    EXPECT_EQ(xp::canonical_text(plain).find("defense"), std::string::npos);

    // Malformed tokens fail at parse time with the spec line attached.
    EXPECT_THROW(parse_spec("name=d\nscenarios=seqpair/swap\ndefense=lockout(8\n"),
                 SpecError);
    EXPECT_THROW(parse_spec("name=d\nscenarios=seqpair/swap\ndefense=lockout(x)\n"),
                 SpecError);

    // Planner: defaults are filled into the job params and the plan hash,
    // unknown names and bad values die at plan time with a did-you-mean.
    const auto& registry = attack::default_registry();
    const SweepSpec shorthand = parse_spec(
        "name=d\nscenarios=seqpair/swap\ndefense=lockout\ntrials=1\n");
    const xp::Plan plan = plan_spec(shorthand, registry);
    ASSERT_EQ(plan.jobs.size(), 1u);
    EXPECT_EQ(plan.jobs[0].params.defense, "lockout(32)");
    const SweepSpec longhand = parse_spec(
        "name=d\nscenarios=seqpair/swap\ndefense=lockout(32)\ntrials=1\n");
    EXPECT_EQ(plan.hash, plan_spec(longhand, registry).hash);
    EXPECT_THROW(
        plan_spec(parse_spec("name=d\nscenarios=seqpair/swap\ndefense=lockotu\n"), registry),
        SpecError);
    EXPECT_THROW(
        plan_spec(parse_spec("name=d\nscenarios=seqpair/swap\ndefense=lockout(0)\n"),
                  registry),
        SpecError);

    // Scenario x defense incompatibility dies at PLAN time — a mid-sweep
    // abort would leave resume permanently wedged on the same job.
    EXPECT_THROW(
        plan_spec(parse_spec("name=d\nscenarios=fuzzy/reference\ndefense=mac\n"), registry),
        SpecError);
    EXPECT_NO_THROW(
        plan_spec(parse_spec("name=d\nscenarios=fuzzy/reference\ndefense=none\n"), registry));
}

TEST(SweepSpec, RejectsEmptyGridsAndMissingSelectors) {
    // Empty axis value.
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ntrials=\n"), SpecError);
    // Only separators: the axis expands to zero values.
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ntrials=,\n"), SpecError);
    // No experiment selector at all.
    EXPECT_THROW(parse_spec("name=x\ntrials=3\n"), SpecError);
    // Missing name.
    EXPECT_THROW(parse_spec("scenarios=all\n"), SpecError);
    // Whole-file garbage.
    EXPECT_THROW(parse_spec("name x\n"), SpecError);
}

TEST(SweepSpec, RejectsBadGeometryEccAndValues) {
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ngeometry=16\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ngeometry=0x8\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ngeometry=16x8x2\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\necc=rs(6,3)\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\necc=bch(6)\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\necc=bch(1,3)\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ntrials=0\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nmajority_wins=-1\n"), SpecError);
    // Out-of-int values must error, never wrap through the narrowing cast
    // (4294967297 would silently become trials = 1).
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ntrials=4294967297\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\ngeometry=4294967297x8\n"), SpecError);
    EXPECT_THROW(parse_spec("name=bad name!\nscenarios=all\n"), SpecError);
    // A non-finite axis value would reach its record as `nan`, which no
    // JSON reader takes back.
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nsigma_noise_mhz=nan\n"), SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nambient_c=inf\n"), SpecError);
}

TEST(SweepSpec, SeedsBeyondU64AreErrorsNotClampedAliases) {
    // A clamped or wrapped seed would alias another spec's hash (here that
    // of master_seed = 18446744073709551615), so the value is an error.
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nmaster_seed=18446744073709551658\n"),
                 SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nmaster_seed=99999999999999999999999\n"),
                 SpecError);
    EXPECT_THROW(parse_spec("name=x\nscenarios=all\nmaster_seed=1:18446744073709551616:1\n"),
                 SpecError);
    try {
        (void)parse_spec("name=x\nscenarios=all\nmaster_seed=18446744073709551616\n");
        ADD_FAILURE() << "2^64 accepted as a seed";
    } catch (const SpecError& e) {
        EXPECT_EQ(e.line(), 3) << e.what();
    }
    const SweepSpec widest =
        parse_spec("name=x\nscenarios=all\nmaster_seed=18446744073709551615\n");
    EXPECT_EQ(widest.master_seed, std::vector<std::uint64_t>{18446744073709551615ull});
}

TEST(SweepSpec, OversizedAxesAndGridsAreLineNumberedErrors) {
    const auto error_line = [](const std::string& text) {
        try {
            (void)parse_spec(text);
        } catch (const SpecError& e) {
            return e.line();
        }
        return -1; // accepted
    };
    // One value past the cap, for each kind of range.
    EXPECT_EQ(error_line("name=x\nscenarios=all\ntrials=1:100001:1\n"), 3);
    EXPECT_EQ(error_line("name=x\nscenarios=all\nmaster_seed=0:100000:1\n"), 3);
    EXPECT_EQ(error_line("name=x\nscenarios=all\nsigma_noise_mhz=0:100000:1\n"), 3);
    // Ranges that would exhaust memory fail before they expand.
    EXPECT_EQ(error_line("name=x\nscenarios=all\ntrials=1:100000000:1\n"), 3);
    EXPECT_EQ(error_line("name=x\nscenarios=all\nmaster_seed=0:18446744073709551615:1\n"), 3);
    EXPECT_EQ(error_line("name=x\nscenarios=all\nambient_c=0:1:1e-300\n"), 3);
    EXPECT_THROW(parse_spec(R"({"name":"x","scenarios":"all","trials":"1:100000000:1"})"),
                 SpecError);
    // Axes within the cap whose product is not: the line that crosses it.
    EXPECT_EQ(error_line("name=x\nscenarios=all\nsigma_noise_mhz=1:1000:1\n"
                         "trials=1:1000:1\n"),
              4);
    // The cap itself is a valid axis.
    EXPECT_EQ(parse_spec("name=x\nscenarios=all\ntrials=1:100000:1\n").trials.size(),
              xp::kMaxGridPoints);
}

TEST(SweepSpec, PlannerRejectsGridsThatResolvedScenariosPushPastTheCap) {
    const auto& registry = attack::default_registry();
    ASSERT_GT(registry.size(), 5u);
    const SweepSpec spec = parse_spec("name=x\nscenarios=all\ntrials=1:20000:1\n");
    EXPECT_THROW((void)plan_spec(spec, registry), SpecError);
    const SweepSpec one = parse_spec("name=x\nscenarios=seqpair/swap\ntrials=1:20000:1\n");
    EXPECT_EQ(plan_spec(one, registry).jobs.size(), 20000u);
}

TEST(SpecGrammar, SharedLineReaderSplitsTrimsAndRejects) {
    const auto lines = xp::read_spec_lines(
        "# header\n"
        "  alpha = 1, 2   # trailing comment\n"
        "\n"
        "beta=x=y\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].key, "alpha");
    EXPECT_EQ(lines[0].value, "1, 2");
    EXPECT_EQ(lines[0].line, 2);
    EXPECT_EQ(lines[1].key, "beta");
    EXPECT_EQ(lines[1].value, "x=y"); // split at the first '='
    EXPECT_EQ(lines[1].line, 4);
    for (const char* bad : {"alpha\n", "alpha =\n", "alpha = # nothing\n",
                            "alpha = 1\nalpha = 2\n"}) {
        EXPECT_THROW((void)xp::read_spec_lines(bad), SpecError) << bad;
    }
    try {
        (void)xp::read_spec_lines("a = 1\n\nb = 2\na = 3\n");
        ADD_FAILURE() << "duplicate key accepted";
    } catch (const SpecError& e) {
        EXPECT_EQ(e.line(), 4) << e.what();
    }
}

TEST(SpecGrammar, ScalarParsersRejectInsteadOfClampingOrWrapping) {
    EXPECT_EQ(xp::parse_u64("18446744073709551615", 1), 18446744073709551615ull);
    EXPECT_EQ(xp::parse_u64("00042", 1), 42u);
    for (const char* bad : {"", "-1", "+1", "1.0", "0x10", "18446744073709551616", "1 2"}) {
        EXPECT_THROW((void)xp::parse_u64(bad, 1), SpecError) << bad;
    }
    EXPECT_EQ(xp::parse_int("-7", -10, 10, 1), -7);
    EXPECT_EQ(xp::parse_int("0000000000000000000000010", 0, 10, 1), 10);
    for (const char* bad : {"", "-", "11", "-11", "+3", "3x", "99999999999999999999999"}) {
        EXPECT_THROW((void)xp::parse_int(bad, -10, 10, 1), SpecError) << bad;
    }
    EXPECT_EQ(xp::parse_double("-2.5", 1), -2.5);
    EXPECT_THROW((void)xp::parse_double("-2.5", 1, /*non_negative=*/true), SpecError);
    for (const char* bad : {"nan", "inf", "-inf", "1e999", "1.5mhz", ""}) {
        EXPECT_THROW((void)xp::parse_double(bad, 1), SpecError) << bad;
    }
    EXPECT_EQ(xp::parse_geometry(" 16 x 8 ", 100, 1), (std::pair<int, int>{16, 8}));
    EXPECT_THROW((void)xp::parse_geometry("101x8", 100, 1), SpecError);
}

// ---------------------------------------------------------------------------
// Canonical form & hashing
// ---------------------------------------------------------------------------

TEST(SweepSpec, RangeAndListSpellingsHashIdentically) {
    const SweepSpec ranged = parse_spec(
        "name=h\nscenarios=seqpair/swap\nsigma_noise_mhz=0.5:1.5:0.5\n");
    const SweepSpec listed = parse_spec(
        "name=h\nscenarios=seqpair/swap\nsigma_noise_mhz=0.5, 1.0, 1.5\n");
    EXPECT_EQ(xp::spec_hash(ranged), xp::spec_hash(listed));
}

TEST(SweepSpec, CanonicalTextRoundTrips) {
    const SweepSpec spec = parse_spec(
        "name = rt\n"
        "scenarios = seqpair/swap, fuzzy/reference\n"
        "geometry = 16x8\n"
        "sigma_noise_mhz = 0.25, 0.5\n"
        "ambient_c = -20:85:52.5\n"
        "majority_wins = 3\n"
        "ecc = bch(6,3)\n"
        "trials = 2\n"
        "master_seed = 5, 6\n");
    const std::string canon = xp::canonical_text(spec);
    const SweepSpec reparsed = parse_spec(canon);
    EXPECT_EQ(xp::canonical_text(reparsed), canon);
    EXPECT_EQ(xp::spec_hash(reparsed), xp::spec_hash(spec));
}

TEST(SweepSpec, HashIsStableAcrossFormattingAndSensitiveToContent) {
    const SweepSpec a = parse_spec("name=s\nscenarios=seqpair/swap\ntrials=7\n");
    const SweepSpec b = parse_spec("# hi\nname  =  s\n\nscenarios=seqpair/swap\ntrials = 7\n");
    const SweepSpec c = parse_spec("name=s\nscenarios=seqpair/swap\ntrials=8\n");
    EXPECT_EQ(xp::spec_hash(a), xp::spec_hash(b));
    EXPECT_NE(xp::spec_hash(a), xp::spec_hash(c));
    EXPECT_EQ(xp::spec_hash(a).size(), 16u);
}

TEST(SweepSpec, DefenseArgsBeyondSixDigitsKeepDistinctHashes) {
    // Canonical tokens once kept only %g's six significant digits, so these
    // two specs shared a hash and both ran as ratelimit(1234570,64).
    const auto& registry = attack::default_registry();
    const SweepSpec a =
        parse_spec("name=r\nscenarios=seqpair/swap\ndefense=ratelimit(1234567,64)\n");
    const SweepSpec b =
        parse_spec("name=r\nscenarios=seqpair/swap\ndefense=ratelimit(1234568,64)\n");
    EXPECT_NE(xp::spec_hash(a), xp::spec_hash(b));
    const xp::Plan plan_a = plan_spec(a, registry);
    const xp::Plan plan_b = plan_spec(b, registry);
    EXPECT_NE(plan_a.hash, plan_b.hash);
    ASSERT_EQ(plan_a.jobs.size(), 1u);
    EXPECT_EQ(plan_a.jobs[0].params.defense, "ratelimit(1234567,64)");
    EXPECT_EQ(plan_b.jobs[0].params.defense, "ratelimit(1234568,64)");
}

TEST(SweepSpec, Fnv1aMatchesKnownVector) {
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(xp::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(xp::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

// ---------------------------------------------------------------------------
// Planner expansion
// ---------------------------------------------------------------------------

TEST(Planner, ExpandsTheFullCartesianGridInFixedOrder) {
    const SweepSpec spec = parse_spec(
        "name = grid\n"
        "scenarios = seqpair/swap, group/sortmerge\n"
        "sigma_noise_mhz = 0.02, 0.05\n"
        "trials = 2, 3\n");
    const xp::Plan plan = plan_spec(spec, attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), 8u); // 2 scenarios x 2 sigma x 2 trials
    EXPECT_EQ(plan.hash, xp::spec_hash(spec));
    // Scenario is the outermost axis; master_seed/trials are innermost.
    EXPECT_EQ(plan.jobs[0].scenario, "seqpair/swap");
    EXPECT_EQ(plan.jobs[3].scenario, "seqpair/swap");
    EXPECT_EQ(plan.jobs[4].scenario, "group/sortmerge");
    EXPECT_EQ(plan.jobs[0].trials, 2);
    EXPECT_EQ(plan.jobs[1].trials, 3);
    EXPECT_DOUBLE_EQ(plan.jobs[0].params.sigma_noise_mhz, 0.02);
    EXPECT_DOUBLE_EQ(plan.jobs[2].params.sigma_noise_mhz, 0.05);
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        EXPECT_EQ(plan.jobs[i].index, static_cast<int>(i));
        EXPECT_EQ(plan.jobs[i].id, plan.hash + "-0000" + std::to_string(i));
    }
}

TEST(Planner, JobSeedsFollowTheSplitStreamSchedule) {
    const SweepSpec spec = parse_spec(
        "name = seeds\nscenarios = seqpair/swap\nsigma_noise_mhz = 0.02,0.05,0.08\n"
        "master_seed = 9\n");
    const xp::Plan plan = plan_spec(spec, attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), 3u);
    for (const auto& job : plan.jobs) {
        EXPECT_EQ(job.root_seed, 9u);
        EXPECT_EQ(job.campaign_seed, core::CampaignRunner::job_seed(9, job.index));
    }
    // Distinct jobs get distinct campaign seeds.
    EXPECT_NE(plan.jobs[0].campaign_seed, plan.jobs[1].campaign_seed);
    EXPECT_NE(plan.jobs[1].campaign_seed, plan.jobs[2].campaign_seed);
}

TEST(Planner, ResolvesConstructionsAndRejectsUnknownNames) {
    const auto& registry = attack::default_registry();
    const SweepSpec by_kind = parse_spec("name=k\nconstructions=group\ntrials=1\n");
    const auto names = xp::resolve_scenarios(by_kind, registry);
    EXPECT_NE(std::find(names.begin(), names.end(), "group/sortmerge"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "group/exhaustive"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "group/sortmerge-adaptive"), names.end());
    EXPECT_EQ(names.size(), 3u);

    EXPECT_THROW(
        plan_spec(parse_spec("name=u\nscenarios=no/such\n"), registry), SpecError);
    EXPECT_THROW(
        plan_spec(parse_spec("name=u\nconstructions=nosuch\n"), registry), SpecError);
}

TEST(Planner, AllSelectsEveryRegisteredScenario) {
    const auto& registry = attack::default_registry();
    const SweepSpec spec = parse_spec("name=a\nscenarios=all\ntrials=1\n");
    const xp::Plan plan = plan_spec(spec, registry);
    EXPECT_EQ(plan.jobs.size(), registry.size());
}

// The plan hash must pin the *resolved* grid: `scenarios = all` against a
// grown registry is a different experiment, so its job IDs must not collide
// with records from the old registry.
TEST(Planner, HashCapturesResolvedScenarioSelectors) {
    const auto& registry = attack::default_registry();
    const SweepSpec all = parse_spec("name=a\nscenarios=all\ntrials=1\n");
    const xp::Plan all_plan = plan_spec(all, registry);
    // The literal text hash ignores the registry; the plan hash must not.
    EXPECT_NE(all_plan.hash, xp::spec_hash(all));
    // It equals the hash of the same spec with the scenario list spelled out.
    std::string explicit_text = "name=a\nscenarios=";
    const auto resolved = xp::resolve_scenarios(all, registry);
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (i > 0) explicit_text += ',';
        explicit_text += resolved[i];
    }
    explicit_text += "\ntrials=1\n";
    const xp::Plan explicit_plan = plan_spec(parse_spec(explicit_text), registry);
    EXPECT_EQ(all_plan.hash, explicit_plan.hash);
    // For explicit scenario lists, plan hash == literal spec hash.
    const SweepSpec listed = parse_spec("name=a\nscenarios=seqpair/swap\ntrials=1\n");
    EXPECT_EQ(plan_spec(listed, registry).hash, xp::spec_hash(listed));
}

// ---------------------------------------------------------------------------
// The committed spec files must stay parseable and plannable.
// ---------------------------------------------------------------------------

TEST(Specs, CommittedSpecFilesParseAndPlan) {
    const auto& registry = attack::default_registry();
    const struct {
        const char* file;
        std::size_t jobs;
    } expected[] = {
        {"fig1_array_size.spec", 4},
        {"fig5_failure_pdf.spec", 12},
        {"fig7_fuzzy.spec", 6},
        {"fig_budget_curve.spec", 48},
        {"fig_matrix.spec", 56},
        {"paper_all.spec", registry.size()},
        {"smoke.spec", 4},
    };
    for (const auto& e : expected) {
        const std::string path = std::string(ROPUF_SOURCE_DIR) + "/specs/" + e.file;
        const SweepSpec spec = xp::load_spec_file(path);
        const xp::Plan plan = plan_spec(spec, registry);
        EXPECT_EQ(plan.jobs.size(), e.jobs) << e.file;
    }
}

TEST(Specs, MissingFileThrows) {
    EXPECT_THROW(xp::load_spec_file("/nonexistent/nope.spec"), SpecError);
}

} // namespace
