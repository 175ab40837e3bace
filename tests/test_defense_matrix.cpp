// The attack x defense outcome matrix, golden-pinned: a fixed spec over
// three master seeds must reproduce tests/data/golden_matrix.jsonl byte for
// byte (deterministic prefixes), exactly like golden_smoke.jsonl pins the
// PR-3 record schema. Changing the defense registry's builtin defaults, the
// adaptive fallback logic, the middleware refusal accounting or the record
// schema will (and should) fail this test — regenerate the golden file with
// `ropuf run` and inspect the diff before committing it. The crc and
// noisyrefusal columns, which the golden file does not cover, are pinned
// inline below.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

// Three master seeds x five defenses x six scenarios (every construction
// plus the flagship adaptive variant), two trials per cell: small enough to
// run in a couple of seconds, wide enough that every outcome class appears.
constexpr const char* kMatrixSpecText =
    "name = golden_matrix\n"
    "scenarios = seqpair/swap, tempaware/substitution, group/sortmerge, "
    "maskedchain/distiller, overlapchain/distiller, group/sortmerge-adaptive\n"
    "defense = none, sanity, mac, lockout(8), ratelimit(200,64)\n"
    "trials = 2\n"
    "master_seed = 11, 42, 1337\n";

std::string temp_path(const char* stem) {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string> deterministic_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.emplace_back(xp::deterministic_prefix(line));
    }
    return lines;
}

void run_spec_into(const char* spec_text, std::size_t jobs, const std::string& path) {
    const xp::SweepSpec spec = xp::parse_spec(spec_text);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), jobs);
    xp::ResultWriter writer(path, /*truncate=*/true);
    xp::RunOptions opts;
    opts.workers = 1;
    xp::execute_plan(plan, attack::default_registry(), {}, writer, opts);
}

TEST(DefenseMatrix, GoldenFileReproducesByteForByte) {
    const std::string fresh = temp_path("matrix");
    run_spec_into(kMatrixSpecText, 6u * 5u * 3u, fresh);

    const std::string golden_path =
        std::string(ROPUF_SOURCE_DIR) + "/tests/data/golden_matrix.jsonl";
    const auto golden = deterministic_lines(golden_path);
    const auto current = deterministic_lines(fresh);
    ASSERT_EQ(golden.size(), current.size())
        << "golden record count changed — regenerate tests/data/golden_matrix.jsonl";
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(current[i], golden[i]) << "record " << i << " drifted from the golden file";
    }
    std::remove(fresh.c_str());
}

TEST(DefenseMatrix, GoldenFileCoversEveryOutcomeClass) {
    // The committed matrix is only a meaningful regression anchor while it
    // actually exercises the outcome space: full recoveries in the
    // undefended column, refusals under mac/sanity, lockouts under the
    // response-side defenses — and one defense the adaptive attack beats.
    const std::string golden_path =
        std::string(ROPUF_SOURCE_DIR) + "/tests/data/golden_matrix.jsonl";
    const auto records = xp::read_results(golden_path);
    ASSERT_FALSE(records.empty());

    int recovered = 0;
    int refused = 0;
    int locked = 0;
    std::set<std::string> defenses;
    std::set<std::string> constructions;
    bool adaptive_beats_sanity = false;
    for (const auto& r : records) {
        recovered += r.outcomes.recovered;
        refused += r.outcomes.refused_by_defense;
        locked += r.outcomes.locked_out;
        defenses.insert(r.params.defense);
        constructions.insert(r.scenario.substr(0, r.scenario.find('/')));
        if (r.scenario == "group/sortmerge-adaptive" && r.params.defense == "sanity" &&
            r.key_recovered_count == r.trials) {
            adaptive_beats_sanity = true;
        }
    }
    EXPECT_GT(recovered, 0);
    EXPECT_GT(refused, 0);
    EXPECT_GT(locked, 0);
    EXPECT_GE(defenses.size(), 5u);
    EXPECT_EQ(constructions.size(), 5u); // all five attacked constructions
    EXPECT_TRUE(adaptive_beats_sanity);
}

// The two fig_matrix columns golden_matrix.jsonl leaves out. Recorded from
// a run of this spec; a change to the crc or noisyrefusal middleware that
// moves a single verdict moves these numbers.
constexpr const char* kFilterColumnsSpecText =
    "name = filter_columns\n"
    "scenarios = group/sortmerge, overlapchain/distiller, maskedchain/distiller-adaptive\n"
    "defense = crc, noisyrefusal(0.5)\n"
    "trials = 2\n"
    "master_seed = 42\n";

struct PinnedCell {
    const char* scenario;
    const char* defense;
    core::OutcomeCounts outcomes;
    double queries_min;
    double queries_max;
    std::int64_t total_measurements;
    double measurements_min;
    double measurements_max;
    double success_rate;
};

TEST(DefenseMatrix, CrcAndNoisyRefusalColumnsArePinned) {
    // {recovered, gave_up, budget_exhausted, refused_by_defense, locked_out}
    const PinnedCell expected[] = {
        {"group/sortmerge", "crc", {2, 0, 0, 0, 0}, 154, 163, 12680, 6160, 6520, 1.0},
        {"group/sortmerge", "noisyrefusal(0.5)", {0, 0, 0, 2, 0}, 158, 173, 0, 0, 0, 0.0},
        {"overlapchain/distiller", "crc", {2, 0, 0, 0, 0}, 236, 244, 19200, 9440, 9760, 1.0},
        {"overlapchain/distiller", "noisyrefusal(0.5)", {0, 0, 0, 2, 0}, 182, 211, 0, 0, 0,
         0.0},
        {"maskedchain/distiller-adaptive", "crc", {2, 0, 0, 0, 0}, 32, 34, 10560, 5120, 5440,
         1.0},
        {"maskedchain/distiller-adaptive", "noisyrefusal(0.5)", {0, 0, 0, 2, 0}, 31, 39, 0, 0,
         0, 0.0},
    };

    const std::string path = temp_path("filter_columns");
    run_spec_into(kFilterColumnsSpecText, std::size(expected), path);
    const auto records = xp::read_results(path);
    ASSERT_EQ(records.size(), std::size(expected));
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        const auto& e = expected[i];
        SCOPED_TRACE(std::string(e.scenario) + " x " + e.defense);
        EXPECT_EQ(r.scenario, e.scenario);
        EXPECT_EQ(r.params.defense, e.defense);
        EXPECT_EQ(r.outcomes, e.outcomes);
        EXPECT_EQ(r.queries.min, e.queries_min);
        EXPECT_EQ(r.queries.max, e.queries_max);
        EXPECT_EQ(r.total_measurements, e.total_measurements);
        EXPECT_EQ(r.measurements.min, e.measurements_min);
        EXPECT_EQ(r.measurements.max, e.measurements_max);
        EXPECT_EQ(r.success_rate, e.success_rate);
    }
    std::remove(path.c_str());
}

} // namespace
