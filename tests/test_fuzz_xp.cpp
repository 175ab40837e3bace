// Fuzzing the spec/JSON/record parsers with the pt_util generator harness:
// structured mutations of the committed specs/*.spec files (sweep and fleet
// specs, each mutation fed to both spec parsers), mutated JSONL result
// records (an xp job line and a fleet shard line, each fed to both record
// decoders), and raw garbage. The contract under test is total
// robustness — every input either parses or throws a typed exception
// (SpecError / JsonError / std::logic_error); anything else (crash, UB,
// runaway allocation, foreign exception type) is a bug. The ASan/UBSan CI
// job runs the same binary with a 30-second budget (ctest target
// fuzz_smoke_30s, ROPUF_FUZZ_MS=30000) to surface memory errors the
// release build would survive silently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

/// Per-test wall-clock budget: ROPUF_FUZZ_MS spread over the mutation
/// tests (default keeps the tier-1 run fast; the smoke target raises it).
std::chrono::milliseconds fuzz_budget() {
    const char* env = std::getenv("ROPUF_FUZZ_MS");
    const long ms = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    return std::chrono::milliseconds(ms > 0 ? ms / 3 : 500);
}

std::vector<std::string> committed_spec_texts() {
    static const char* kSpecs[] = {"smoke", "fig1_array_size", "fig5_failure_pdf",
                                   "fig7_fuzzy", "fig_budget_curve", "fig_matrix",
                                   "paper_all", "fleet_smoke", "fleet_100k"};
    std::vector<std::string> texts;
    for (const char* name : kSpecs) {
        const std::string path =
            std::string(ROPUF_SOURCE_DIR) + "/specs/" + name + ".spec";
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        texts.push_back(buffer.str());
    }
    return texts;
}

/// The robustness contract for one spec input and one parser: parse
/// either rejects with SpecError, or accepts — and an accepted spec's
/// canonical text must re-parse to the same canonical text (the
/// content-addressing invariant; a canonical form that fails to re-parse
/// would orphan its spec hash). Empty string = held.
template <typename Parse, typename Canonical>
std::string parse_survives(const std::string& text, Parse parse, Canonical canonical) {
    decltype(parse(text)) spec;
    try {
        spec = parse(text);
    } catch (const xp::SpecError&) {
        return ""; // typed rejection is the contract
    } catch (const std::exception& e) {
        return std::string("non-SpecError exception escaped: ") + e.what();
    }
    try {
        const std::string text_form = canonical(spec);
        if (canonical(parse(text_form)) != text_form) {
            return "canonical_text is not a fixpoint under re-parse";
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("canonical text of an accepted spec failed to re-parse: ") +
               e.what();
    }
}

/// Every spec input goes through both spec grammars: the sweep parser and
/// the fleet parser share one line reader and one set of scalar parsers.
std::string spec_parse_survives(const std::string& text) {
    const std::string sweep = parse_survives(
        text, [](const std::string& t) { return xp::parse_spec(t); },
        [](const xp::SweepSpec& spec) { return xp::canonical_text(spec); });
    if (!sweep.empty()) return "sweep spec: " + sweep;
    const std::string fleet = parse_survives(
        text, [](const std::string& t) { return fleet::parse_fleet_spec(t); },
        [](const fleet::FleetSpec& spec) { return fleet::canonical_text(spec); });
    return fleet.empty() ? "" : "fleet spec: " + fleet;
}

std::string json_parse_survives(const std::string& text) {
    try {
        (void)xp::parse_json(text);
        return "";
    } catch (const xp::JsonError&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("non-JsonError exception escaped: ") + e.what();
    }
}

/// Every record line goes through both record decoders: xp's (any kind's
/// envelope) and fleet's (envelope plus shard body).
std::string record_parse_survives(const std::string& line) {
    for (int decoder = 0; decoder < 2; ++decoder) {
        try {
            if (decoder == 0) {
                (void)xp::parse_record(line);
            } else {
                (void)fleet::decode_shard_record(xp::parse_json(line));
            }
        } catch (const xp::JsonError&) {
        } catch (const std::logic_error&) {
            // structurally-wrong records are rejected with logic_error
        } catch (const std::exception& e) {
            return std::string("unexpected exception type escaped: ") + e.what();
        }
    }
    return "";
}

fleet::ShardRecord sample_shard_record() {
    fleet::ShardRecord r;
    r.spec_name = "fuzz_fleet";
    r.spec_hash = "0123456789abcdef";
    r.job_id = "0123456789abcdef-s00002";
    r.shard = 2;
    r.device_first = 128;
    r.device_count = 64;
    r.key_bits = 48;
    r.trials = 3;
    r.majority_wins = 5;
    r.base_seed = 0xfedcba9876543210ULL;
    r.devices_ok = 61;
    r.trials_ok = 189;
    r.bit_errors = 4;
    r.success_hist = {0, 1, 2, 61};
    r.measurements = 122880;
    r.workers = 4;
    r.wall_ms = 1.25;
    r.attempts = 2;
    return r;
}

xp::JobRecord sample_record() {
    xp::JobRecord r;
    r.spec_name = "fuzz";
    r.spec_hash = "0123456789abcdef";
    r.job_id = "0123456789abcdef-00003";
    r.index = 3;
    r.scenario = "seqpair/swap";
    r.params.sigma_noise_mhz = 0.25;
    r.params.defense = "lockout(8)";
    r.trials = 4;
    r.root_seed = 0xfedcba9876543210ULL;
    r.campaign_seed = 0xdeadbeefcafef00dULL;
    r.outcomes.recovered = 2;
    r.outcomes.locked_out = 2;
    r.queries = {10.0, 1.0, 8.0, 12.0, 12.0};
    return r;
}

TEST(FuzzXp, MutatedCommittedSpecsParseOrThrowSpecError) {
    const auto bases = committed_spec_texts();
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 4242;
    int rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto result = pt::check<std::string>(
            "mutated committed spec", seed, 200,
            [&](pt::Rng& rng) {
                const auto& base =
                    bases[static_cast<std::size_t>(rng.uniform_u64(0, bases.size() - 1))];
                return pt::mutate_text(base, rng);
            },
            pt::shrink_text, spec_parse_survives, pt::show_text);
        ASSERT_FALSE(result.failed) << result.summary();
        ++seed;
        ++rounds;
    }
    EXPECT_GT(rounds, 0);
}

TEST(FuzzXp, MutatedRecordsAndRawGarbageNeverEscapeTheParsers) {
    const std::string bases[] = {xp::to_jsonl(sample_record()),
                                 fleet::shard_record_line(sample_shard_record())};
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 777;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto mutated = pt::check<std::string>(
            "mutated JSONL record", seed, 200,
            [&](pt::Rng& rng) { return pt::mutate_text(bases[rng.uniform_int(0, 1)], rng); },
            pt::shrink_text, record_parse_survives, pt::show_text);
        ASSERT_FALSE(mutated.failed) << mutated.summary();

        const auto garbage = pt::check<std::string>(
            "raw garbage into parse_json", seed ^ 0x5a5a, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 256);
                return std::string(blob.begin(), blob.end());
            },
            pt::shrink_text, json_parse_survives, pt::show_text);
        ASSERT_FALSE(garbage.failed) << garbage.summary();
        ++seed;
    }
}

TEST(FuzzXp, RawGarbageIntoSpecParser) {
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 31337;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto result = pt::check<std::string>(
            "raw garbage into parse_spec", seed, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 256);
                std::string text(blob.begin(), blob.end());
                // Half the cases lead with '{' to hit the JSON-spec path.
                if (rng.uniform_int(0, 1)) text.insert(0, "{");
                return text;
            },
            pt::shrink_text, spec_parse_survives, pt::show_text);
        ASSERT_FALSE(result.failed) << result.summary();
        ++seed;
    }
}

} // namespace
