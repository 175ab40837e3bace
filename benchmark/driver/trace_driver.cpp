// Traced mirror of the benchmark workloads.
//
// The end-to-end numbers come from the real `ropuf` CLI with tracing off.
// This program re-executes the same workload once, composing every trial
// from the library's public headers the way attack/scenarios.cpp does, and
// records in-memory spans around each call into a layer (see spans.hpp for
// the layer list). It then proves it ran the same program:
//
//   * every mirrored trial's report equals core::run_scenario() for the
//     same ScenarioParams (second, untraced pass). A trial that does not —
//     or a scenario without a mirror — keeps the reference report, loses
//     its spans and is listed as unmirrored: its time is reported as
//     unattributed, never estimated;
//   * the results file it writes through xp::make_record/ResultWriter is
//     compared, by the caller, with the CLI's JSONL (deterministic content);
//   * per-defense oracle-query totals are emitted for comparison with the
//     CLI's JSONL and its --obs counters;
//   * in fleet mode, the store it enrolls, the campaign records and the
//     rendered population stats are compared with the CLI's by the caller.
//
// Usage:
//   bench_trace_driver attack <spec> --workers N --results <jsonl> --summary <json>
//                      --spans-out <tsv>
//   bench_trace_driver fleet <spec> --workers N --store <file> --results <jsonl>
//                      --stats-out <txt> --summary <json> --spans-out <tsv>
//   bench_trace_driver self-test
// The spans are kept in memory while the workload runs and written out
// (layer, thread, start_ns, end_ns, parent, dropped) at the end.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/masking_attack.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/stats.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/fuzzy/fuzzy_extractor.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;
using bench::Layer;
using bench::Span;

// ------------------------------------------------------------------ counters

/// Work counts recorded at the same boundaries as the spans. One instance
/// per worker thread; summed after the join.
struct Counters {
    double trials = 0, recovered = 0;
    double batches = 0, probes = 0;
    double queries = 0, measurements = 0, refused = 0;
    double parse_calls = 0, parse_bytes = 0, store_calls = 0, store_bytes = 0;
    double scans = 0, scan_values = 0;
    double ecc_calls = 0, ecc_ok = 0;
    double defended_queries = 0, defended_refused = 0, lockouts = 0;
    std::map<std::string, double> queries_by_defense; ///< oracle-stack scenarios only

    void add(const Counters& o) {
        trials += o.trials; recovered += o.recovered;
        batches += o.batches; probes += o.probes;
        queries += o.queries; measurements += o.measurements; refused += o.refused;
        parse_calls += o.parse_calls; parse_bytes += o.parse_bytes;
        store_calls += o.store_calls; store_bytes += o.store_bytes;
        scans += o.scans; scan_values += o.scan_values;
        ecc_calls += o.ecc_calls; ecc_ok += o.ecc_ok;
        defended_queries += o.defended_queries; defended_refused += o.defended_refused;
        lockouts += o.lockouts;
        for (const auto& [k, v] : o.queries_by_defense) queries_by_defense[k] += v;
    }
};

thread_local Counters* tls_counters = nullptr;
Counters& counters() { return *tls_counters; }

// --------------------------------------------------- traced victim & stack

std::uint64_t sub_seed(const core::ScenarioParams& p, std::uint64_t stream) {
    return p.seed * 0x9e3779b97f4a7c15ull + stream;
}

template <core::Device Puf>
typename core::DeviceTraits<Puf>::Helper traced_parse(const helperdata::Nvm& nvm) {
    const Span span(Layer::parse);
    ++counters().parse_calls;
    counters().parse_bytes += static_cast<double>(nvm.bytes().size());
    return core::DeviceTraits<Puf>::parse(nvm);
}

template <core::Device Puf>
helperdata::Nvm traced_store(const typename core::DeviceTraits<Puf>::Helper& helper) {
    const Span span(Layer::store);
    helperdata::Nvm nvm = core::DeviceTraits<Puf>::store(helper);
    ++counters().store_calls;
    counters().store_bytes += static_cast<double>(nvm.bytes().size());
    return nvm;
}

/// attack::Victim<Puf>::evaluate_probes with spans around the parse, the
/// batched measurement and the reconstruction: same probes, same verdicts,
/// same RNG consumption, same ledger.
template <core::Device Puf>
class TracedVictim final : public core::OracleBase {
public:
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;

    TracedVictim(const Puf& puf, std::optional<bits::BitVec> app_key, sim::Condition ambient,
                 std::uint64_t noise_seed)
        : puf_(&puf), app_key_(std::move(app_key)), ambient_(ambient), rng_(noise_seed) {}

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        const Span span(Layer::oracle);
        verdicts.clear();
        verdicts.reserve(probes.size());
        const auto& array = puf_->array();
        const int cost = array.count();
        parsed_.clear();
        parsed_.resize(probes.size());
        consistent_.assign(probes.size(), 0);
        int scans = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            try {
                parsed_[i] = traced_parse<Puf>(probes[i].helper);
            } catch (const helperdata::ParseError&) {
                continue;
            }
            if (Traits::helper_consistent(*puf_, *parsed_[i])) {
                consistent_[i] = 1;
                ++scans;
            }
        }
        {
            const Span measure(Layer::sim_measure);
            array.measure_batch_into(ambient_, scans, rng_, scan_buffer_);
        }
        counters().scans += scans;
        counters().scan_values += static_cast<double>(scans) * cost;
        std::size_t scan = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (!parsed_[i]) {
                ++stats_.queries;
                ++stats_.refused;
                verdicts.push_back(true);
                continue;
            }
            ++stats_.queries;
            stats_.measurements += cost;
            core::ReconstructResult rec;
            if (consistent_[i]) {
                const std::span<const double> freqs(
                    scan_buffer_.data() + scan * static_cast<std::size_t>(cost),
                    static_cast<std::size_t>(cost));
                ++scan;
                const Span ecc(Layer::ecc);
                rec = Traits::reconstruct_measured(*puf_, *parsed_[i], ambient_, freqs);
                ++counters().ecc_calls;
                counters().ecc_ok += rec.ok ? 1 : 0;
            }
            const bits::BitVec& expected = probes[i].expect ? *probes[i].expect : app_key_.value();
            verdicts.push_back(!rec.ok || rec.key != expected);
        }
    }

    core::OracleStats stats() const override { return stats_; }
    double ambient_c() const { return ambient_.temperature_c; }

private:
    const Puf* puf_;
    std::optional<bits::BitVec> app_key_;
    sim::Condition ambient_;
    rng::Xoshiro256pp rng_;
    core::OracleStats stats_;
    std::vector<std::optional<Helper>> parsed_;
    std::vector<char> consistent_;
    std::vector<double> scan_buffer_;
};

/// Spans one oracle layer (the defense stack) as seen from outside.
class SpanOracle final : public core::OracleBase {
public:
    SpanOracle(core::AnyOracle inner, Layer layer) : inner_(std::move(inner)), layer_(layer) {}
    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        const Span span(layer_);
        inner_.impl()->evaluate(probes, verdicts);
    }
    core::OracleStats stats() const override { return inner_.stats(); }

private:
    core::AnyOracle inner_;
    Layer layer_;
};

struct Stack {
    core::AnyOracle oracle;
    defense::AppliedDefense applied;
    std::shared_ptr<core::BudgetedOracle> budget;
};

/// attack/scenarios.cpp build_stack(), with the codec calls of the defense
/// context routed through the traced parse/store.
template <core::Device Puf>
Stack build_stack(const std::shared_ptr<TracedVictim<Puf>>& victim, const Puf& puf,
                  const typename core::DeviceTraits<Puf>::Helper& enrolled,
                  const core::ScenarioParams& p) {
    using Traits = core::DeviceTraits<Puf>;
    Stack stack;
    stack.oracle = core::AnyOracle(victim);
    if (!p.defense.empty() && p.defense != "none") {
        defense::DefenseContext ctx;
        ctx.validator = [&puf](const helperdata::Nvm& nvm) {
            helperdata::SanityReport report;
            typename Traits::Helper helper;
            try {
                helper = traced_parse<Puf>(nvm);
            } catch (const helperdata::ParseError& e) {
                report.fail(std::string("parse: ") + e.what());
                return report;
            }
            return Traits::sanity(puf, helper);
        };
        ctx.canonical = [](const helperdata::Nvm& nvm) {
            try {
                return traced_store<Puf>(traced_parse<Puf>(nvm)).bytes() == nvm.bytes();
            } catch (const helperdata::ParseError&) {
                return false;
            }
        };
        ctx.enrolled = traced_store<Puf>(enrolled);
        ctx.seed = sub_seed(p, 4);
        stack.applied = defense::apply_defense(p.defense, stack.oracle, ctx);
        stack.oracle = core::AnyOracle(
            std::make_shared<SpanOracle>(stack.applied.oracle, Layer::defense));
    }
    if (p.query_budget > 0) {
        stack.budget = std::make_shared<core::BudgetedOracle>(stack.oracle, p.query_budget);
        stack.oracle = core::AnyOracle(stack.budget);
    }
    return stack;
}

/// attack::run_to_completion + scenarios.cpp drive(), with spans around the
/// session and the stack.
core::AttackReport drive(attack::Session& session, Stack& stack, const core::ScenarioParams& p,
                         const bits::BitVec& truth) {
    Counters& c = counters();
    while (true) {
        std::span<const core::Probe> batch;
        {
            const Span span(Layer::attack);
            batch = session.step();
        }
        if (batch.empty()) break;
        c.probes += static_cast<double>(batch.size());
        std::vector<bool> verdicts;
        try {
            const Span span(Layer::core_oracle);
            verdicts = stack.oracle.evaluate(batch);
        } catch (const core::BudgetExhausted&) {
            break;
        }
        {
            const Span span(Layer::attack);
            session.absorb(verdicts);
        }
        ++c.batches;
    }
    const auto stats = stack.oracle.stats();
    const std::string token = (p.defense.empty() || p.defense == "none") ? "none" : p.defense;
    c.queries_by_defense[token] += static_cast<double>(stats.queries);
    if (token != "none") {
        c.defended_queries += static_cast<double>(stats.queries);
        c.defended_refused += static_cast<double>(stack.applied.refused());
        c.lockouts += stack.applied.locked() ? 1 : 0;
    }
    core::AttackReport report;
    const auto key = session.partial_key();
    const bool resolved = session.done() && session.resolved();
    report.key_bits = static_cast<int>(truth.size());
    report.queries = stats.queries;
    report.measurements = stats.measurements;
    report.refused = stats.refused;
    report.accuracy = core::bit_accuracy(key, truth);
    report.key_recovered = resolved && key == truth;
    report.complete = resolved;
    report.notes = session.notes();
    if (report.key_recovered) {
        report.outcome = core::AttackOutcome::recovered;
    } else if (stack.budget && stack.budget->exhausted()) {
        report.outcome = core::AttackOutcome::budget_exhausted;
    } else if (stack.applied.locked()) {
        report.outcome = core::AttackOutcome::locked_out;
    } else if (stack.applied.refused() > 0) {
        report.outcome = core::AttackOutcome::refused_by_defense;
    } else {
        report.outcome = core::AttackOutcome::gave_up;
    }
    return report;
}

sim::ArrayGeometry geometry_or(const core::ScenarioParams& p, sim::ArrayGeometry fallback) {
    if (p.cols > 0 && p.rows > 0) return {p.cols, p.rows};
    return fallback;
}

sim::ProcessParams process_or(const core::ScenarioParams& p, sim::ProcessParams fallback) {
    if (p.sigma_noise_mhz >= 0.0) fallback.sigma_noise_mhz = p.sigma_noise_mhz;
    return fallback;
}

template <typename Config>
void apply_ecc(const core::ScenarioParams& p, Config& cfg) {
    if (p.ecc_m > 0) cfg.ecc_m = p.ecc_m;
    if (p.ecc_t > 0) cfg.ecc_t = p.ecc_t;
}

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

/// Chip + construction + enrollment under one span; the chip must outlive
/// the construction, so both live in the returned holder.
template <typename Puf>
struct Enrolled {
    std::unique_ptr<sim::RoArray> chip;
    std::unique_ptr<Puf> puf;
    typename Puf::Enrollment enrollment;
};

template <typename Puf, typename Config>
Enrolled<Puf> enroll(const core::ScenarioParams& p, sim::ArrayGeometry geometry,
                             sim::ProcessParams process, const Config& cfg) {
    const Span span(Layer::victim_enroll);
    Enrolled<Puf> e;
    e.chip = std::make_unique<sim::RoArray>(geometry_or(p, geometry), process_or(p, process),
                                            sub_seed(p, 1));
    e.puf = std::make_unique<Puf>(*e.chip, cfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    e.enrollment = e.puf->enroll(rng);
    return e;
}

template <typename Puf>
std::shared_ptr<TracedVictim<Puf>> keyed_victim(const Puf& puf, const bits::BitVec& key,
                                                 const core::ScenarioParams& p) {
    return std::make_shared<TracedVictim<Puf>>(
        puf, key, core::DeviceTraits<Puf>::nominal_condition(puf), sub_seed(p, 3));
}

template <typename Puf>
std::shared_ptr<TracedVictim<Puf>> reprogram_victim(const Puf& puf,
                                                     const core::ScenarioParams& p) {
    return std::make_shared<TracedVictim<Puf>>(
        puf, std::nullopt, core::DeviceTraits<Puf>::nominal_condition(puf), sub_seed(p, 3));
}

core::AttackReport seqpair(const core::ScenarioParams& p, helperdata::PairOrderPolicy policy) {
    pairing::SeqPairingConfig dcfg;
    dcfg.policy = policy;
    apply_ecc(p, dcfg);
    auto e = enroll<pairing::SeqPairingPuf>(p, {16, 8}, sim::ProcessParams{}, dcfg);
    auto victim = keyed_victim(*e.puf, e.enrollment.key, p);
    attack::SeqPairingAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::SeqPairingSession session(e.enrollment.helper, e.puf->code(), cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    return drive(session, stack, p, e.enrollment.key);
}

core::AttackReport tempaware(const core::ScenarioParams& p) {
    tempaware::TempAwareConfig dcfg;
    dcfg.classification = {-20.0, 85.0, 0.2};
    dcfg.enroll_samples = 64;
    apply_ecc(p, dcfg);
    sim::ProcessParams crossover_rich{};
    crossover_rich.tempco_sigma = 0.015;
    auto e = enroll<tempaware::TempAwarePuf>(p, {16, 16}, crossover_rich, dcfg);
    using Traits = core::DeviceTraits<tempaware::TempAwarePuf>;
    auto victim = std::make_shared<TracedVictim<tempaware::TempAwarePuf>>(
        *e.puf, e.enrollment.key, Traits::condition_at(*e.puf, p.ambient_c), sub_seed(p, 3));
    attack::TempAwareAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::TempAwareSession session(e.enrollment.helper, e.puf->code(), victim->ambient_c(),
                                     cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    return drive(session, stack, p, e.enrollment.key);
}

core::AttackReport group(const core::ScenarioParams& p, attack::GroupBasedAttack::Mode mode,
                         bool adaptive) {
    group::GroupPufConfig dcfg;
    dcfg.delta_f_th = 0.15;
    apply_ecc(p, dcfg);
    auto e = enroll<group::GroupBasedPuf>(p, {10, 4}, quiet_params(), dcfg);
    auto victim = reprogram_victim(*e.puf, p);
    attack::GroupBasedAttack::Config cfg;
    cfg.mode = mode;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::GroupSession session(e.enrollment.helper, e.chip->geometry(), e.puf->code(), cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    return drive(session, stack, p, e.enrollment.key);
}

core::AttackReport masked_distiller(const core::ScenarioParams& p, bool adaptive) {
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    auto e = enroll<pairing::MaskedChainPuf>(p, {20, 8}, quiet_params(), dcfg);
    auto victim = reprogram_victim(*e.puf, p);
    attack::MaskedChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::MaskedChainSession session(*e.puf, e.enrollment.helper, cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    return drive(session, stack, p, e.enrollment.key);
}

core::AttackReport masked_probe(const core::ScenarioParams& p) {
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    auto e = enroll<pairing::MaskedChainPuf>(p, {20, 8}, quiet_params(), dcfg);
    auto victim = keyed_victim(*e.puf, e.enrollment.key, p);
    attack::SelectionSubstitutionProbe::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::SelectionProbeSession session(e.enrollment.helper, e.puf->code(), cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    core::AttackReport report = drive(session, stack, p, e.enrollment.key);
    report.complete =
        session.done() && session.result().groups.size() == e.enrollment.key.size();
    return report;
}

core::AttackReport overlap_distiller(const core::ScenarioParams& p, bool adaptive) {
    pairing::OverlapChainConfig dcfg;
    apply_ecc(p, dcfg);
    auto e = enroll<pairing::OverlapChainPuf>(p, {10, 4}, quiet_params(), dcfg);
    auto victim = reprogram_victim(*e.puf, p);
    attack::OverlapChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::OverlapChainSession session(*e.puf, e.enrollment.helper, cfg);
    auto stack = build_stack(victim, *e.puf, e.enrollment.helper, p);
    return drive(session, stack, p, e.enrollment.key);
}

/// fuzzy/reference measures the extractor directly (no oracle stack); its
/// queries are not oracle queries and do not enter queries_by_defense.
core::AttackReport fuzzy_reference(const core::ScenarioParams& p) {
    std::unique_ptr<sim::RoArray> chip;
    std::vector<pairing::IndexPair> pairs;
    std::optional<fuzzy::FuzzyExtractor> fe;
    const ecc::BchCode code(p.ecc_m > 0 ? p.ecc_m : 6, p.ecc_t > 0 ? p.ecc_t : 5);
    const sim::Condition ambient{p.ambient_c, 1.20};
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    fuzzy::FuzzyExtractor::Enrollment enrollment;
    {
        const Span span(Layer::victim_enroll);
        chip = std::make_unique<sim::RoArray>(geometry_or(p, {16, 8}),
                                              process_or(p, sim::ProcessParams{}), sub_seed(p, 1));
        pairs = pairing::neighbor_chain(chip->geometry(), pairing::ChainOrder::Serpentine,
                                        pairing::ChainOverlap::Overlapping);
        fe.emplace(code);
        const auto enroll_freqs = chip->enroll_frequencies(ambient, 32, rng);
        const auto response = pairing::evaluate_pairs(pairs, enroll_freqs);
        enrollment = fe->enroll(response, rng);
    }
    rng::Xoshiro256pp victim_rng(sub_seed(p, 3));
    std::int64_t queries = 0;
    const auto regenerate = [&](const fuzzy::FuzzyHelper& helper) {
        ++queries;
        bits::BitVec noisy;
        {
            const Span span(Layer::sim_measure);
            noisy = pairing::evaluate_pairs(pairs, chip->measure_all(ambient, victim_rng));
        }
        counters().scans += 1;
        counters().scan_values += chip->count();
        const Span span(Layer::ecc);
        auto rec = fe->reconstruct(noisy, helper);
        ++counters().ecc_calls;
        counters().ecc_ok += rec.ok ? 1 : 0;
        return rec;
    };
    const int reliability_trials = p.majority_wins > 0 ? p.majority_wins : 50;
    int honest_ok = 0;
    for (int trial = 0; trial < reliability_trials; ++trial) {
        const auto rec = regenerate(enrollment.helper);
        honest_ok += rec.ok && rec.key == enrollment.key;
    }
    int probes = 0;
    int response_independent = 0;
    for (std::size_t pos = 0; pos < enrollment.helper.offset.size();
         pos += static_cast<std::size_t>(code.n())) {
        auto tampered = enrollment.helper;
        bits::flip(tampered.offset, pos);
        const auto rec = regenerate(tampered);
        response_independent += !rec.ok || rec.key != enrollment.key;
        ++probes;
    }
    counters().probes += static_cast<double>(queries);
    core::AttackReport report;
    report.key_bits = static_cast<int>(enrollment.key.size() * 8);
    report.queries = queries;
    report.measurements = queries * chip->count();
    report.complete = probes > 0;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "negative by design: %d/%d honest regens ok, %d/%d flips response-independent",
                  honest_ok, reliability_trials, response_independent, probes);
    report.notes = buf;
    return report;
}

using Mirror = std::function<core::AttackReport(const core::ScenarioParams&)>;

const std::map<std::string, Mirror>& mirrors() {
    using Mode = attack::GroupBasedAttack::Mode;
    using helperdata::PairOrderPolicy;
    static const std::map<std::string, Mirror> table = {
        {"seqpair/swap", [](const auto& p) { return seqpair(p, PairOrderPolicy::Randomized); }},
        {"seqpair/swap-sorted",
         [](const auto& p) { return seqpair(p, PairOrderPolicy::SortedByFrequency); }},
        {"tempaware/substitution", tempaware},
        {"group/sortmerge", [](const auto& p) { return group(p, Mode::SortMerge, false); }},
        {"group/exhaustive", [](const auto& p) { return group(p, Mode::ExhaustivePairs, false); }},
        {"group/sortmerge-adaptive", [](const auto& p) { return group(p, Mode::SortMerge, true); }},
        {"maskedchain/distiller", [](const auto& p) { return masked_distiller(p, false); }},
        {"maskedchain/distiller-adaptive", [](const auto& p) { return masked_distiller(p, true); }},
        {"maskedchain/probe", masked_probe},
        {"overlapchain/distiller", [](const auto& p) { return overlap_distiller(p, false); }},
        {"overlapchain/distiller-adaptive",
         [](const auto& p) { return overlap_distiller(p, true); }},
        {"fuzzy/reference", fuzzy_reference},
    };
    return table;
}

// ------------------------------------------------------------------ output

struct Args {
    std::string mode, spec, results, summary, store, stats_out, spans_out;
    int workers = 1;
};

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    core::append_json_escaped(out, s);
    return out + "\"";
}

void write_spans(const std::string& path, const std::vector<bench::SpanRec>& spans) {
    std::ofstream out(path);
    out << "layer\tthread\tstart_ns\tend_ns\tparent\tdropped\n";
    for (const auto& s : spans) {
        out << bench::layer_name(s.layer) << '\t' << s.thread << '\t' << s.start_ns << '\t'
            << s.end_ns << '\t' << s.parent << '\t' << (s.dropped ? 1 : 0) << '\n';
    }
}

/// Writes the summary: per-layer self time, unattributed time, the counters,
/// hard failures (the caller fails the run) and unmirrored trials (reported
/// as unattributed time, never estimated).
void write_summary(const Args& args, const bench::Recorder& recorder, const Counters& c,
                   double traced_wall_s, const std::vector<std::string>& failures,
                   const std::vector<std::string>& unmirrored,
                   const std::map<std::string, double>& extra) {
    std::vector<bench::SpanRec> spans;
    std::vector<bench::Interval> busy;
    recorder.merge(spans, busy);
    write_spans(args.spans_out, spans);
    const std::vector<double> self = bench::self_seconds(spans);
    const auto list = [](const std::vector<std::string>& items) {
        std::string out = "[";
        for (std::size_t i = 0; i < items.size() && i < 20; ++i) {
            if (i > 0) out += ',';
            out += quoted(items[i]);
        }
        return out + "]";
    };
    std::ostringstream out;
    out << "{\"traced_wall_s\":" << num(traced_wall_s)
        << ",\"unattributed_s\":" << num(bench::unattributed_seconds(spans, busy))
        << ",\"spans\":" << spans.size() << ",\"self_s\":{";
    for (int i = 0; i < bench::kLayers; ++i) {
        out << (i ? "," : "") << quoted(bench::layer_name(static_cast<Layer>(i))) << ':'
            << num(self[static_cast<std::size_t>(i)]);
    }
    out << "},\"counters\":{";
    const std::pair<const char*, double> fields[] = {
        {"trials", c.trials}, {"recovered", c.recovered}, {"batches", c.batches},
        {"probes", c.probes}, {"queries", c.queries}, {"measurements", c.measurements},
        {"refused", c.refused}, {"parse_calls", c.parse_calls}, {"parse_bytes", c.parse_bytes},
        {"store_calls", c.store_calls}, {"store_bytes", c.store_bytes}, {"scans", c.scans},
        {"scan_values", c.scan_values}, {"ecc_calls", c.ecc_calls}, {"ecc_ok", c.ecc_ok},
        {"defended_queries", c.defended_queries}, {"defended_refused", c.defended_refused},
        {"lockouts", c.lockouts},
    };
    bool first = true;
    for (const auto& [k, v] : fields) {
        out << (first ? "" : ",") << quoted(k) << ':' << num(v);
        first = false;
    }
    for (const auto& [k, v] : extra) out << ',' << quoted(k) << ':' << num(v);
    out << "},\"queries_by_defense\":{";
    first = true;
    for (const auto& [k, v] : c.queries_by_defense) {
        out << (first ? "" : ",") << quoted(k) << ':' << num(v);
        first = false;
    }
    out << "},\"failures\":" << list(failures) << ",\"failure_count\":" << failures.size()
        << ",\"unmirrored\":" << list(unmirrored)
        << ",\"unmirrored_trials\":" << unmirrored.size() << "}\n";
    std::ofstream(args.summary) << out.str();
}

/// Runs fn(i) for i in [0, n) on `workers` threads, each with its own span
/// buffer (none when `recorder` is null).
/// The first exception a worker throws is rethrown after every thread joined.
void parallel_for(int workers, std::size_t n, bench::Recorder* recorder,
                  const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            bench::tls_buffer = recorder != nullptr ? recorder->attach() : nullptr;
            try {
                const bench::Busy busy;
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= n) break;
                    fn(i);
                }
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
                next.store(n); // stop handing out work
            }
            bench::tls_buffer = nullptr;
        });
    }
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

std::string report_diff(const core::AttackReport& a, const core::AttackReport& b) {
    if (a.queries != b.queries) return "queries";
    if (a.measurements != b.measurements) return "measurements";
    if (a.refused != b.refused) return "refused";
    if (a.accuracy != b.accuracy) return "accuracy";
    if (a.key_recovered != b.key_recovered) return "key_recovered";
    if (a.complete != b.complete) return "complete";
    if (a.outcome != b.outcome) return "outcome";
    if (a.key_bits != b.key_bits) return "key_bits";
    if (a.notes != b.notes) return "notes";
    return {};
}

/// Counters of a trial the driver could not mirror exactly: the reference
/// report's ledger only (its time stays unattributed).
Counters reference_counters(const core::AttackReport& ref, const core::ScenarioParams& p,
                            const std::string& scenario) {
    Counters c;
    c.trials = 1;
    c.recovered = ref.key_recovered ? 1 : 0;
    c.queries = static_cast<double>(ref.queries);
    c.measurements = static_cast<double>(ref.measurements);
    c.refused = static_cast<double>(ref.refused);
    if (scenario != "fuzzy/reference") { // the one scenario without an oracle stack
        c.queries_by_defense[(p.defense.empty() || p.defense == "none") ? "none" : p.defense] =
            static_cast<double>(ref.queries);
    }
    return c;
}

core::CampaignSummary summarize_job(const xp::Job& job, const core::AttackReport* reports,
                                    int workers) {
    core::CampaignSummary summary;
    summary.scenario = job.scenario;
    summary.trials = job.trials;
    summary.workers = std::min(workers, std::max(job.trials, 1));
    summary.master_seed = job.campaign_seed;
    std::vector<double> queries;
    std::vector<double> measurements;
    for (int t = 0; t < job.trials; ++t) {
        const core::AttackReport& r = reports[t];
        if (r.key_recovered) ++summary.key_recovered_count;
        switch (r.outcome) {
            case core::AttackOutcome::recovered: ++summary.outcomes.recovered; break;
            case core::AttackOutcome::gave_up: ++summary.outcomes.gave_up; break;
            case core::AttackOutcome::budget_exhausted: ++summary.outcomes.budget_exhausted; break;
            case core::AttackOutcome::refused_by_defense:
                ++summary.outcomes.refused_by_defense;
                break;
            case core::AttackOutcome::locked_out: ++summary.outcomes.locked_out; break;
        }
        summary.mean_accuracy += r.accuracy;
        summary.trial_wall_ms_sum += r.wall_ms;
        summary.total_measurements += r.measurements;
        queries.push_back(static_cast<double>(r.queries));
        measurements.push_back(static_cast<double>(r.measurements));
    }
    if (job.trials > 0) {
        summary.success_rate = static_cast<double>(summary.key_recovered_count) /
                               static_cast<double>(job.trials);
        summary.mean_accuracy /= static_cast<double>(job.trials);
    }
    summary.queries = core::summarize_metric(queries);
    summary.measurements = core::summarize_metric(measurements);
    summary.wall_ms = summary.trial_wall_ms_sum;
    return summary;
}

int run_attack(const Args& args) {
    bench::Recorder recorder;
    Counters main_counters;
    bench::tls_buffer = recorder.attach();
    tls_counters = &main_counters;
    const auto& registry = attack::default_registry();
    xp::Plan plan;
    {
        const bench::Busy busy;
        const Span span(Layer::xp_plan);
        plan = xp::plan_spec(xp::load_spec_file(args.spec), registry);
    }
    struct Unit {
        const xp::Job* job;
        int trial;
        core::ScenarioParams params;
        const Mirror* mirror;   ///< null: no mirror, runs untraced
        Counters counters;
        bench::ThreadBuffer* buffer = nullptr; ///< where its spans landed
        std::size_t first_span = 0, end_span = 0;
    };
    std::vector<Unit> units;
    for (const xp::Job& job : plan.jobs) {
        const auto it = mirrors().find(job.scenario);
        const auto seeds = core::CampaignRunner::trial_seeds(job.campaign_seed, job.trials);
        for (int t = 0; t < job.trials; ++t) {
            core::ScenarioParams params = job.params;
            params.seed = seeds[static_cast<std::size_t>(t)];
            units.push_back({&job, t, params, it == mirrors().end() ? nullptr : &it->second,
                             Counters{}});
        }
    }

    // Pass 1: the traced mirror. A scenario without a mirror runs through
    // core::run_scenario outside any span: its time stays unattributed.
    std::vector<core::AttackReport> reports(units.size());
    const std::int64_t traced_start = bench::now_ns();
    parallel_for(args.workers, units.size(), &recorder, [&](std::size_t i) {
        Unit& u = units[i];
        tls_counters = &u.counters;
        u.buffer = bench::tls_buffer;
        u.first_span = u.buffer->spans.size();
        const std::int64_t start = bench::now_ns();
        if (u.mirror != nullptr) {
            const Span span(Layer::trial);
            reports[i] = (*u.mirror)(u.params);
        } else {
            reports[i] = core::run_scenario(*registry.find(u.job->scenario), u.params);
        }
        reports[i].wall_ms = static_cast<double>(bench::now_ns() - start) * 1e-6;
        u.end_span = u.buffer->spans.size();
        Counters& c = u.counters;
        ++c.trials;
        c.recovered += reports[i].key_recovered ? 1 : 0;
        c.queries += static_cast<double>(reports[i].queries);
        c.measurements += static_cast<double>(reports[i].measurements);
        c.refused += static_cast<double>(reports[i].refused);
    });
    const double traced_phase_s = static_cast<double>(bench::now_ns() - traced_start) * 1e-9;

    // Pass 2 (untraced): a mirrored trial counts only if its report equals
    // core::run_scenario. Any other trial keeps the reference report and
    // counts, and its spans are dropped: its time becomes unattributed.
    std::vector<std::string> unmirrored_of(units.size());
    parallel_for(args.workers, units.size(), nullptr, [&](std::size_t i) {
        Unit& u = units[i];
        const core::AttackReport ref =
            u.mirror != nullptr ? core::run_scenario(*registry.find(u.job->scenario), u.params)
                                : reports[i];
        const std::string field = u.mirror != nullptr ? report_diff(reports[i], ref)
                                                      : std::string("no mirror");
        if (field.empty()) return;
        unmirrored_of[i] = u.job->id + " trial " + std::to_string(u.trial) + " (" +
                           u.job->scenario + "): " + field;
        for (std::size_t s = u.first_span; s < u.end_span; ++s) u.buffer->spans[s].dropped = true;
        u.counters = reference_counters(ref, u.params, u.job->scenario);
        const double wall_ms = reports[i].wall_ms;
        reports[i] = ref;
        reports[i].wall_ms = wall_ms;
    });
    std::vector<std::string> unmirrored;
    for (auto& m : unmirrored_of) {
        if (!m.empty()) unmirrored.push_back(std::move(m));
    }

    // Records through the xp layer, in plan order, then read back.
    std::vector<std::string> failures;
    double commit_read_s = 0.0;
    {
        const bench::Busy busy;
        const std::int64_t start = bench::now_ns();
        {
            const Span span(Layer::xp_commit);
            xp::ResultWriter writer(args.results, /*truncate=*/true);
            std::size_t first = 0;
            for (const xp::Job& job : plan.jobs) {
                writer.append(
                    xp::make_record(plan, job, summarize_job(job, &reports[first], args.workers)));
                first += static_cast<std::size_t>(job.trials);
            }
        }
        {
            const Span span(Layer::xp_read);
            if (xp::read_results(args.results).size() != plan.jobs.size()) {
                failures.push_back("read_results: record count differs from the plan");
            }
        }
        commit_read_s = static_cast<double>(bench::now_ns() - start) * 1e-9;
    }
    Counters total = main_counters;
    for (const auto& u : units) total.add(u.counters);
    write_summary(args, recorder, total, traced_phase_s + commit_read_s, failures, unmirrored,
                  {{"jobs", static_cast<double>(plan.jobs.size())}});
    return 0;
}

bool same_record(const fleet::EnrollmentRecord& a, const fleet::EnrollmentRecord& b) {
    return a.device == b.device && a.key_words == b.key_words && a.helper == b.helper;
}

int run_fleet(const Args& args) {
    bench::Recorder recorder;
    Counters main_counters;
    bench::tls_buffer = recorder.attach();
    tls_counters = &main_counters;
    std::vector<std::string> failures;
    const fleet::FleetSpec spec = fleet::load_fleet_spec_file(args.spec);
    const fleet::Population population(spec);
    const std::int64_t start = bench::now_ns();
    std::vector<fleet::EnrollmentRecord> enrolled;
    double devices_measured = 0;
    {
        const bench::Busy busy;
        // Enroll: the shard kernels the CLI's enroll runs, then the public
        // per-device path (its records are what the store holds).
        std::remove(args.store.c_str());
        fleet::EnrollmentWriter writer(args.store, fleet::make_store_header(spec),
                                       /*truncate=*/true);
        std::vector<std::vector<double>> out;
        for (std::uint64_t first = 0; first < spec.devices; first += fleet::kShardDevices) {
            const std::size_t count = static_cast<std::size_t>(
                std::min<std::uint64_t>(fleet::kShardDevices, spec.devices - first));
            std::optional<sim::RoFleet> shard;
            {
                const Span span(Layer::fleet_manufacture);
                shard.emplace(population.manufacture_shard(
                    first, count, fleet::Population::Phase::enroll));
            }
            {
                const Span span(Layer::fleet_measure);
                shard->measure_batch(sim::Condition{}, spec.enroll_samples, out);
            }
            devices_measured += static_cast<double>(count);
            for (std::size_t i = 0; i < count; ++i) {
                fleet::EnrollmentRecord rec;
                {
                    const Span span(Layer::fleet_enroll_device);
                    rec = fleet::enroll_device(population, first + i);
                }
                {
                    const Span span(Layer::fleet_store_write);
                    writer.append(rec);
                }
                enrolled.push_back(std::move(rec));
            }
        }
    }
    fleet::FleetRunStats stats;
    {
        const bench::Busy busy;
        std::optional<fleet::EnrollmentMap> map;
        {
            const Span span(Layer::fleet_store_read);
            map.emplace(args.store);
            if (map->valid_records() != spec.devices) {
                failures.push_back("store: valid record count differs from the spec");
            }
            for (std::uint64_t d = 0; d < map->valid_records() && d < enrolled.size(); ++d) {
                if (!same_record(map->record(d), enrolled[d])) {
                    failures.push_back("store: record " + std::to_string(d) +
                                         " differs from enroll_device");
                    break;
                }
            }
        }
        {
            const Span span(Layer::fleet_campaign);
            std::remove(args.results.c_str());
            xp::ResultWriter writer(args.results, /*truncate=*/true);
            fleet::FleetCampaignOptions opts;
            opts.workers = args.workers;
            stats = fleet::run_fleet_campaign(population, *map, writer, opts);
        }
        {
            const Span span(Layer::fleet_stats);
            const std::string text =
                fleet::render_population_stats(fleet::population_stats(*map));
            std::ofstream(args.stats_out) << text;
        }
    }
    const double wall_s = static_cast<double>(bench::now_ns() - start) * 1e-9;
    if (stats.failed > 0 || stats.executed != stats.total_shards) {
        failures.push_back("campaign: not every shard executed cleanly");
    }
    write_summary(args, recorder, main_counters, wall_s, failures, {},
                  {{"devices", static_cast<double>(spec.devices)},
                   {"devices_measured", devices_measured},
                   {"shards", static_cast<double>(stats.total_shards)},
                   {"device_trials", static_cast<double>(stats.trials)},
                   {"steals", static_cast<double>(stats.steals)}});
    return 0;
}

// --------------------------------------------------------------- self-test

int self_test() {
    int failures = 0;
    const auto expect = [&failures](bool ok, const char* what) {
        if (!ok) {
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
            ++failures;
        }
    };
    const auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };
    using bench::SpanRec;
    const auto span = [](Layer layer, std::uint16_t thread, std::int64_t s, std::int64_t e,
                         std::int32_t parent) {
        SpanRec r;
        r.layer = layer;
        r.thread = thread;
        r.start_ns = s;
        r.end_ns = e;
        r.parent = parent;
        return r;
    };
    // Nested children on one thread: self = 100 - (20 + 30).
    {
        const std::vector<SpanRec> spans = {
            span(Layer::trial, 0, 0, 100, -1),
            span(Layer::attack, 0, 10, 30, 0),
            span(Layer::oracle, 0, 40, 70, 0),
            span(Layer::sim_measure, 0, 45, 55, 2),
        };
        const auto self = bench::self_seconds(spans);
        expect(near(self[static_cast<int>(Layer::trial)], 50e-9), "nested self time");
        expect(near(self[static_cast<int>(Layer::oracle)], 20e-9), "grandchild subtracted once");
        expect(near(self[static_cast<int>(Layer::sim_measure)], 10e-9), "leaf self = duration");
    }
    // Children on two worker threads overlap in time: the union (not the
    // sum) is subtracted, and a child sticking out of its parent is clipped.
    {
        const std::vector<SpanRec> spans = {
            span(Layer::fleet_campaign, 0, 0, 100, -1),
            span(Layer::fleet_measure, 1, 10, 60, 0),
            span(Layer::fleet_measure, 2, 40, 90, 0),
            span(Layer::fleet_measure, 3, 95, 130, 0),
        };
        const auto self = bench::self_seconds(spans);
        expect(near(self[static_cast<int>(Layer::fleet_campaign)], 15e-9),
               "overlapping cross-thread children: union of [10,90) and [95,100)");
        expect(near(self[static_cast<int>(Layer::fleet_measure)], 135e-9),
               "children keep their full durations");
    }
    // Unattributed: busy time no root span on that thread covers.
    {
        const std::vector<SpanRec> spans = {
            span(Layer::trial, 0, 10, 40, -1),
            span(Layer::trial, 0, 30, 60, -1),
            span(Layer::trial, 1, 0, 100, -1),
            span(Layer::attack, 0, 70, 80, 0),
        };
        const std::vector<bench::Interval> busy = {{0, 100, 0}, {0, 100, 1}};
        expect(near(bench::unattributed_seconds(spans, busy), 50e-9),
               "unattributed = 100 - |[10,60)| on thread 0, 0 on thread 1");
    }
    // A dropped (unmirrored) trial: its spans leave the layers and its time
    // becomes unattributed.
    {
        std::vector<SpanRec> spans = {
            span(Layer::trial, 0, 0, 40, -1),
            span(Layer::ecc, 0, 10, 30, 0),
            span(Layer::trial, 0, 50, 100, -1),
            span(Layer::ecc, 0, 60, 90, 2),
        };
        spans[2].dropped = spans[3].dropped = true;
        const auto self = bench::self_seconds(spans);
        expect(near(self[static_cast<int>(Layer::ecc)], 20e-9), "dropped child not attributed");
        expect(near(self[static_cast<int>(Layer::trial)], 20e-9), "dropped root not attributed");
        expect(near(bench::unattributed_seconds(spans, {{0, 100, 0}}), 60e-9),
               "dropped trial's 50 ns + 10 ns gap unattributed");
    }
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& args) {
    if (argc < 2) return false;
    args.mode = argv[1];
    if (args.mode == "self-test") return true;
    if (argc < 3) return false;
    args.spec = argv[2];
    for (int i = 3; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workers") args.workers = std::max(1, std::atoi(value.c_str()));
        else if (key == "--results") args.results = value;
        else if (key == "--summary") args.summary = value;
        else if (key == "--store") args.store = value;
        else if (key == "--stats-out") args.stats_out = value;
        else if (key == "--spans-out") args.spans_out = value;
        else return false;
    }
    return !args.results.empty() && !args.summary.empty() && !args.spans_out.empty();
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fputs("usage: bench_trace_driver attack|fleet <spec> --workers N --results F "
                   "--summary F --spans-out F [--store F --stats-out F]\n"
                   "       bench_trace_driver self-test\n",
                   stderr);
        return 2;
    }
    try {
        if (args.mode == "self-test") return self_test();
        if (args.mode == "attack") return run_attack(args);
        if (args.mode == "fleet") {
            if (args.store.empty() || args.stats_out.empty()) return 2;
            return run_fleet(args);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_trace_driver: %s\n", e.what());
        return 1;
    }
    return 2;
}
