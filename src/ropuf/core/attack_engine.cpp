#include "ropuf/core/attack_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace ropuf::core {

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry registry;
    return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
    if (find(scenario.name) != nullptr) {
        throw std::invalid_argument("scenario already registered: " + scenario.name);
    }
    scenarios_.push_back(std::move(scenario));
}

void ScenarioRegistry::add_or_replace(Scenario scenario) {
    for (auto& existing : scenarios_) {
        if (existing.name == scenario.name) {
            existing = std::move(scenario);
            return;
        }
    }
    scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
    for (const auto& s : scenarios_) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(scenarios_.size());
    for (const auto& s : scenarios_) out.push_back(s.name);
    return out;
}

AttackReport run_scenario(const Scenario& scenario, const ScenarioParams& params) {
    const auto t0 = std::chrono::steady_clock::now();
    AttackReport report = scenario.run(params);
    const auto t1 = std::chrono::steady_clock::now();
    report.scenario = scenario.name;
    report.construction = scenario.construction;
    report.attack = scenario.attack;
    report.paper_ref = scenario.paper_ref;
    report.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return report;
}

AttackReport AttackEngine::run(std::string_view name, const ScenarioParams& params) const {
    const Scenario* scenario = registry_->find(name);
    if (scenario == nullptr) {
        throw std::out_of_range(
            unknown_name_message("attack scenario", name, registry_->names()));
    }
    return run_scenario(*scenario, params);
}

std::string_view to_string(AttackOutcome outcome) {
    switch (outcome) {
        case AttackOutcome::recovered: return "recovered";
        case AttackOutcome::gave_up: return "gave_up";
        case AttackOutcome::budget_exhausted: return "budget_exhausted";
        case AttackOutcome::refused_by_defense: return "refused_by_defense";
        case AttackOutcome::locked_out: return "locked_out";
    }
    return "gave_up";
}

namespace {

/// Nearest candidate by Levenshtein distance (ties: first listed).
std::pair<std::string, std::size_t> nearest_candidate(
    std::string_view name, const std::vector<std::string>& candidates) {
    std::string best;
    std::size_t best_distance = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> prev, curr;
    for (const auto& candidate : candidates) {
        // Classic two-row Levenshtein distance.
        const std::size_t n = candidate.size();
        prev.resize(n + 1);
        curr.resize(n + 1);
        for (std::size_t j = 0; j <= n; ++j) prev[j] = j;
        for (std::size_t i = 1; i <= name.size(); ++i) {
            curr[0] = i;
            for (std::size_t j = 1; j <= n; ++j) {
                const std::size_t subst = prev[j - 1] + (name[i - 1] != candidate[j - 1]);
                curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, subst});
            }
            std::swap(prev, curr);
        }
        if (prev[n] < best_distance) {
            best_distance = prev[n];
            best = candidate;
        }
    }
    return {std::move(best), best_distance};
}

} // namespace

std::string closest_match(std::string_view name, const std::vector<std::string>& candidates) {
    return nearest_candidate(name, candidates).first;
}

std::string unknown_name_message(std::string_view what, std::string_view name,
                                 const std::vector<std::string>& candidates) {
    std::string message = "unknown " + std::string(what) + ": '" + std::string(name) + "'";
    const auto [suggestion, distance] = nearest_candidate(name, candidates);
    // Only a genuine near-miss earns a hint — an arbitrary "nearest" match
    // to garbage input would make the error read as a typo when it isn't.
    if (!suggestion.empty() && distance <= std::max<std::size_t>(2, name.size() / 3)) {
        message += " (did you mean '" + suggestion + "'?)";
    }
    return message;
}

double bit_accuracy(const bits::BitVec& recovered, const bits::BitVec& truth) {
    if (truth.empty()) return 0.0;
    const std::size_t overlap = std::min(recovered.size(), truth.size());
    std::size_t matches = 0;
    for (std::size_t i = 0; i < overlap; ++i) {
        if (recovered[i] == truth[i]) ++matches;
    }
    return static_cast<double>(matches) / static_cast<double>(truth.size());
}

std::string to_json(const AttackReport& r) {
    char buf[256];
    std::string out = "{\"scenario\":\"";
    append_json_escaped(out, r.scenario);
    out += "\",\"construction\":\"";
    append_json_escaped(out, r.construction);
    out += "\",\"attack\":\"";
    append_json_escaped(out, r.attack);
    out += "\",\"paper_ref\":\"";
    append_json_escaped(out, r.paper_ref);
    std::snprintf(buf, sizeof buf,
                  "\",\"key_bits\":%d,\"queries\":%lld,\"measurements\":%lld,"
                  "\"refused\":%lld,\"accuracy\":%.6f,\"key_recovered\":%s,\"complete\":%s,"
                  "\"outcome\":\"%s\",\"wall_ms\":%.3f",
                  r.key_bits, static_cast<long long>(r.queries),
                  static_cast<long long>(r.measurements), static_cast<long long>(r.refused),
                  r.accuracy, r.key_recovered ? "true" : "false",
                  r.complete ? "true" : "false",
                  std::string(to_string(r.outcome)).c_str(), r.wall_ms);
    out += buf;
    out += ",\"notes\":\"";
    append_json_escaped(out, r.notes);
    out += "\"";
    if (!r.trace.empty()) {
        out += ",\"trace\":[";
        for (std::size_t i = 0; i < r.trace.size(); ++i) {
            if (i > 0) out += ',';
            std::snprintf(buf, sizeof buf, "[%lld,%.6f]",
                          static_cast<long long>(r.trace[i].queries), r.trace[i].accuracy);
            out += buf;
        }
        out += "]";
    }
    out += "}";
    return out;
}

} // namespace ropuf::core
