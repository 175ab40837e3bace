#include "ropuf/xp/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "ropuf/core/campaign.hpp"
#include "ropuf/defense/registry.hpp"

namespace ropuf::xp {

std::vector<std::string> resolve_scenarios(const SweepSpec& spec,
                                           const core::ScenarioRegistry& registry) {
    std::vector<std::string> out;
    const auto push_unique = [&out](const std::string& name) {
        if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
    };
    if (spec.all_scenarios) {
        for (const auto& scenario : registry.scenarios()) push_unique(scenario.name);
        return out;
    }
    for (const auto& name : spec.scenarios) {
        if (registry.find(name) == nullptr) {
            throw SpecError(core::unknown_name_message("scenario", name, registry.names()));
        }
        push_unique(name);
    }
    for (const auto& kind : spec.constructions) {
        bool matched = false;
        for (const auto& scenario : registry.scenarios()) {
            if (scenario.construction == kind) {
                push_unique(scenario.name);
                matched = true;
            }
        }
        if (!matched) {
            std::vector<std::string> kinds;
            for (const auto& scenario : registry.scenarios()) {
                if (std::find(kinds.begin(), kinds.end(), scenario.construction) ==
                    kinds.end()) {
                    kinds.push_back(scenario.construction);
                }
            }
            throw SpecError(core::unknown_name_message("construction", kind, kinds));
        }
    }
    return out;
}

Plan plan_spec(const SweepSpec& spec, const core::ScenarioRegistry& registry) {
    Plan plan;
    plan.spec_name = spec.name;

    const auto scenarios = resolve_scenarios(spec, registry);
    if (scenarios.empty()) throw SpecError("spec expands to zero jobs: no scenarios resolved");
    if (grid_points(spec, scenarios.size()) > kMaxGridPoints) {
        throw SpecError("spec plans more than " + std::to_string(kMaxGridPoints) + " jobs");
    }

    // Defense tokens resolve against the registry too: unknown names fail
    // here (with a did-you-mean), and canonicalization fills in registry
    // defaults, so `lockout` and `lockout(32)` are the same grid point.
    std::vector<std::string> defenses;
    defenses.reserve(spec.defense.size());
    for (const auto& token : spec.defense) {
        try {
            defenses.push_back(
                defense::canonical_token(token, defense::default_registry()));
        } catch (const std::invalid_argument& e) {
            throw SpecError(e.what());
        }
    }

    // Cross-compatibility check: a scenario that cannot honor a requested
    // defense must fail HERE, not as a mid-sweep std::invalid_argument that
    // aborts the run and leaves resume permanently re-hitting the same job.
    for (const auto& name : scenarios) {
        const core::Scenario* scenario = registry.find(name);
        if (scenario == nullptr || scenario->allowed_defenses.empty()) continue;
        for (const auto& token : defenses) {
            const std::string kind = defense::parse_defense_token(token).name;
            if (std::find(scenario->allowed_defenses.begin(),
                          scenario->allowed_defenses.end(),
                          kind) == scenario->allowed_defenses.end()) {
                throw SpecError("scenario '" + name + "' cannot run with defense=" + token +
                                " (supported: " + [&] {
                                    std::string list;
                                    for (const auto& d : scenario->allowed_defenses) {
                                        if (!list.empty()) list += ", ";
                                        list += d;
                                    }
                                    return list;
                                }() + ") — narrow the spec's scenario or defense axis");
            }
        }
    }

    // Content-address the *resolved* grid: `scenarios = all` (and
    // construction selectors) expand against the live registry, so the same
    // spec text plans a different grid once a new scenario is registered.
    // Hashing the resolved list keeps the job-index -> grid-point mapping a
    // pure function of the hash — a resume against a grown registry sees a
    // new hash and re-runs, instead of silently mapping old job IDs onto
    // different points. Defense tokens are hashed with their registry
    // defaults filled in for the same reason.
    SweepSpec resolved = spec;
    resolved.all_scenarios = false;
    resolved.scenarios = scenarios;
    resolved.constructions.clear();
    resolved.defense = defenses;
    plan.hash = spec_hash(resolved);

    // Fixed nesting order — the job-index contract documented in the header.
    for (const auto& scenario : scenarios) {
        for (const auto& [cols, rows] : spec.geometry) {
            for (const double sigma : spec.sigma_noise_mhz) {
                for (const double ambient : spec.ambient_c) {
                    for (const int majority : spec.majority_wins) {
                        for (const auto& [ecc_m, ecc_t] : spec.ecc) {
                            for (const int budget : spec.query_budget) {
                                for (const std::string& defense : defenses) {
                                    for (const int trials : spec.trials) {
                                        for (const std::uint64_t root : spec.master_seed) {
                                            Job job;
                                            job.index = static_cast<int>(plan.jobs.size());
                                            job.scenario = scenario;
                                            job.params.cols = cols;
                                            job.params.rows = rows;
                                            job.params.sigma_noise_mhz = sigma;
                                            job.params.ambient_c = ambient;
                                            job.params.majority_wins = majority;
                                            job.params.ecc_m = ecc_m;
                                            job.params.ecc_t = ecc_t;
                                            job.params.query_budget = budget;
                                            job.params.defense = defense;
                                            job.trials = trials;
                                            job.root_seed = root;
                                            char buf[32];
                                            std::snprintf(buf, sizeof buf, "-%05d", job.index);
                                            job.id = plan.hash + buf;
                                            plan.jobs.push_back(std::move(job));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Derive the campaign seeds in one split()-stream walk per distinct
    // root: job i's seed is the first output of the i-th stream of
    // Xoshiro256pp(root), exactly CampaignRunner::job_seed(root, i).
    std::map<std::uint64_t, std::vector<std::uint64_t>> streams;
    for (const std::uint64_t root : spec.master_seed) {
        if (!streams.count(root)) {
            streams[root] = core::CampaignRunner::trial_seeds(
                root, static_cast<int>(plan.jobs.size()));
        }
    }
    for (auto& job : plan.jobs) {
        job.campaign_seed = streams[job.root_seed][static_cast<std::size_t>(job.index)];
    }
    return plan;
}

} // namespace ropuf::xp
