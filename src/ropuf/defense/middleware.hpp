// Device-side countermeasure middleware — the defense half of the arms race.
//
// The paper's Section VII sketches exactly one countermeasure (precise
// helper-data validation); the related literature motivates a whole family:
// hash/MAC binding of helper data (Fischer's shaped/coded-modulation helper
// data schemes), tamper/consistency protection of the reconstruction path
// (Maringer & Hiller), and classic device hardening (failure lockout, rate
// limiting). Each countermeasure here is an oracle middleware that composes
// around any core::AnyOracle, exactly like core::BudgetedOracle — so one
// victim can be defended by any stack, e.g.
//
//   Budgeted(RateLimit(Filter[mac](oracle)))
//
// and the attack layer never learns which defenses are interposed except
// through the verdicts themselves. Three shapes cover the registry:
// FilterOracle judges each probe on its own blob (sanity, crc, mac,
// noisyrefusal), LockoutOracle bricks on the failures it has seen, and
// RateLimitOracle serves a prefix of each burst.
//
// Shared refusal contract: a refused probe reads as an observable
// regeneration failure, costs the attacker one query, but never reaches the
// silicon — stats() reports it under both `queries` and `refused` with zero
// measurements. The one deliberate exception is a FilterOracle with a
// fail_probability below 1 (`noisyrefusal`), whose refusals are answered
// from a deterministic coin so they are statistically indistinguishable
// from genuine failures.
//
// Every middleware implements DefenseOracle, the uniform introspection
// surface (refused(), locked()) the scenario driver uses to classify a run
// as refused_by_defense or locked_out.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ropuf/core/oracle.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::defense {

/// Uniform introspection for outcome classification: how many probes this
/// defense rejected, and whether the device has permanently bricked itself.
class DefenseOracle : public core::OracleBase {
public:
    virtual std::int64_t refused() const = 0;
    virtual bool locked() const { return false; }
};

/// Per-probe admission filter — the one shape behind `sanity` (structural
/// validation, the paper's own Section VII countermeasure), `crc`
/// (canonical re-encoding), `mac` (hash binding of the enrolled blob) and
/// `noisyrefusal`. `accept` runs once per probe, in probe order; contiguous
/// accepted runs are forwarded to `inner` as whole batches, so the victim's
/// amortized noise draws keep their batch shape. A refusal reads "failed",
/// or — when `fail_probability` < 1 — the answer of a deterministic coin
/// drawn from `seed` at that refusal: an attack can then no longer treat
/// "this probe failed" as "this probe was refused", and must tell refusal
/// noise from measurement noise statistically.
class FilterOracle final : public DefenseOracle {
public:
    using Accept = std::function<bool(const helperdata::Nvm&)>;

    FilterOracle(core::AnyOracle inner, Accept accept, double fail_probability = 1.0,
                 std::uint64_t seed = 0);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }

private:
    core::AnyOracle inner_;
    Accept accept_;
    double fail_probability_;
    rng::Xoshiro256pp rng_;
    std::int64_t refused_ = 0;
};

/// Response-side lockout: after `max_failures` observable regeneration
/// failures the device bricks itself — every further probe is refused
/// without reaching the silicon. Hypothesis-testing attacks inherently
/// produce failures, so a tight threshold stops them all; the price is that
/// an honest user's noisy regenerations spend the same budget.
class LockoutOracle final : public DefenseOracle {
public:
    LockoutOracle(core::AnyOracle inner, int max_failures);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }
    bool locked() const override { return locked_; }

    int failures_observed() const { return failures_; }

private:
    core::AnyOracle inner_;
    int max_failures_;
    int failures_ = 0;
    bool locked_ = false;
    std::int64_t refused_ = 0;
};

/// Rate limiting / probe-batch caps: the device serves at most
/// `max_queries` regenerations over its lifetime and at most `max_batch`
/// probes of any one burst; everything beyond is refused, and exhausting the
/// lifetime allowance bricks the device.
class RateLimitOracle final : public DefenseOracle {
public:
    RateLimitOracle(core::AnyOracle inner, std::int64_t max_queries, std::int64_t max_batch);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }
    bool locked() const override { return served_ >= max_queries_; }

    std::int64_t served() const { return served_; }

private:
    core::AnyOracle inner_;
    std::int64_t max_queries_;
    std::int64_t max_batch_;
    std::int64_t served_ = 0;
    std::int64_t refused_ = 0;
};

} // namespace ropuf::defense
