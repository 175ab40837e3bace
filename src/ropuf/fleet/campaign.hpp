// Fleet campaigns: reconstruction trials over an enrolled population,
// sharded over devices, run on the shared work pool, aggregated streaming.
//
// Execution model
// ---------------
// The population splits into fixed shards of kShardDevices consecutive
// devices. Shards — not trials, not devices — are the scheduling unit:
// the run's pending shards form the index range of one core::WorkPool
// (core/pool.hpp), whose workers claim the next shard from a shared
// atomic counter. A slow shard (or a hang-injected one) holds up only the
// worker running it; the others keep claiming the shards behind it.
//
// Determinism
// -----------
// Bitwise-identical output across worker counts and schedules, by
// construction:
//   * every measurement of device d draws from streams keyed on
//     (campaign phase, d) — never on the worker or the schedule;
//   * shard aggregates are integers, accumulated per shard;
//   * shard records reach the JSONL writer through core::OrderedCommitter
//     in shard order, so the bytes on disk are schedule-independent.
// The {1, 2, 8}-worker and hang-skew pins in tests/test_fleet.cpp hold
// the property.
//
// Fault tolerance mirrors xp: each shard runs as one core::run_attempt
// keyed on its shard index (the same fi job seam, failure classes, fault
// counters and trace instants as an xp job; one attempt, no deadline). A
// faulted shard writes a quarantine record (`outcome:"job_failed"`) and
// resume retries it; SIGINT stops dispatch between shards and the run
// remains resumable.
//
// Records
// -------
// A shard record is an xp record (xp/result_store.hpp) with a shard body:
// xp's identity keys, the shard's deterministic aggregates, then xp's
// timing/fault/obs tail. xp's reader, deterministic prefix, resume skip
// set (completed_job_ids on shard_job_id) and salvage warning therefore
// apply unchanged, and `ropuf report` reads a campaign's file.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/xp/result_store.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::fleet {

struct FleetCampaignOptions {
    int workers = 1; ///< pool workers; 0 = hardware concurrency (see core::WorkPool)
    /// Dispatch at most this many not-yet-done shards (< 0 = all): the
    /// deterministic interruption knob resume tests drive.
    long long max_shards = -1;
    fi::Injector* injector = nullptr;
    const std::atomic<bool>* stop = nullptr; ///< SIGINT flag (may be null)
};

/// Streaming aggregates of one run. All device/trial counts are exact
/// integers — associative and commutative, so worker count cannot change
/// them.
struct FleetRunStats {
    std::uint64_t total_shards = 0;
    std::uint64_t skipped = 0;    ///< already present (resume)
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;     ///< quarantined shards
    std::uint64_t devices = 0;    ///< devices measured by this run
    std::uint64_t devices_ok = 0; ///< devices with every trial successful
    std::uint64_t trials = 0;
    std::uint64_t trials_ok = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t measurements = 0;
    /// Always 0: the shared pool has no per-worker queues to steal from.
    /// Kept because external drivers still read it.
    std::uint64_t steals = 0;
    std::uint64_t store_faults = 0; ///< records lost to store faults (resume re-runs)
    /// success_hist[k] = devices for which exactly k trials succeeded.
    std::vector<std::uint64_t> success_hist;
    /// SIGINT stopped dispatch early. A max_shards quota does NOT set this
    /// (it is a clean, deterministic cut); remaining work is
    /// total_shards - skipped - executed - failed either way.
    bool stopped = false;
};

/// One shard's record: the xp envelope plus the shard body. Quarantine
/// records carry shard, device_first and device_count only.
struct ShardRecord : xp::RecordEnvelope {
    std::uint64_t shard = 0;
    std::uint64_t device_first = 0;
    std::uint64_t device_count = 0;
    std::uint64_t key_bits = 0;
    std::uint64_t trials = 0; ///< per device
    std::uint64_t majority_wins = 0;
    std::uint64_t base_seed = 0;
    std::uint64_t devices_ok = 0;
    std::uint64_t trials_ok = 0;
    std::uint64_t bit_errors = 0;
    std::vector<std::uint64_t> success_hist; ///< trials + 1 bins
    std::uint64_t measurements = 0;
};

/// Shards of a population: ceil(devices / kShardDevices).
std::uint64_t shard_count(const Population& population);

/// The JSONL job id of shard s: "<spec_hash>-s<%05d>".
std::string shard_job_id(const std::string& spec_hash, std::uint64_t shard);

/// The record line: xp's identity keys, the shard body, xp's host tail.
std::string shard_record_line(const ShardRecord& record);

/// A parsed shard line back; std::logic_error when it is not one.
ShardRecord decode_shard_record(const xp::JsonValue& doc);

/// What a results file adds up to: the last record of each shard wins (a
/// resumed shard's ok record supersedes its quarantine), ok ones folded,
/// failed ones counted. Equals the FleetRunStats of the run that wrote it.
FleetRunStats read_campaign_results(const std::string& path, xp::ReadStats* stats = nullptr);

/// The `population: …` line `fleet campaign` and `report` print.
std::string population_summary(const FleetRunStats& stats);

/// Runs (or resumes) the campaign, appending one record per shard to
/// `writer`. Throws xp::SpecError on setup errors (store/spec mismatch).
FleetRunStats run_fleet_campaign(const Population& population,
                                 const EnrollmentMap& enrollment,
                                 xp::ResultWriter& writer,
                                 const FleetCampaignOptions& options);

} // namespace ropuf::fleet
