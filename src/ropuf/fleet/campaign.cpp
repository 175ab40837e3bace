#include "ropuf/fleet/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "ropuf/core/errors.hpp"
#include "ropuf/core/pool.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/trace.hpp"

namespace ropuf::fleet {

namespace {

/// Measures one shard and reduces it to integer aggregates. Bitwise
/// deterministic in (spec, shard): streams are keyed on global device
/// ids, never on the caller.
void run_shard(const Population& population, const EnrollmentMap& enrollment, ShardRecord& o,
               std::vector<std::vector<double>>& scratch) {
    const FleetSpec& spec = population.spec();
    const std::uint64_t first = o.device_first;
    const std::size_t count = o.device_count;
    const std::size_t n = static_cast<std::size_t>(spec.ro_count());
    const int trials = spec.trials;
    const int wins = spec.majority_wins;
    o.success_hist.assign(static_cast<std::size_t>(trials) + 1, 0);

    sim::RoFleet fleet =
        population.manufacture_shard(first, count, Population::Phase::campaign);
    fleet.measure_batch(sim::Condition{}, trials * wins, scratch);

    for (std::size_t i = 0; i < count; ++i) {
        const EnrollmentRecord rec = enrollment.record(first + i);
        const std::vector<double>& meas = scratch[i];
        int ok_trials = 0;
        for (int t = 0; t < trials; ++t) {
            std::uint64_t errs = 0;
            for (int j = 0; j < spec.key_bits; ++j) {
                const std::size_t p = rec.helper[static_cast<std::size_t>(j)];
                int votes = 0;
                for (int s = 0; s < wins; ++s) {
                    const std::size_t scan = static_cast<std::size_t>(t * wins + s);
                    votes += meas[scan * n + 2 * p] > meas[scan * n + 2 * p + 1] ? 1 : 0;
                }
                const int bit = 2 * votes > wins ? 1 : 0;
                errs += static_cast<std::uint64_t>(bit != rec.key_bit(j));
            }
            o.bit_errors += errs;
            if (errs == 0) ++ok_trials;
        }
        o.trials_ok += static_cast<std::uint64_t>(ok_trials);
        if (ok_trials == trials) ++o.devices_ok;
        ++o.success_hist[static_cast<std::size_t>(ok_trials)];
    }
    o.measurements = static_cast<std::uint64_t>(count) * n *
                     static_cast<std::uint64_t>(trials * wins);
}

/// Folds one completed shard's aggregates into the run stats.
void fold(FleetRunStats& stats, const ShardRecord& o) {
    ++stats.executed;
    stats.devices += o.device_count;
    stats.devices_ok += o.devices_ok;
    stats.trials += o.device_count * o.trials;
    stats.trials_ok += o.trials_ok;
    stats.bit_errors += o.bit_errors;
    stats.measurements += o.measurements;
    stats.success_hist.resize(std::max(stats.success_hist.size(), o.success_hist.size()));
    for (std::size_t k = 0; k < o.success_hist.size(); ++k) {
        stats.success_hist[k] += o.success_hist[k];
    }
}

} // namespace

std::uint64_t shard_count(const Population& population) {
    return (population.devices() + kShardDevices - 1) / kShardDevices;
}

std::string shard_job_id(const std::string& spec_hash, std::uint64_t shard) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "-s%05llu", static_cast<unsigned long long>(shard));
    return spec_hash + buf;
}

std::string shard_record_line(const ShardRecord& r) {
    std::string line = "{";
    xp::append_identity(line, r);
    line += ",\"shard\":" + std::to_string(r.shard);
    line += ",\"device_first\":" + std::to_string(r.device_first);
    line += ",\"device_count\":" + std::to_string(r.device_count);
    if (!r.failed()) {
        line += ",\"key_bits\":" + std::to_string(r.key_bits);
        line += ",\"trials\":" + std::to_string(r.trials);
        line += ",\"majority_wins\":" + std::to_string(r.majority_wins);
        line += ",\"base_seed\":" + std::to_string(r.base_seed);
        line += ",\"devices_ok\":" + std::to_string(r.devices_ok);
        line += ",\"trials_ok\":" + std::to_string(r.trials_ok);
        line += ",\"bit_errors\":" + std::to_string(r.bit_errors);
        line += ",\"success_hist\":[";
        for (std::size_t k = 0; k < r.success_hist.size(); ++k) {
            if (k > 0) line += ',';
            line += std::to_string(r.success_hist[k]);
        }
        line += "],\"measurements\":" + std::to_string(r.measurements);
    }
    line += r.failed() ? ",\"outcome\":\"job_failed\"" : ",\"outcome\":\"ok\"";
    xp::append_host_tail(line, r);
    line += '}';
    return line;
}

ShardRecord decode_shard_record(const xp::JsonValue& doc) {
    ShardRecord r;
    xp::decode_envelope(doc, r);
    if (doc.find("shard") == nullptr) throw std::logic_error("not a fleet shard record");
    const auto field = [&doc](const char* key) { return doc.u64_or(key, 0); };
    r.shard = field("shard");
    r.device_first = field("device_first");
    r.device_count = field("device_count");
    r.key_bits = field("key_bits");
    r.trials = field("trials");
    r.majority_wins = field("majority_wins");
    r.base_seed = field("base_seed");
    r.devices_ok = field("devices_ok");
    r.trials_ok = field("trials_ok");
    r.bit_errors = field("bit_errors");
    r.measurements = field("measurements");
    if (const xp::JsonValue* hist = doc.find("success_hist"); hist != nullptr && hist->is_array()) {
        for (const xp::JsonValue& bin : hist->as_array()) {
            const double v = bin.type() == xp::JsonValue::Type::Number ? bin.as_number() : -1.0;
            if (!(v >= 0.0 && v < 0x1p64)) throw std::logic_error("bad success_hist bin");
            r.success_hist.push_back(static_cast<std::uint64_t>(v));
        }
    }
    return r;
}

FleetRunStats read_campaign_results(const std::string& path, xp::ReadStats* stats) {
    std::map<std::string, ShardRecord> latest;
    xp::read_record_lines(
        path,
        [&latest](const xp::JsonValue& doc) {
            ShardRecord r = decode_shard_record(doc);
            const std::string id = r.job_id;
            latest[id] = std::move(r);
        },
        stats);
    FleetRunStats out;
    out.total_shards = latest.size();
    for (const auto& [id, r] : latest) {
        if (r.failed()) {
            ++out.failed;
        } else {
            fold(out, r);
        }
    }
    return out;
}

std::string population_summary(const FleetRunStats& s) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "population: %llu/%llu devices all-trials-ok, %llu/%llu trials ok, "
                  "%llu bit error(s)\n",
                  static_cast<unsigned long long>(s.devices_ok),
                  static_cast<unsigned long long>(s.devices),
                  static_cast<unsigned long long>(s.trials_ok),
                  static_cast<unsigned long long>(s.trials),
                  static_cast<unsigned long long>(s.bit_errors));
    return buf;
}

FleetRunStats run_fleet_campaign(const Population& population,
                                 const EnrollmentMap& enrollment,
                                 xp::ResultWriter& writer,
                                 const FleetCampaignOptions& options) {
    const FleetSpec& spec = population.spec();
    if (enrollment.header().spec_hash != fleet_spec_hash_u64(spec)) {
        throw xp::SpecError("enrollment store does not match this fleet spec");
    }
    if (enrollment.valid_records() < spec.devices) {
        throw xp::SpecError(
            "enrollment store is incomplete (" +
            std::to_string(enrollment.valid_records()) + " of " +
            std::to_string(spec.devices) + " devices) — run fleet enroll first");
    }

    FleetRunStats stats;
    stats.success_hist.assign(static_cast<std::size_t>(spec.trials) + 1, 0);
    stats.total_shards = shard_count(population);

    // The dispatch list: pending shards in shard order, optionally
    // truncated by max_shards — a deterministic interruption point that
    // does not depend on worker count (unlike "stop after K completions").
    const std::string hash = fleet_spec_hash(spec);
    const std::set<std::string> done = xp::completed_job_ids(writer.path(), hash);
    std::vector<std::uint64_t> pending;
    for (std::uint64_t s = 0; s < stats.total_shards; ++s) {
        if (done.count(shard_job_id(hash, s)) == 0) pending.push_back(s);
    }
    stats.skipped = stats.total_shards - pending.size();
    // A max_shards cut is a clean quota, not an interruption: the caller
    // sees the remaining shards via total_shards - skipped - executed and
    // `stopped` stays reserved for SIGINT (exit-code parity with xp's
    // --max-jobs semantics).
    if (options.max_shards >= 0 &&
        pending.size() > static_cast<std::size_t>(options.max_shards)) {
        pending.resize(static_cast<std::size_t>(options.max_shards));
    }

    obs::Registry* const reg = obs::registry();
    if (reg != nullptr) {
        reg->set(reg->gauge("xp.jobs_total"), static_cast<double>(stats.total_shards));
        // Same uniform accounting as the xp executor: skipped shards are
        // finished work credited at dispatch, excluded from the progress
        // EMA via the parallel xp.jobs_skipped counter.
        reg->add(reg->counter("xp.jobs_done"), static_cast<double>(stats.skipped));
        reg->add(reg->counter("xp.jobs_skipped"), static_cast<double>(stats.skipped));
    }

    const core::WorkPool pool(pending.size(), options.workers, options.stop);
    // What every record of this run shares, host stamp included.
    ShardRecord run_record;
    run_record.spec_name = spec.name;
    run_record.spec_hash = hash;
    run_record.workers = pool.workers();
    run_record.key_bits = spec.key_bits;
    run_record.trials = spec.trials;
    run_record.majority_wins = spec.majority_wins;
    run_record.base_seed = spec.base_seed;
    xp::stamp_host(run_record);
    // Records reach the writer in `pending` order no matter which worker
    // finishes first, so the bytes on disk are schedule-independent.
    core::OrderedCommitter<ShardRecord> committer([&](ShardRecord& o) {
        if (o.failed()) {
            ++stats.failed;
        } else {
            fold(stats, o);
        }
        try {
            writer.append_line(shard_record_line(o));
        } catch (const std::exception&) {
            // Store fault (injected or real): the record is lost, the
            // shard stays incomplete on disk, resume re-runs it. The
            // writer has already marked its torn tail.
            ++stats.store_faults;
        }
    });
    std::vector<std::vector<std::vector<double>>> scratch(
        static_cast<std::size_t>(pool.workers()));

    stats.stopped = pool.run([&](std::size_t i, int w) {
        ShardRecord o = run_record;
        o.shard = pending[i];
        o.job_id = shard_job_id(hash, o.shard);
        o.device_first = o.shard * kShardDevices;
        o.device_count = std::min<std::uint64_t>(kShardDevices, spec.devices - o.device_first);
        const auto t0 = std::chrono::steady_clock::now();
        const std::optional<core::JobError> error = core::run_attempt(
            options.injector, static_cast<int>(o.shard), o.attempts, /*timeout_ms=*/0.0,
            [&](core::Deadline) {
                std::string shard_args;
                if (obs::trace() != nullptr) {
                    shard_args = "{\"shard\":" + std::to_string(o.shard) + "}";
                }
                const obs::Span shard_span("fleet.shard", std::move(shard_args));
                run_shard(population, enrollment, o, scratch[static_cast<std::size_t>(w)]);
            });
        o.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (!error) {
            o.trial_wall_ms_sum = o.wall_ms;
            if (o.wall_ms > 0.0) {
                o.measurements_per_s = static_cast<double>(o.measurements) * 1e3 / o.wall_ms;
            }
            ROPUF_OBS_COUNT("xp.jobs_done", 1);
            ROPUF_OBS_COUNT("fleet.shards_done", 1);
            ROPUF_OBS_COUNT("fleet.devices_done", o.device_count);
            ROPUF_OBS_COUNT("campaign.trials",
                            static_cast<double>(o.device_count) * spec.trials);
        } else {
            o.outcome = "job_failed";
            o.error_class = std::string(core::job_error_class_name(error->cls));
            o.error_message = error->message;
            core::note_quarantined(*error);
        }
        committer.commit(i, std::move(o));
    });
    return stats;
}

} // namespace ropuf::fleet
