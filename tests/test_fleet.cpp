// ropuf::fleet — the device-population engine's contracts.
//
// The load-bearing properties, each pinned here:
//   * order independence: a device manufactured / measured / enrolled alone
//     is bit-identical to the same device inside any shard;
//   * scheduler determinism: campaign output bytes (deterministic prefixes)
//     and enrollment store bytes are identical across {1, 2, 8} workers,
//     under a forced schedule skew (fi job_hang), and across interrupted
//     (stop flag, quota, store fault) then resumed runs;
//   * binary-store crash tolerance: truncating the store at EVERY byte
//     offset of its tail record loses at most that record, the reader
//     never throws, and a resumed writer rebuilds the clean file bitwise
//     (the fixed-width mirror of test_xp_store's torn-line property);
//   * fleet-scale: a 100k-device population enrolls and campaigns with
//     shard-local memory, bitwise identical across worker counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/stats.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

// Three shards (64 + 64 + 32 devices), two wafers, noisy enough that some
// reconstruction trials flip bits (the aggregate paths beyond "all ok" are
// exercised), small enough for every sanitizer.
constexpr const char* kSpecText =
    "name            = fleet_test\n"
    "devices         = 160\n"
    "wafer_size      = 128\n"
    "wafer_cols      = 16\n"
    "geometry        = 8x4\n"
    "key_bits        = 12\n"
    "enroll_samples  = 5\n"
    "majority_wins   = 3\n"
    "trials          = 3\n"
    "sigma_noise_mhz = 0.25\n"
    "base_seed       = 99\n";

std::string temp_path(const char* stem, const char* ext = ".jsonl") {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ext;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

void enroll_into(const fleet::Population& population, const std::string& store_path,
                 int workers = 1) {
    fleet::EnrollmentWriter writer(store_path, fleet::make_store_header(population.spec()),
                                   /*truncate=*/true);
    fleet::enroll_population(population, writer, workers);
    ASSERT_EQ(writer.next_device(), population.devices());
}

fleet::FleetRunStats run_campaign(const fleet::Population& population,
                                  const std::string& store_path,
                                  const std::string& results_path, int workers,
                                  long long max_shards = -1,
                                  fi::Injector* injector = nullptr) {
    const fleet::EnrollmentMap enrollment(store_path);
    xp::ResultWriter writer(results_path, /*truncate=*/false);
    fleet::FleetCampaignOptions opts;
    opts.workers = workers;
    opts.max_shards = max_shards;
    opts.injector = injector;
    if (injector != nullptr) writer.set_fault_injector(injector);
    return fleet::run_fleet_campaign(population, enrollment, writer, opts);
}

// ---------------------------------------------------------------------------
// Spec parsing and content addressing
// ---------------------------------------------------------------------------

TEST(FleetSpec, CanonicalTextRoundTripsAndHashesStably) {
    const fleet::FleetSpec spec = fleet::parse_fleet_spec(kSpecText);
    EXPECT_EQ(spec.devices, 160u);
    EXPECT_EQ(spec.ro_count(), 32);
    EXPECT_EQ(spec.wafers(), 2u);
    // Canonical form is a fixed point: parsing it back changes nothing.
    const fleet::FleetSpec again = fleet::parse_fleet_spec(fleet::canonical_text(spec));
    EXPECT_EQ(fleet::canonical_text(again), fleet::canonical_text(spec));
    EXPECT_EQ(fleet::fleet_spec_hash(again), fleet::fleet_spec_hash(spec));
    // The raw and hex forms of the hash agree.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fleet::fleet_spec_hash_u64(spec)));
    EXPECT_EQ(fleet::fleet_spec_hash(spec), hex);
}

TEST(FleetSpec, RejectsInvalidPopulations) {
    EXPECT_THROW((void)fleet::parse_fleet_spec("name = x\n"), xp::SpecError); // no devices
    EXPECT_THROW((void)fleet::parse_fleet_spec("devices = 4\n"), xp::SpecError); // no name
    EXPECT_THROW((void)fleet::parse_fleet_spec("name = x\ndevices = 4\nbogus_key = 1\n"),
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\ndevices = 5\n"), // duplicate key
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\ngeometry = 8x4\nkey_bits = 17\n"), // > pairs
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nmajority_wins = 4\n"), // even vote
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nwafer_size = 10\nwafer_cols = 4\n"),
                 xp::SpecError);
    // Out-of-range integers are errors, never wrapped into another spec's
    // hash: 2^64 + 42 would read as base_seed 42, 2^32 + 64 as wafer_size 64.
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nbase_seed = 18446744073709551658\n"),
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 18446744073709551616\n"),
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nwafer_size = 4294967360\n"),
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nwafer_cols = 4294967304\n"),
                 xp::SpecError);
    try {
        (void)fleet::parse_fleet_spec(
            "name = x\ndevices = 4\nbase_seed = 18446744073709551616\n");
        ADD_FAILURE() << "2^64 accepted as a base_seed";
    } catch (const xp::SpecError& e) {
        EXPECT_EQ(e.line(), 3) << e.what();
    }
    // The largest values of each width still parse.
    const fleet::FleetSpec widest = fleet::parse_fleet_spec(
        "name = x\ndevices = 4\nwafer_size = 4294967295\nwafer_cols = 1\n"
        "base_seed = 18446744073709551615\n");
    EXPECT_EQ(widest.wafer_size, 4294967295u);
    EXPECT_EQ(widest.base_seed, 18446744073709551615ull);
}

// ---------------------------------------------------------------------------
// Population: order independence of manufacture, measurement, enrollment
// ---------------------------------------------------------------------------

TEST(FleetPopulation, DeviceMeasuresIdenticallyAloneAndInShard) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    // Device 70 sits mid-shard-1; measure it alone and as part of its shard.
    const std::uint64_t d = 70;
    std::vector<std::vector<double>> alone, shard;
    population.manufacture_shard(d, 1, fleet::Population::Phase::campaign)
        .measure_batch(sim::Condition{}, 9, alone);
    population.manufacture_shard(64, 64, fleet::Population::Phase::campaign)
        .measure_batch(sim::Condition{}, 9, shard);
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(shard.size(), 64u);
    EXPECT_EQ(alone[0], shard[d - 64]); // bitwise: streams key on the global id
    // The enroll phase must draw different noise than the campaign phase.
    std::vector<std::vector<double>> enroll_scans;
    population.manufacture_shard(d, 1, fleet::Population::Phase::enroll)
        .measure_batch(sim::Condition{}, 9, enroll_scans);
    EXPECT_NE(alone[0], enroll_scans[0]);
}

TEST(FleetPopulation, WaferCoeffsSharedWithinAndDistinctAcrossWafers) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const fleet::WaferCoeffs w0 = population.wafer_coeffs(0);
    const fleet::WaferCoeffs w1 = population.wafer_coeffs(1);
    EXPECT_NE(w0.grad_x_mhz, w1.grad_x_mhz);
    // Devices 0 and 127 share wafer 0: identical shared tilt contribution.
    EXPECT_EQ(population.wafer_of(0), 0u);
    EXPECT_EQ(population.wafer_of(127), 0u);
    EXPECT_EQ(population.wafer_of(128), 1u);
    const sim::ProcessParams a = population.device_params(0);
    const sim::ProcessParams b = population.device_params(1);
    // Per-die residuals differ, but both carry the same wafer tilt: the
    // difference of their gradients is die-level only, so it is bounded by
    // a few die_grad sigmas while the wafer tilt itself can be much larger.
    EXPECT_NE(a.gradient_x_mhz, b.gradient_x_mhz);
}

TEST(FleetEnroll, SingleDeviceEnrollmentMatchesShardedEnrollment) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("enr", ".fleet");
    enroll_into(population, store_path);
    const fleet::EnrollmentMap store(store_path);
    ASSERT_EQ(store.valid_records(), population.devices());
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{64},
                            std::uint64_t{100}, std::uint64_t{159}}) {
        const fleet::EnrollmentRecord alone = fleet::enroll_device(population, d);
        const fleet::EnrollmentRecord stored = store.record(d);
        EXPECT_EQ(stored.device, d);
        EXPECT_EQ(alone.key_words, stored.key_words) << "device " << d;
        EXPECT_EQ(alone.helper, stored.helper) << "device " << d;
    }
    std::remove(store_path.c_str());
}

TEST(FleetEnroll, StoreBytesAreIdenticalAcrossWorkerCounts) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string base_path = temp_path("enr_w1", ".fleet");
    enroll_into(population, base_path, 1);
    const std::string base = read_bytes(base_path);
    for (const int workers : {2, 8}) {
        const std::string path = temp_path("enr_wn", ".fleet");
        enroll_into(population, path, workers);
        EXPECT_EQ(read_bytes(path), base) << workers << " workers";
        std::remove(path.c_str());
    }
    std::remove(base_path.c_str());
}

TEST(FleetEnroll, StoppedParallelEnrollResumesToTheCleanBytes) {
    fleet::FleetSpec spec = fleet::parse_fleet_spec(kSpecText);
    spec.devices = 16384; // 256 shards: long enough to stop part-way through
    const fleet::Population population(spec);
    const std::string clean_path = temp_path("enr_stop_clean", ".fleet");
    enroll_into(population, clean_path, 4);

    const std::string path = temp_path("enr_stop", ".fleet");
    const std::uintmax_t one_shard =
        fleet::kStoreHeaderBytes + fleet::kShardDevices * fleet::record_bytes_for(spec.key_bits);
    std::atomic<bool> stop{false};
    std::uint64_t first = 0;
    {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(spec), /*truncate=*/true);
        // Records are flushed one by one, so the file size shows progress:
        // raise the flag (as the SIGINT handler would) once a shard landed.
        std::thread stopper([&] {
            while (std::filesystem::file_size(path) < one_shard) std::this_thread::yield();
            stop.store(true, std::memory_order_relaxed);
        });
        first = fleet::enroll_population(population, writer, 4, &stop);
        stopper.join();
    }
    // Claimed shards always finish, so the stopped store is whole shards.
    EXPECT_GE(first, fleet::kShardDevices);
    EXPECT_EQ(first % fleet::kShardDevices, 0u);
    {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(spec));
        EXPECT_EQ(writer.next_device(), first);
        EXPECT_EQ(fleet::enroll_population(population, writer, 4), spec.devices - first);
    }
    EXPECT_EQ(read_bytes(path), read_bytes(clean_path));
    std::remove(path.c_str());
    std::remove(clean_path.c_str());
}

TEST(FleetEnroll, StoreFaultsThenRetryReachTheCleanBytes) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string clean_path = temp_path("enr_fault_clean", ".fleet");
    enroll_into(population, clean_path);
    const std::string clean = read_bytes(clean_path);
    std::vector<int> faults;
    for (const int workers : {1, 4}) {
        const std::string path = temp_path("enr_fault", ".fleet");
        fi::Injector injector(
            fi::parse_fault_plan("seed(7);store_write_fail(p=0.02);torn_write(every=29)"));
        int seen = 0;
        {
            fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()),
                                           /*truncate=*/true);
            writer.set_fault_injector(&injector);
            // The CLI's retry loop: a fault escapes enroll_population and
            // the next call resumes at the faulted record.
            while (writer.next_device() < population.devices()) {
                try {
                    fleet::enroll_population(population, writer, workers);
                } catch (const fi::InjectedFault&) {
                    ++seen;
                    ASSERT_LT(seen, 100) << "fault plan never lets the store finish";
                }
            }
        }
        EXPECT_GT(seen, 0);
        EXPECT_EQ(read_bytes(path), clean) << workers << " workers";
        faults.push_back(seen);
        std::remove(path.c_str());
    }
    // Records reach the writer in the same order at every worker count,
    // so the injector fires on the same appends.
    EXPECT_EQ(faults[0], faults[1]);
    std::remove(clean_path.c_str());
}

// ---------------------------------------------------------------------------
// Binary store: torn tails at every byte offset (the fixed-width mirror of
// test_xp_store's torn-line property)
// ---------------------------------------------------------------------------

TEST(FleetStore, TruncationAtEveryTailOffsetLosesAtMostOneRecord) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("torn", ".fleet");
    enroll_into(population, store_path);
    const std::string clean = read_bytes(store_path);
    const std::size_t record_bytes =
        fleet::record_bytes_for(population.spec().key_bits);
    ASSERT_EQ(clean.size(), fleet::kStoreHeaderBytes + 160 * record_bytes);

    // Cut the file at every offset inside the last record (including the
    // empty cut): the reader must expose exactly the 159 intact records.
    for (std::size_t cut = 0; cut < record_bytes; ++cut) {
        write_bytes(store_path, clean.substr(0, clean.size() - record_bytes + cut));
        const fleet::EnrollmentMap store(store_path);
        EXPECT_EQ(store.valid_records(), 159u) << "cut " << cut;
        EXPECT_EQ(store.torn_tail_bytes(), cut) << "cut " << cut;
        EXPECT_EQ(store.record(158).device, 158u);
    }

    // Resume over a torn tail: the writer re-enrolls from the torn record
    // on and the rebuilt file is byte-identical to the never-torn one —
    // whether one record or most of the population is missing, and at
    // any worker count.
    for (const std::uint64_t torn : {std::uint64_t{159}, std::uint64_t{20}}) {
        for (const int workers : {1, 8}) {
            write_bytes(store_path, clean.substr(0, fleet::kStoreHeaderBytes +
                                                        torn * record_bytes +
                                                        record_bytes / 2));
            {
                fleet::EnrollmentWriter writer(store_path,
                                               fleet::make_store_header(population.spec()));
                EXPECT_EQ(writer.next_device(), torn);
                EXPECT_EQ(fleet::enroll_population(population, writer, workers), 160 - torn);
                EXPECT_EQ(writer.next_device(), 160u);
            }
            EXPECT_EQ(read_bytes(store_path), clean) << "torn " << torn << ", " << workers
                                                     << " workers";
        }
    }
    std::remove(store_path.c_str());
}

TEST(FleetStore, CorruptedRecordTruncatesTheValidPrefix) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("corrupt", ".fleet");
    enroll_into(population, store_path);
    std::string bytes = read_bytes(store_path);
    const std::size_t record_bytes =
        fleet::record_bytes_for(population.spec().key_bits);
    // Flip one byte inside record 40: records 0..39 stay visible — a fleet
    // campaign must never reconstruct against a checksum-failed enrollment.
    bytes[fleet::kStoreHeaderBytes + 40 * record_bytes + 5] ^= 0x01;
    write_bytes(store_path, bytes);
    const fleet::EnrollmentMap store(store_path);
    EXPECT_EQ(store.valid_records(), 40u);
    std::remove(store_path.c_str());
}

TEST(FleetStore, ReopenRejectsAMismatchedSpec) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("mismatch", ".fleet");
    enroll_into(population, store_path);
    fleet::FleetSpec other = population.spec();
    other.base_seed = 1234; // different population, same shape
    EXPECT_THROW(fleet::EnrollmentWriter(store_path, fleet::make_store_header(other)),
                 xp::SpecError);
    std::remove(store_path.c_str());
}

// ---------------------------------------------------------------------------
// Campaign: scheduler determinism
// ---------------------------------------------------------------------------

class FleetCampaignTest : public testing::Test {
protected:
    void SetUp() override {
        population_ = std::make_unique<fleet::Population>(fleet::parse_fleet_spec(kSpecText));
        store_path_ = temp_path("camp", ".fleet");
        enroll_into(*population_, store_path_);
    }
    void TearDown() override {
        obs::install(nullptr);
        std::remove(store_path_.c_str());
        for (const std::string& p : results_) std::remove(p.c_str());
    }
    std::string results_path(const char* stem) {
        results_.push_back(temp_path(stem));
        return results_.back();
    }

    std::unique_ptr<fleet::Population> population_;
    std::string store_path_;
    std::vector<std::string> results_;
};

TEST_F(FleetCampaignTest, OutputIsBitwiseIdenticalAcrossWorkerCounts) {
    const std::string base = results_path("w1");
    const auto s1 = run_campaign(*population_, store_path_, base, 1);
    EXPECT_EQ(s1.executed, 3u);
    EXPECT_EQ(s1.devices, 160u);
    EXPECT_EQ(s1.trials, 480u);
    EXPECT_FALSE(s1.stopped);
    const auto lines = deterministic_lines(base);
    ASSERT_EQ(lines.size(), 3u);
    for (int workers : {2, 8}) {
        const std::string path =
            results_path(workers == 2 ? "w2" : "w8");
        const auto stats = run_campaign(*population_, store_path_, path, workers);
        EXPECT_EQ(stats.executed, 3u);
        EXPECT_EQ(stats.devices_ok, s1.devices_ok);
        EXPECT_EQ(stats.bit_errors, s1.bit_errors);
        EXPECT_EQ(deterministic_lines(path), lines) << workers << " workers";
    }
    // The noisy spec exercises the non-trivial aggregate paths.
    EXPECT_GT(s1.bit_errors, 0u);
    EXPECT_LT(s1.devices_ok, s1.devices);
}

TEST_F(FleetCampaignTest, ForcedHangSkewDoesNotChangeTheBytes) {
    const std::string base = results_path("noskew");
    (void)run_campaign(*population_, store_path_, base, 1);

    // Hang shard 0 long enough that the other worker runs every later
    // shard first: the skewed schedule and the serial one must agree.
    fi::Injector injector(fi::parse_fault_plan("seed(1);job_hang(ids=0,ms=400)"));
    const std::string skew = results_path("skew");
    const auto stats = run_campaign(*population_, store_path_, skew, 2,
                                    /*max_shards=*/-1, &injector);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(deterministic_lines(skew), deterministic_lines(base));
}

TEST_F(FleetCampaignTest, MaxShardsQuotaThenResumeMatchesCleanRun) {
    const std::string clean = results_path("clean");
    (void)run_campaign(*population_, store_path_, clean, 2);

    const std::string split = results_path("split");
    const auto part = run_campaign(*population_, store_path_, split, 2, /*max_shards=*/1);
    EXPECT_EQ(part.executed, 1u);
    EXPECT_FALSE(part.stopped); // a quota cut is clean, not an interruption
    const auto rest = run_campaign(*population_, store_path_, split, 2);
    EXPECT_EQ(rest.skipped, 1u);
    EXPECT_EQ(rest.executed, 2u);
    const auto again = run_campaign(*population_, store_path_, split, 2);
    EXPECT_EQ(again.skipped, 3u);
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(deterministic_lines(split), deterministic_lines(clean));
}

TEST_F(FleetCampaignTest, QuarantinedShardIsRecordedAndResumeRetriesIt) {
    const std::string clean = results_path("qclean");
    (void)run_campaign(*population_, store_path_, clean, 1);

    fi::Injector injector(fi::parse_fault_plan("seed(1);job_throw(ids=1)"));
    const std::string path = results_path("quar");
    const auto stats = run_campaign(*population_, store_path_, path, 1,
                                    /*max_shards=*/-1, &injector);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failed, 1u);
    bool saw_quarantine = false;
    for (const auto& line : deterministic_lines(path)) {
        if (line.find("\"outcome\":\"job_failed\"") != std::string::npos) {
            saw_quarantine = true;
        }
    }
    EXPECT_TRUE(saw_quarantine);

    // Resume re-runs only the failed shard; the ok records then match the
    // clean run's (the quarantine line remains as history, like xp).
    const auto resumed = run_campaign(*population_, store_path_, path, 1);
    EXPECT_EQ(resumed.skipped, 2u);
    EXPECT_EQ(resumed.executed, 1u);
    std::vector<std::string> ok_lines;
    for (const auto& line : deterministic_lines(path)) {
        if (line.find("\"outcome\":\"ok\"") != std::string::npos) ok_lines.push_back(line);
    }
    std::sort(ok_lines.begin(), ok_lines.end());
    auto clean_lines = deterministic_lines(clean);
    std::sort(clean_lines.begin(), clean_lines.end());
    EXPECT_EQ(ok_lines, clean_lines);
}

TEST_F(FleetCampaignTest, ResultsReadBackThroughTheXpRecordCodec) {
    const std::string path = results_path("readback");
    const auto run = run_campaign(*population_, store_path_, path, 2);
    const std::string bytes = read_bytes(path);

    // xp's reader takes every shard line as a record: nothing is torn.
    xp::ReadStats read_stats;
    const auto records = xp::read_results(path, &read_stats);
    EXPECT_EQ(records.size(), 3u);
    EXPECT_EQ(read_stats.skipped_lines, 0);
    EXPECT_EQ(read_stats.last_good_offset, static_cast<long long>(bytes.size()));
    EXPECT_TRUE(xp::salvage_warning(read_stats).empty());
    EXPECT_EQ(xp::completed_job_ids(path, fleet::fleet_spec_hash(population_->spec())).size(),
              3u);

    // The file adds up to the run that wrote it.
    xp::ReadStats rollup_stats;
    const fleet::FleetRunStats rollup = fleet::read_campaign_results(path, &rollup_stats);
    EXPECT_EQ(rollup_stats.skipped_lines, 0);
    EXPECT_EQ(rollup_stats.last_good_offset, static_cast<long long>(bytes.size()));
    EXPECT_EQ(rollup.total_shards, run.total_shards);
    EXPECT_EQ(rollup.executed, run.executed);
    EXPECT_EQ(rollup.failed, run.failed);
    EXPECT_EQ(rollup.devices, run.devices);
    EXPECT_EQ(rollup.devices_ok, run.devices_ok);
    EXPECT_EQ(rollup.trials, run.trials);
    EXPECT_EQ(rollup.trials_ok, run.trials_ok);
    EXPECT_EQ(rollup.bit_errors, run.bit_errors);
    EXPECT_EQ(rollup.measurements, run.measurements);
    EXPECT_EQ(rollup.success_hist, run.success_hist);
    EXPECT_EQ(fleet::population_summary(rollup), fleet::population_summary(run));

    // Each line decodes to a record that re-encodes to the same bytes.
    std::istringstream lines(bytes);
    std::string line;
    while (std::getline(lines, line)) {
        EXPECT_EQ(fleet::shard_record_line(fleet::decode_shard_record(xp::parse_json(line))),
                  line);
    }
}

TEST_F(FleetCampaignTest, ReadBackDropsQuarantinesALaterRecordCompleted) {
    const std::string clean = results_path("rbclean");
    const auto run = run_campaign(*population_, store_path_, clean, 1);

    fi::Injector injector(fi::parse_fault_plan("seed(1);job_throw(ids=1)"));
    const std::string path = results_path("rbquar");
    (void)run_campaign(*population_, store_path_, path, 1, /*max_shards=*/-1, &injector);
    const fleet::FleetRunStats partial = fleet::read_campaign_results(path);
    EXPECT_EQ(partial.failed, 1u);
    EXPECT_EQ(partial.executed, 2u);
    EXPECT_EQ(partial.total_shards, 3u);

    (void)run_campaign(*population_, store_path_, path, 1); // resume retries shard 1
    const fleet::FleetRunStats whole = fleet::read_campaign_results(path);
    EXPECT_EQ(whole.failed, 0u);
    EXPECT_EQ(whole.executed, 3u);
    EXPECT_EQ(whole.devices_ok, run.devices_ok);
    EXPECT_EQ(whole.bit_errors, run.bit_errors);
    EXPECT_EQ(whole.success_hist, run.success_hist);

    // The quarantine line carries the real attempt count in its fault key.
    const std::string bytes = read_bytes(path);
    EXPECT_NE(bytes.find("\"fault\":{\"attempts\":1,\"class\":\"injected_fault\""),
              std::string::npos);
}

TEST_F(FleetCampaignTest, PublishesSchedulerAndPopulationCounters) {
    obs::Registry reg;
    obs::install(&reg);
    const std::string path = results_path("obs");
    const auto stats = run_campaign(*population_, store_path_, path, 2);
    obs::install(nullptr);
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_or("fleet.shards_done", 0.0), 3.0);
    EXPECT_EQ(snap.counter_or("fleet.devices_done", 0.0), 160.0);
    EXPECT_EQ(snap.counter_or("xp.jobs_done", 0.0), 3.0);
    EXPECT_EQ(snap.counter_or("campaign.trials", 0.0), 480.0);
    EXPECT_EQ(snap.gauge_or("xp.jobs_total", 0.0), 3.0);
    EXPECT_EQ(stats.executed, 3u);
}

TEST_F(FleetCampaignTest, ShardFaultsPublishTheXpFaultCounters) {
    // A shard attempt runs through the same seam as an xp job attempt, so
    // the same event counts under the same names: one injected throw is one
    // fi.injected_faults and one xp.jobs_quarantined; a hang with no
    // deadline only delays its shard.
    obs::Registry reg;
    obs::install(&reg);
    fi::Injector injector(fi::parse_fault_plan("seed(1);job_throw(ids=1);job_hang(ids=2,ms=5)"));
    const std::string path = results_path("faultobs");
    const auto stats = run_campaign(*population_, store_path_, path, 2,
                                    /*max_shards=*/-1, &injector);
    obs::install(nullptr);
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(snap.counter_or("fi.injected_faults", 0.0), 1.0);
    EXPECT_EQ(snap.counter_or("xp.jobs_quarantined", 0.0), 1.0);
    EXPECT_EQ(snap.counter_or("xp.jobs_done", 0.0), 2.0);
    EXPECT_EQ(snap.counter_or("xp.watchdog_timeouts", 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// Population stats
// ---------------------------------------------------------------------------

TEST(FleetStats, InvariantsHoldOnAnEnrolledPopulation) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("stats", ".fleet");
    enroll_into(population, store_path);
    const fleet::EnrollmentMap store(store_path);
    const fleet::PopulationStats s = fleet::population_stats(store);
    EXPECT_EQ(s.devices, 160u);
    EXPECT_EQ(s.key_bits, 12u);
    EXPECT_GT(s.key_entropy_bits, 0.0);
    EXPECT_LE(s.key_entropy_bits, 12.0);
    EXPECT_GE(s.min_bit_entropy, 0.0);
    EXPECT_LE(s.min_bit_entropy, 1.0);
    ASSERT_EQ(s.bit_ones.size(), 12u);
    EXPECT_EQ(s.helper_collision_devices, s.devices - s.distinct_helpers);
    EXPECT_GE(s.largest_helper_group, s.largest_break_group);
    const std::string rendered = fleet::render_population_stats(s);
    EXPECT_NE(rendered.find("key entropy"), std::string::npos);
    std::remove(store_path.c_str());
}

// ---------------------------------------------------------------------------
// Fleet scale: 100k devices, O(shard) memory, worker-count independent
// ---------------------------------------------------------------------------

TEST(FleetScale, HundredThousandDevicesCampaignBitwiseAcrossWorkers) {
    const fleet::FleetSpec spec = fleet::parse_fleet_spec(
        "name            = fleet_scale\n"
        "devices         = 100000\n"
        "wafer_size      = 256\n"
        "wafer_cols      = 16\n"
        "geometry        = 8x4\n"
        "key_bits        = 12\n"
        "enroll_samples  = 5\n"
        "majority_wins   = 3\n"
        "trials          = 3\n"
        "sigma_noise_mhz = 0.05\n"
        "base_seed       = 7\n");
    const fleet::Population population(spec);
    const std::string store_path = temp_path("scale", ".fleet");
    enroll_into(population, store_path);
    {
        const fleet::EnrollmentMap store(store_path);
        EXPECT_EQ(store.valid_records(), 100000u);
    }
    const std::string a = temp_path("scale_w1");
    const std::string b = temp_path("scale_w2");
    const auto s1 = run_campaign(population, store_path, a, 1);
    const auto s2 = run_campaign(population, store_path, b, 2);
    EXPECT_EQ(s1.executed, 1563u);
    EXPECT_EQ(s1.devices, 100000u);
    EXPECT_EQ(s1.trials, 300000u);
    EXPECT_EQ(s2.devices_ok, s1.devices_ok);
    EXPECT_EQ(s2.bit_errors, s1.bit_errors);
    EXPECT_EQ(deterministic_lines(a), deterministic_lines(b));
    std::remove(store_path.c_str());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

} // namespace
