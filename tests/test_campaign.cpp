// Campaign runner: parallel Monte-Carlo execution must be bitwise
// reproducible — the same master seed yields the same per-trial reports and
// the same aggregates regardless of worker count or repetition. Also the
// contracts of the work pool and in-order committer the runner (and the
// fleet engine) run on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/core/pool.hpp"

namespace {

using ropuf::core::AttackEngine;
using ropuf::core::AttackReport;
using ropuf::core::CampaignConfig;
using ropuf::core::CampaignRunner;
using ropuf::core::CampaignSummary;
using ropuf::core::MetricSummary;
using ropuf::core::OrderedCommitter;
using ropuf::core::ScenarioParams;
using ropuf::core::summarize_metric;
using ropuf::core::WorkPool;

/// Everything except wall-clock fields, which measure the host.
void expect_reports_identical(const AttackReport& a, const AttackReport& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.construction, b.construction);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.paper_ref, b.paper_ref);
    EXPECT_EQ(a.key_bits, b.key_bits);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.key_recovered, b.key_recovered);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.notes, b.notes);
}

void expect_summaries_identical(const CampaignSummary& a, const CampaignSummary& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.master_seed, b.master_seed);
    EXPECT_EQ(a.key_recovered_count, b.key_recovered_count);
    EXPECT_EQ(a.success_rate, b.success_rate);
    EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
    EXPECT_EQ(a.total_measurements, b.total_measurements);
    EXPECT_EQ(a.queries.mean, b.queries.mean);
    EXPECT_EQ(a.queries.stddev, b.queries.stddev);
    EXPECT_EQ(a.queries.min, b.queries.min);
    EXPECT_EQ(a.queries.max, b.queries.max);
    EXPECT_EQ(a.queries.p95, b.queries.p95);
    EXPECT_EQ(a.measurements.mean, b.measurements.mean);
    EXPECT_EQ(a.measurements.p95, b.measurements.p95);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        expect_reports_identical(a.reports[i], b.reports[i]);
    }
}

TEST(TrialSeeds, DeterministicAndDistinct) {
    const auto a = CampaignRunner::trial_seeds(99, 64);
    const auto b = CampaignRunner::trial_seeds(99, 64);
    EXPECT_EQ(a, b);
    const std::set<std::uint64_t> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), a.size());
    // A different master seed yields a different schedule.
    const auto c = CampaignRunner::trial_seeds(100, 64);
    EXPECT_NE(a, c);
    // Prefixes are stable: a longer campaign extends, not reshuffles.
    const auto prefix = CampaignRunner::trial_seeds(99, 8);
    for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], a[i]);
}

TEST(ScenarioDeterminism, SameSeedSameReportAcrossRepeatedRuns) {
    const AttackEngine engine(ropuf::attack::default_registry());
    ScenarioParams params;
    params.seed = 7;
    const auto first = engine.run("seqpair/swap", params);
    const auto second = engine.run("seqpair/swap", params);
    expect_reports_identical(first, second);
    EXPECT_GT(first.queries, 0);
}

TEST(Campaign, BitwiseIdenticalAcrossWorkerCounts) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 12;
    config.master_seed = 5;

    config.workers = 1;
    const auto serial = runner.run("seqpair/swap", config);

    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) hw = 4; // still exercise the pool on single-core hosts
    config.workers = static_cast<int>(hw);
    const auto parallel = runner.run("seqpair/swap", config);

    EXPECT_EQ(serial.workers, 1);
    EXPECT_GT(parallel.workers, 1);
    expect_summaries_identical(serial, parallel);
}

TEST(Campaign, RepeatedRunsIdentical) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 6;
    config.workers = 3;
    config.master_seed = 17;
    const auto a = runner.run("seqpair/swap", config);
    const auto b = runner.run("seqpair/swap", config);
    expect_summaries_identical(a, b);
}

TEST(Campaign, AggregatesMatchPerTrialReports) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 10;
    config.workers = 2;
    config.master_seed = 23;
    const auto summary = runner.run("seqpair/swap", config);

    ASSERT_EQ(summary.reports.size(), 10u);
    ASSERT_EQ(summary.trials, 10);
    std::int64_t total_meas = 0;
    int recovered = 0;
    double qmin = summary.reports[0].queries;
    double qmax = qmin;
    for (const auto& r : summary.reports) {
        EXPECT_EQ(r.scenario, "seqpair/swap");
        total_meas += r.measurements;
        recovered += r.key_recovered ? 1 : 0;
        qmin = std::min(qmin, static_cast<double>(r.queries));
        qmax = std::max(qmax, static_cast<double>(r.queries));
    }
    EXPECT_EQ(summary.total_measurements, total_meas);
    EXPECT_EQ(summary.key_recovered_count, recovered);
    EXPECT_EQ(summary.success_rate, recovered / 10.0);
    EXPECT_EQ(summary.queries.min, qmin);
    EXPECT_EQ(summary.queries.max, qmax);
    // The seqpair attack succeeds on the overwhelming majority of chips.
    EXPECT_GE(summary.success_rate, 0.8);
}

TEST(Campaign, TrialsSeeDistinctChips) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 8;
    config.workers = 2;
    config.master_seed = 31;
    const auto summary = runner.run("seqpair/swap", config);
    // Independently manufactured chips cannot all cost the same number of
    // queries; a degenerate schedule would make every trial identical.
    std::set<std::int64_t> distinct;
    for (const auto& r : summary.reports) distinct.insert(r.queries);
    EXPECT_GT(distinct.size(), 1u);
}

TEST(Campaign, KeepReportsFalseDropsPerTrialData) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 4;
    config.workers = 2;
    config.keep_reports = false;
    const auto summary = runner.run("seqpair/swap", config);
    EXPECT_TRUE(summary.reports.empty());
    EXPECT_EQ(summary.trials, 4);
    EXPECT_GT(summary.total_measurements, 0);
}

TEST(Campaign, UnknownScenarioThrows) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    EXPECT_THROW(runner.run("no/such", CampaignConfig{}), std::out_of_range);
}

TEST(Campaign, JsonIsWellFormed) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 3;
    config.workers = 1;
    const auto summary = runner.run("seqpair/swap", config);
    const auto json = ropuf::core::to_json(summary, /*include_reports=*/true);
    EXPECT_NE(json.find("\"scenario\":\"seqpair/swap\""), std::string::npos);
    EXPECT_NE(json.find("\"trials\":3"), std::string::npos);
    EXPECT_NE(json.find("\"reports\":["), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

// Regression: one-trial campaigns (spec smoke points, golden tests) must
// produce well-defined statistics — zero spread, every order statistic equal
// to the single sample — and never divide by zero or index past the end.
TEST(Campaign, SingleTrialStatisticsAreWellDefined) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 1;
    config.workers = 1;
    config.master_seed = 77;
    const auto summary = runner.run("seqpair/swap", config);
    ASSERT_EQ(summary.trials, 1);
    ASSERT_EQ(summary.reports.size(), 1u);
    const double q = static_cast<double>(summary.reports[0].queries);
    EXPECT_DOUBLE_EQ(summary.queries.mean, q);
    EXPECT_DOUBLE_EQ(summary.queries.min, q);
    EXPECT_DOUBLE_EQ(summary.queries.max, q);
    EXPECT_DOUBLE_EQ(summary.queries.p95, q);
    EXPECT_DOUBLE_EQ(summary.queries.stddev, 0.0);
    EXPECT_DOUBLE_EQ(summary.measurements.stddev, 0.0);
    EXPECT_EQ(summary.success_rate, summary.reports[0].key_recovered ? 1.0 : 0.0);
    // And the JSON emitter must not choke on the degenerate summary.
    const auto json = ropuf::core::to_json(summary, true);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Campaign, ZeroTrialsYieldEmptyButFiniteSummary) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 0;
    config.workers = 1;
    const auto summary = runner.run("seqpair/swap", config);
    EXPECT_EQ(summary.trials, 0);
    EXPECT_TRUE(summary.reports.empty());
    EXPECT_DOUBLE_EQ(summary.success_rate, 0.0);
    EXPECT_DOUBLE_EQ(summary.mean_accuracy, 0.0);
    EXPECT_DOUBLE_EQ(summary.queries.mean, 0.0);
    EXPECT_DOUBLE_EQ(summary.queries.p95, 0.0);
}

// The attempt deadline is checked before every trial: once it has passed,
// no further trial runs, and the attempt seam classifies the cut as a
// timeout instead of letting a late attempt run on.
TEST(Campaign, PassedDeadlineStopsTrialClaimsAndSurfacesAsTimeout) {
    std::atomic<int> trials_run{0};
    ropuf::core::ScenarioRegistry registry;
    registry.add({"count/trials", "seqpair", "test", "none", "counts its trials",
                  [&](const ScenarioParams&) {
                      trials_run.fetch_add(1);
                      return AttackReport{};
                  }});
    const CampaignRunner runner(registry);
    CampaignConfig config;
    config.trials = 8;
    config.workers = 2;
    config.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    EXPECT_THROW((void)runner.run("count/trials", config), ropuf::core::DeadlineExceeded);
    EXPECT_EQ(trials_run.load(), 0);

    // The same cut through the attempt seam: the body outlives a 1 ms
    // deadline before its campaign starts, so the campaign claims nothing.
    const auto error = ropuf::core::run_attempt(
        nullptr, /*job_index=*/0, /*attempt=*/2, /*timeout_ms=*/1.0,
        [&](ropuf::core::Deadline deadline) {
            std::this_thread::sleep_until(deadline + std::chrono::milliseconds(1));
            config.deadline = deadline;
            (void)runner.run("count/trials", config);
        });
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->cls, ropuf::core::JobErrorClass::timeout);
    EXPECT_EQ(error->message, "attempt 2 exceeded the 1.000000 ms watchdog");
    EXPECT_EQ(trials_run.load(), 0);

    // A deadline in the future changes nothing.
    config.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    EXPECT_EQ(runner.run("count/trials", config).trials, 8);
    EXPECT_EQ(trials_run.load(), 8);
}

TEST(SummarizeMetric, KnownValues) {
    const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
    const MetricSummary m = summarize_metric(values);
    EXPECT_DOUBLE_EQ(m.mean, 2.5);
    EXPECT_DOUBLE_EQ(m.min, 1.0);
    EXPECT_DOUBLE_EQ(m.max, 4.0);
    EXPECT_NEAR(m.stddev, 1.118033988749895, 1e-12); // population sd
    EXPECT_DOUBLE_EQ(m.p95, 4.0);                    // nearest rank of 4 values
    EXPECT_DOUBLE_EQ(summarize_metric({}).mean, 0.0);
    const MetricSummary single = summarize_metric({7.0});
    EXPECT_DOUBLE_EQ(single.p95, 7.0);
    EXPECT_DOUBLE_EQ(single.stddev, 0.0);
}

// ---------------------------------------------------------------------------
// WorkPool and OrderedCommitter
// ---------------------------------------------------------------------------

TEST(WorkPool, ResolvesAndClampsTheWorkerCount) {
    const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    EXPECT_EQ(WorkPool(1000, 0).workers(), std::min(hw, 1000)); // 0 = hardware
    EXPECT_EQ(WorkPool(1000, -1).workers(), std::min(hw, 1000));
    EXPECT_EQ(WorkPool(1000, 5).workers(), 5);
    EXPECT_EQ(WorkPool(3, 8).workers(), 3); // never more workers than items
    EXPECT_EQ(WorkPool(0, 8).workers(), 1);
    EXPECT_EQ(WorkPool(0, 0).workers(), 1);
}

TEST(WorkPool, RunsEveryIndexExactlyOnce) {
    for (const int workers : {1, 2, 8}) {
        std::vector<std::atomic<int>> hits(500);
        std::atomic<int> bad_worker{0};
        const WorkPool pool(hits.size(), workers);
        EXPECT_FALSE(pool.run([&](std::size_t i, int w) {
            hits[i].fetch_add(1);
            if (w < 0 || w >= pool.workers()) bad_worker.fetch_add(1);
        }));
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " workers";
        EXPECT_EQ(bad_worker.load(), 0);
    }
}

TEST(WorkPool, RethrowsTheFirstExceptionAndClaimsNothingAfterIt) {
    // Inline: indices claim in order, so the throw is the last index run.
    std::vector<std::size_t> ran;
    const WorkPool serial(10, 1);
    EXPECT_THROW(serial.run([&](std::size_t i, int) {
                     ran.push_back(i);
                     if (i == 3) throw std::runtime_error("item 3");
                 }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));

    // Parallel: every other item waits for the throw, then lingers long
    // enough for the pool to record it. Each worker may finish the one
    // item it already held; none may claim another.
    const WorkPool pool(1000, 4);
    ASSERT_GT(pool.workers(), 1);
    std::atomic<bool> thrown{false};
    std::atomic<int> after{0};
    try {
        pool.run([&](std::size_t i, int) {
            if (i == 0) {
                thrown.store(true);
                throw std::runtime_error("item 0");
            }
            while (!thrown.load()) std::this_thread::yield();
            after.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        });
        ADD_FAILURE() << "the pool swallowed the exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 0");
    }
    EXPECT_LE(after.load(), pool.workers() - 1);
}

TEST(WorkPool, StopFlagHaltsClaiming) {
    std::atomic<bool> stop{false};
    std::vector<std::size_t> ran;
    const WorkPool serial(10, 1, &stop);
    EXPECT_TRUE(serial.run([&](std::size_t i, int) {
        ran.push_back(i);
        if (i == 2) stop.store(true);
    }));
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));

    // Already set: nothing is claimed.
    std::atomic<int> count{0};
    const WorkPool preset(100, 4, &stop);
    EXPECT_TRUE(preset.run([&](std::size_t, int) { count.fetch_add(1); }));
    EXPECT_EQ(count.load(), 0);

    // Raised by the last item, with nothing left to claim: not a stop.
    stop.store(false);
    const WorkPool last(3, 1, &stop);
    EXPECT_FALSE(last.run([&](std::size_t i, int) {
        if (i == 2) stop.store(true);
    }));

    // Raised mid-run on a parallel pool: items past the trigger wait for
    // the flag, so each worker finishes at most the one it holds.
    stop.store(false);
    count.store(0);
    const WorkPool pool(1000, 4, &stop);
    EXPECT_TRUE(pool.run([&](std::size_t i, int) {
        count.fetch_add(1);
        if (i == 10) stop.store(true);
        while (i > 10 && !stop.load()) std::this_thread::yield();
    }));
    EXPECT_LE(count.load(), 11 + pool.workers() - 1);
}

TEST(OrderedCommitter, DeliversInIndexOrderWhateverTheCommitOrder) {
    std::vector<int> delivered;
    OrderedCommitter<int> committer([&](int& v) { delivered.push_back(v); });
    committer.commit(3, 30);
    committer.commit(1, 10);
    committer.commit(4, 40);
    EXPECT_TRUE(delivered.empty()); // index 0 still missing
    committer.commit(0, 0);
    EXPECT_EQ(delivered, (std::vector<int>{0, 10}));
    committer.commit(2, 20);
    EXPECT_EQ(delivered, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(OrderedCommitter, AThrowingSinkEndsDelivery) {
    std::vector<int> delivered;
    OrderedCommitter<int> committer([&](int& v) {
        if (v == 2) throw std::runtime_error("sink");
        delivered.push_back(v);
    });
    committer.commit(1, 1);
    committer.commit(3, 3);
    committer.commit(2, 2);
    EXPECT_THROW(committer.commit(0, 0), std::runtime_error);
    committer.commit(4, 4); // dropped: nothing after a failed index
    EXPECT_EQ(delivered, (std::vector<int>{0, 1}));
}

TEST(OrderedCommitter, FedByAParallelPoolStillDeliversInOrder) {
    for (const int workers : {2, 8}) {
        std::vector<std::size_t> delivered;
        OrderedCommitter<std::size_t> committer(
            [&](std::size_t& v) { delivered.push_back(v); });
        const WorkPool pool(400, workers);
        pool.run([&](std::size_t i, int) {
            // Early indices finish last, so commits arrive out of order.
            if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
            committer.commit(i, i);
        });
        std::vector<std::size_t> expected(400);
        std::iota(expected.begin(), expected.end(), std::size_t{0});
        EXPECT_EQ(delivered, expected) << workers << " workers";
    }
}

} // namespace
