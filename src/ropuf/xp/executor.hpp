// Plan execution: jobs -> CampaignRunner -> ResultWriter.
//
// The executor walks a Plan in index order, skips every job ID already in
// the skip set (resume), runs the rest as Monte-Carlo campaigns on the
// worker pool, and appends one JSONL record per finished job. Per-job
// results depend only on (spec, job index): trials derive their seeds from
// the job's campaign_seed, never from which jobs ran before it — so an
// interrupted run plus a resume produces the same records as one
// uninterrupted run.
//
// Fault tolerance: the executor survives, rather than propagates, per-job
// failure. Each job gets up to max_attempts attempts, each run inline on
// the executor thread through core::run_attempt, which captures and
// classifies what it throws (core::JobError). job_timeout_ms gives every
// attempt a deadline the campaign checks before each trial: a late attempt
// stops at the next trial boundary and fails as a timeout. Retries back
// off with a deterministic exponential schedule. A job whose every attempt
// failed is quarantined as an `outcome=job_failed` record — the run
// completes with partial results, and `resume` retries exactly the
// quarantined/missing jobs. Store appends get the same retry treatment (the writer terminates
// torn tails between attempts). A cooperative stop flag (SIGINT) and the
// injected worker_abort fault both halt dispatch between jobs, leaving a
// file a resume completes to bit-identical records.
#pragma once

#include <atomic>
#include <cstdio>
#include <set>
#include <string>

#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::xp {

struct RunOptions {
    int workers = 0;       ///< campaign worker threads; 0 = hardware_concurrency
    int max_jobs = -1;     ///< stop after executing this many jobs (< 0 = all);
                           ///< deterministically emulates an interrupted run
    std::FILE* progress = nullptr; ///< per-job progress lines (nullptr = silent)

    // Fault tolerance.
    int max_attempts = 3;          ///< per-job attempts before quarantine (>= 1)
    double backoff_base_ms = 5.0;  ///< retry i sleeps base * 2^(i-1) ms (capped at 1 s)
    double job_timeout_ms = 0.0;   ///< per-attempt deadline, checked between
                                   ///< trials; 0 = no timeout
    fi::Injector* injector = nullptr;        ///< fault-injection seams (nullptr = none)
    const std::atomic<bool>* stop = nullptr; ///< cooperative stop (SIGINT); checked
                                             ///< between jobs and between retries
};

struct RunStats {
    int total = 0;    ///< jobs in the plan
    int skipped = 0;  ///< already present in the skip set
    int executed = 0; ///< run and appended this invocation
    int failed = 0;         ///< quarantined this invocation (job_failed records)
    int retries = 0;        ///< extra job attempts beyond the first, all jobs
    int store_retries = 0;  ///< record appends retried after store failures
    bool stopped = false;   ///< halted by the stop flag (SIGINT)
    bool aborted = false;   ///< halted by an injected worker_abort

    /// True when every plan job has a successful record after this
    /// invocation (nothing left for resume).
    bool complete() const {
        return !stopped && !aborted && failed == 0 && skipped + executed == total;
    }
};

/// Runs every plan job whose ID is not in `skip`, appending records to
/// `writer`. Scenario lookups go through `registry` (jobs were validated
/// against it at plan time). Per-job failures are retried then quarantined
/// per `options`; only a store that keeps rejecting writes after retries
/// still throws (a dead disk is not survivable).
RunStats execute_plan(const Plan& plan, const core::ScenarioRegistry& registry,
                      const std::set<std::string>& skip, ResultWriter& writer,
                      const RunOptions& options = {});

/// The process-wide cooperative stop flag the SIGINT handler sets. Exposed
/// for tests and for drivers that stop runs programmatically.
std::atomic<bool>& sigint_stop_flag();

/// Installs the SIGINT handler (idempotent): first signal sets
/// sigint_stop_flag() so the executor stops dispatching, flushes, and the
/// CLI exits resumable; a second SIGINT falls back to the default action
/// (kill), so a hung job can still be interrupted.
void install_sigint_handler();

} // namespace ropuf::xp
