// Structured job-failure taxonomy.
//
// The fault-tolerant execution layer never lets one thrown exception abort a
// whole run: per-job failures are captured, classified into one of these
// classes, retried, and — when retries are exhausted — quarantined as an
// `outcome=job_failed` JSONL record whose class/message land in the record's
// fault side-fields. The classes are deliberately coarse: they answer "is a
// retry worth it / which seam broke", not "what exactly went wrong" (the
// message carries that).
//
// run_attempt is the one place a job attempt runs: xp plan jobs and fleet
// shards both go through it, so the fi job seam, the deadline and the
// failure classification (with its counters and trace instants) exist once.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ropuf::fi {
class Injector;
}

namespace ropuf::core {

enum class JobErrorClass {
    scenario_exception, ///< the scenario/campaign itself threw
    injected_fault,     ///< a fi:: injection point fired (chaos runs)
    timeout,            ///< the attempt ran past its deadline
    store_write,        ///< the result store rejected the record
    unknown,            ///< a non-std::exception escaped
};

/// Stable wire name ("scenario_exception", ...) — what JSONL records carry.
std::string_view job_error_class_name(JobErrorClass cls);

/// One captured, classified job failure.
struct JobError {
    JobErrorClass cls = JobErrorClass::unknown;
    std::string message;
};

/// When an attempt must stop. kNoDeadline never passes.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Thrown at a trial boundary once the attempt's deadline has passed;
/// run_attempt classifies it as a timeout.
class DeadlineExceeded : public std::runtime_error {
public:
    DeadlineExceeded() : std::runtime_error("attempt deadline exceeded") {}
};

/// Runs attempt `attempt` (1-based) of job `job_index` inline on the
/// calling thread. The attempt's deadline is now + timeout_ms (kNoDeadline
/// when timeout_ms <= 0). First the fi job seam fires (injector may be
/// null): an injected job_throw fails the attempt, and an injected
/// job_hang sleeps, but never past the deadline — a hang that reaches it
/// reports a timeout without running the body. Then body(deadline) runs,
/// and whatever escapes it is classified: fi::InjectedFault is
/// injected_fault, DeadlineExceeded is timeout, any other std::exception
/// is scenario_exception, anything else is unknown. Timeouts count
/// xp.watchdog_timeouts and emit a `watchdog_timeout` instant; injected
/// faults count fi.injected_faults and emit `fi:injected_fault`.
/// Returns nullopt when the body completed.
std::optional<JobError> run_attempt(const fi::Injector* injector, int job_index, int attempt,
                                    double timeout_ms,
                                    const std::function<void(Deadline)>& body);

/// Marks a job whose attempts are spent: counts xp.jobs_quarantined and
/// emits a `quarantined` instant carrying the error's class and message.
void note_quarantined(const JobError& error);

} // namespace ropuf::core
