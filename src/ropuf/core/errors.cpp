#include "ropuf/core/errors.hpp"

#include <algorithm>
#include <thread>

#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/trace.hpp"

namespace ropuf::core {

namespace {

constexpr struct {
    JobErrorClass cls;
    const char* name;
} kClasses[] = {
    {JobErrorClass::scenario_exception, "scenario_exception"},
    {JobErrorClass::injected_fault, "injected_fault"},
    {JobErrorClass::timeout, "timeout"},
    {JobErrorClass::store_write, "store_write"},
    {JobErrorClass::unknown, "unknown"},
};

} // namespace

std::string_view job_error_class_name(JobErrorClass cls) {
    for (const auto& entry : kClasses) {
        if (entry.cls == cls) return entry.name;
    }
    return "unknown";
}

namespace {

JobError classify_current_exception() {
    try {
        throw;
    } catch (const fi::InjectedFault& e) {
        return {JobErrorClass::injected_fault, e.what()};
    } catch (const DeadlineExceeded& e) {
        return {JobErrorClass::timeout, e.what()};
    } catch (const std::exception& e) {
        return {JobErrorClass::scenario_exception, e.what()};
    } catch (...) {
        return {JobErrorClass::unknown, "non-standard exception escaped the job"};
    }
}

} // namespace

std::optional<JobError> run_attempt(const fi::Injector* injector, int job_index, int attempt,
                                    double timeout_ms,
                                    const std::function<void(Deadline)>& body) {
    const auto start = std::chrono::steady_clock::now();
    const Deadline deadline =
        timeout_ms > 0.0
            ? start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(timeout_ms))
            : kNoDeadline;
    std::optional<JobError> error;
    try {
        const int hang_ms = injector != nullptr ? injector->job_fault(job_index, attempt) : 0;
        if (hang_ms > 0) {
            const Deadline hang_end = start + std::chrono::milliseconds(hang_ms);
            std::this_thread::sleep_until(std::min(hang_end, deadline));
            if (hang_end >= deadline) throw DeadlineExceeded();
        }
        body(deadline);
    } catch (...) {
        error = classify_current_exception();
    }
    if (!error) return error;
    if (error->cls == JobErrorClass::timeout) {
        error->message = "attempt " + std::to_string(attempt) + " exceeded the " +
                         std::to_string(timeout_ms) + " ms watchdog";
        ROPUF_OBS_COUNT("xp.watchdog_timeouts", 1);
        obs::fault_instant("watchdog_timeout", error->message);
    } else if (error->cls == JobErrorClass::injected_fault) {
        ROPUF_OBS_COUNT("fi.injected_faults", 1);
        obs::fault_instant("fi:injected_fault", error->message);
    }
    return error;
}

void note_quarantined(const JobError& error) {
    ROPUF_OBS_COUNT("xp.jobs_quarantined", 1);
    obs::fault_instant("quarantined", error.message, job_error_class_name(error.cls));
}

} // namespace ropuf::core
