// The one work pool behind every parallel loop in ropuf: campaign trials,
// fleet campaign shards and fleet enrollment shards.
//
// Work is a dense index range [0, items). Workers claim indices from one
// shared atomic counter, so claiming is dynamic (a slow item never stalls
// the items behind it) and ascending (the lowest unclaimed index goes
// next). Items are coarse — a trial or a 64-device shard, milliseconds of
// work each — so one counter is all the scheduling they need.
//
// Results that must land in a fixed order go through OrderedCommitter,
// which hands them to a sink in index order whatever order they complete
// in. Output bytes therefore never depend on the worker count or the
// schedule, only on what each index computes.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

namespace ropuf::core {

/// Runs a body over the index range [0, items) on a fixed worker count.
class WorkPool {
public:
    /// Resolves the worker count once: `workers <= 0` means
    /// std::thread::hardware_concurrency() (1 if unknown), and the count
    /// is clamped to [1, max(items, 1)]. `stop` (may be null) is polled
    /// before every claim; a set flag ends claiming.
    WorkPool(std::size_t items, int workers, const std::atomic<bool>* stop = nullptr);

    /// The resolved worker count.
    int workers() const noexcept { return workers_; }

    /// Calls body(index, worker) once per claimed index, worker in
    /// [0, workers()). One worker runs inline on the calling thread; more
    /// start that many threads and join them all before returning. Claiming
    /// stops when the stop flag is set or a body throws; in-flight bodies
    /// finish, then the first exception is rethrown. Returns true iff the
    /// stop flag ended claiming with indices still unclaimed.
    bool run(const std::function<void(std::size_t index, int worker)>& body) const;

private:
    std::size_t items_;
    int workers_;
    const std::atomic<bool>* stop_;
};

/// Hands committed values to a sink in index order (0, 1, 2, ...),
/// whatever order commit() is called in. Values wait in a reorder buffer
/// until every lower index has been delivered; the buffer's depth is
/// bounded by scheduling skew, not by the item count. The sink runs under
/// the committer's mutex, so it needs no locking of its own.
///
/// A sink that throws ends delivery: the exception propagates out of that
/// commit() and every later commit() is dropped, so the sink sees a clean
/// index prefix and never an index after a failed one.
template <typename T>
class OrderedCommitter {
public:
    explicit OrderedCommitter(std::function<void(T&)> sink) : sink_(std::move(sink)) {}

    void commit(std::size_t index, T value) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (broken_) return;
        pending_.emplace(index, std::move(value));
        while (!pending_.empty() && pending_.begin()->first == next_) {
            try {
                sink_(pending_.begin()->second);
            } catch (...) {
                broken_ = true;
                throw;
            }
            pending_.erase(pending_.begin());
            ++next_;
        }
    }

private:
    std::function<void(T&)> sink_;
    std::mutex mutex_; // guards the three members below
    std::map<std::size_t, T> pending_;
    std::size_t next_ = 0;
    bool broken_ = false;
};

} // namespace ropuf::core
