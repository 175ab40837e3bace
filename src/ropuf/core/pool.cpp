#include "ropuf/core/pool.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "ropuf/obs/trace.hpp"

namespace ropuf::core {

WorkPool::WorkPool(std::size_t items, int workers, const std::atomic<bool>* stop)
    : items_(items), stop_(stop) {
    if (workers <= 0) {
        workers = static_cast<int>(std::thread::hardware_concurrency());
        if (workers <= 0) workers = 1;
    }
    workers_ = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(workers), std::max<std::size_t>(items, 1)));
}

bool WorkPool::run(const std::function<void(std::size_t index, int worker)>& body) const {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex

    const auto worker_loop = [&](int worker) {
        while (!failed.load(std::memory_order_relaxed)) {
            if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) return;
            const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
            if (index >= items_) return;
            try {
                body(index, worker);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };

    if (workers_ == 1) {
        worker_loop(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(workers_));
        try {
            for (int w = 0; w < workers_; ++w) {
                threads.emplace_back([&worker_loop, w] {
                    if (obs::TraceSink* sink = obs::trace()) sink->set_thread_name("worker");
                    worker_loop(w);
                });
            }
        } catch (...) {
            // Thread creation failed: wind down the workers already started.
            failed.store(true, std::memory_order_relaxed);
            for (std::thread& t : threads) t.join();
            throw;
        }
        for (std::thread& t : threads) t.join();
    }
    if (first_error) std::rethrow_exception(first_error);
    // Without a throw, only the stop flag leaves indices unclaimed.
    return next.load(std::memory_order_relaxed) < items_;
}

} // namespace ropuf::core
