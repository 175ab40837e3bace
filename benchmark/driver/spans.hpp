// In-memory span recorder for the traced benchmark run.
//
// Every worker thread appends to its own buffer (no locks, no sharing while
// recording); the buffers are merged once, after the threads have joined.
// A span is (name, thread, start, end, parent). A layer's self time is the
// sum, over its spans, of the span's duration minus the length of the union
// of its children's intervals (clipped to the span) — a union, not a sum, so
// children that ran concurrently on other threads are not subtracted twice.
// Busy intervals mark when a thread was doing benchmark work at all; busy
// time that no root span covers is reported as unattributed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bench {

enum class Layer : std::uint8_t {
    trial,         // driver-composed per-trial glue (stack build, outcome) -> core
    victim_enroll, // chip manufacture + construction enroll
    attack,        // Session::step / Session::absorb
    core_oracle,   // the outermost oracle stack (budget middleware, dispatch)
    defense,       // apply_defense stack minus the victim and codec calls inside it
    oracle,        // victim boundary: AnyOracle::evaluate of the victim adapter
    parse,         // DeviceTraits::parse
    store,         // DeviceTraits::store
    sim_measure,   // RoArray batched measurement
    ecc,           // DeviceTraits::reconstruct_measured / fuzzy reconstruct
    xp_plan,
    xp_commit,
    xp_read,
    fleet_manufacture,
    fleet_measure,
    fleet_enroll_device,
    fleet_store_write,
    fleet_store_read,
    fleet_campaign,
    fleet_stats,
    count_
};

inline const char* layer_name(Layer layer) {
    static const char* const names[] = {
        "core.trial",       "victim.enroll",       "attack",
        "core.oracle",      "defense",             "oracle.evaluate",
        "helperdata.parse", "helperdata.store",    "sim.measure",
        "ecc.reconstruct",  "xp.plan",             "xp.commit",
        "xp.read",          "fleet.manufacture",   "fleet.measure",
        "fleet.enroll_device", "fleet.store_write", "fleet.store_read",
        "fleet.campaign",   "fleet.stats",
    };
    return names[static_cast<int>(layer)];
}

constexpr int kLayers = static_cast<int>(Layer::count_);

struct SpanRec {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1; ///< index into the same (merged) span list; -1 = root
    std::uint16_t thread = 0;
    Layer layer = Layer::trial;
    bool dropped = false; ///< excluded from attribution (its time is unattributed)
};

struct Interval {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint16_t thread = 0;
};

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
inline std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                                 std::int64_t lo, std::int64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_s = 0;
    std::int64_t cur_e = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s) continue;
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open) total += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open) total += cur_e - cur_s;
    return total;
}

/// Per-layer self time (seconds) over a merged span list.
inline std::vector<double> self_seconds(const std::vector<SpanRec>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const SpanRec& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<double> self(kLayers, 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        if (s.dropped) continue;
        const std::int64_t covered = union_length(children[i], s.start_ns, s.end_ns);
        self[static_cast<int>(s.layer)] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
}

/// Busy time (seconds) that no kept root span on the same thread covers.
inline double unattributed_seconds(const std::vector<SpanRec>& spans,
                                   const std::vector<Interval>& busy) {
    double total = 0.0;
    for (const Interval& b : busy) {
        std::vector<std::pair<std::int64_t, std::int64_t>> roots;
        for (const SpanRec& s : spans) {
            if (s.parent < 0 && !s.dropped && s.thread == b.thread) {
                roots.emplace_back(s.start_ns, s.end_ns);
            }
        }
        total += static_cast<double>(b.end_ns - b.start_ns -
                                     union_length(roots, b.start_ns, b.end_ns)) * 1e-9;
    }
    return total;
}

/// One thread's recording buffer. Parents are indices into this buffer
/// until merge() rebases them onto the merged list.
struct ThreadBuffer {
    std::uint16_t thread = 0;
    std::vector<SpanRec> spans;
    std::vector<std::int32_t> stack;
    std::vector<Interval> busy;
};

/// Process-wide collection point; threads register a buffer, record into it
/// through thread_local access, and the main thread merges after joins.
class Recorder {
public:
    ThreadBuffer* attach() {
        const std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        buffers_.back()->thread = static_cast<std::uint16_t>(buffers_.size() - 1);
        return buffers_.back().get();
    }

    void merge(std::vector<SpanRec>& spans, std::vector<Interval>& busy) const {
        for (const auto& buf : buffers_) {
            const auto base = static_cast<std::int32_t>(spans.size());
            for (SpanRec s : buf->spans) {
                if (s.parent >= 0) s.parent += base;
                spans.push_back(s);
            }
            busy.insert(busy.end(), buf->busy.begin(), buf->busy.end());
        }
    }

private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

inline thread_local ThreadBuffer* tls_buffer = nullptr;

/// RAII span on the calling thread; a no-op when the thread has no buffer.
class Span {
public:
    explicit Span(Layer layer) : buf_(tls_buffer) {
        if (buf_ == nullptr) return;
        index_ = static_cast<std::int32_t>(buf_->spans.size());
        SpanRec rec;
        rec.layer = layer;
        rec.thread = buf_->thread;
        rec.parent = buf_->stack.empty() ? -1 : buf_->stack.back();
        rec.start_ns = now_ns();
        buf_->spans.push_back(rec);
        buf_->stack.push_back(index_);
    }
    ~Span() {
        if (buf_ == nullptr) return;
        buf_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
        buf_->stack.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    ThreadBuffer* buf_;
    std::int32_t index_ = -1;
};

/// RAII busy interval on the calling thread.
class Busy {
public:
    Busy() : start_(now_ns()) {}
    ~Busy() {
        if (tls_buffer != nullptr) {
            tls_buffer->busy.push_back({start_, now_ns(), tls_buffer->thread});
        }
    }
    Busy(const Busy&) = delete;
    Busy& operator=(const Busy&) = delete;

private:
    std::int64_t start_;
};

} // namespace bench
