#include "ropuf/obs/trace.hpp"

#include <cstdio>
#include <map>
#include <utility>

namespace ropuf::obs {

namespace detail {
std::atomic<TraceSink*> g_trace{nullptr};
} // namespace detail

void install_trace(TraceSink* sink) noexcept {
    detail::g_trace.store(sink, std::memory_order_release);
}

void append_json_escaped(std::string& out, std::string_view text) {
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void fault_instant(std::string_view name, std::string_view what, std::string_view cls) {
    TraceSink* sink = trace();
    if (sink == nullptr) return;
    std::string args = "{";
    if (!cls.empty()) {
        args += "\"class\":\"";
        append_json_escaped(args, cls);
        args += "\",";
    }
    args += "\"what\":\"";
    append_json_escaped(args, what);
    args += "\"}";
    sink->instant(name, std::move(args));
}

namespace {

// Live sinks by unique epoch, mirroring the metrics registry's shard
// recycling: a thread-exit destructor only returns its tid to a sink that
// still exists.
std::mutex& live_mutex() {
    static std::mutex m;
    return m;
}

std::map<std::uint64_t, TraceSink*>& live_sinks() {
    static std::map<std::uint64_t, TraceSink*> live;
    return live;
}

std::uint64_t next_epoch() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

struct TlsTraceSlot {
    std::uint64_t epoch = 0;
    int tid = -1;

    ~TlsTraceSlot() {
        if (tid < 0) return;
        std::lock_guard<std::mutex> lock(live_mutex());
        auto it = live_sinks().find(epoch);
        if (it != live_sinks().end()) it->second->release_tid(tid);
    }
};

namespace {
thread_local TlsTraceSlot t_track;
} // namespace

TraceSink::TraceSink(std::string path, std::size_t max_events)
    : path_(std::move(path)),
      max_events_(max_events),
      epoch_(next_epoch()),
      start_(std::chrono::steady_clock::now()) {
    std::lock_guard<std::mutex> lock(live_mutex());
    live_sinks().emplace(epoch_, this);
}

TraceSink::~TraceSink() {
    close();
    std::lock_guard<std::mutex> lock(live_mutex());
    live_sinks().erase(epoch_);
}

double TraceSink::now_us_locked() const {
    const auto dt = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

TraceSink::Track& TraceSink::local_track_locked() {
    if (t_track.epoch == epoch_ && t_track.tid >= 0)
        return tracks_[static_cast<std::size_t>(t_track.tid)];
    int tid;
    if (!free_tids_.empty()) {
        tid = free_tids_.back();
        free_tids_.pop_back();
    } else {
        tid = static_cast<int>(tracks_.size());
        tracks_.push_back(Track{tid, {}});
    }
    t_track.epoch = epoch_;
    t_track.tid = tid;
    return tracks_[static_cast<std::size_t>(tid)];
}

void TraceSink::release_tid(int tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tid >= 0 && static_cast<std::size_t>(tid) < tracks_.size())
        free_tids_.push_back(tid);
}

void TraceSink::push_locked(Event event) {
    if (events_.size() >= max_events_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

void TraceSink::set_thread_name(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    std::string args = "{\"name\":\"";
    append_json_escaped(args, name);
    args += "\"}";
    push_locked(Event{0.0, track.tid, 'M', "thread_name", std::move(args)});
}

void TraceSink::begin(std::string_view name, std::string args_json) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    const bool emitted = events_.size() < max_events_;
    track.open_spans.push_back(OpenSpan{std::string(name), emitted});
    push_locked(Event{now_us_locked(), track.tid, 'B', std::string(name),
                      std::move(args_json)});
}

void TraceSink::end() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    if (track.open_spans.empty()) return; // unbalanced end — ignore
    OpenSpan span = std::move(track.open_spans.back());
    track.open_spans.pop_back();
    // A span whose B fell to the event cap must not emit a dangling E.
    if (!span.emitted) return;
    events_.push_back(Event{now_us_locked(), track.tid, 'E',
                            std::move(span.name), {}});
}

void TraceSink::instant(std::string_view name, std::string args_json) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    push_locked(Event{now_us_locked(), track.tid, 'i', std::string(name),
                      std::move(args_json)});
}

std::size_t TraceSink::events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::size_t TraceSink::dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

bool TraceSink::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return true;
    closed_ = true;

    // Auto-close spans left open (a killed run, an exception path) so the
    // file always has balanced B/E pairs.
    const double end_ts = now_us_locked();
    for (Track& track : tracks_) {
        while (!track.open_spans.empty()) {
            OpenSpan span = std::move(track.open_spans.back());
            track.open_spans.pop_back();
            if (!span.emitted) continue;
            // Closing events may exceed max_events_ by the number of open
            // spans — dropping them instead would unbalance B/E pairs.
            events_.push_back(
                Event{end_ts, track.tid, 'E', std::move(span.name), {}});
        }
    }

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) return false;

    std::string out;
    out.reserve(events_.size() * 64 + 256);
    out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"ropuf\"";
    if (dropped_ > 0) {
        out += ",\"dropped_events\":";
        out += std::to_string(dropped_);
    }
    out += "},\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const Event& e : events_) {
        if (!first) out += ',';
        first = false;
        out += "{\"ph\":\"";
        out += e.ph;
        out += "\",\"pid\":1,\"tid\":";
        out += std::to_string(e.tid);
        out += ",\"ts\":";
        std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
        out += buf;
        out += ",\"name\":\"";
        append_json_escaped(out, e.name);
        out += '"';
        if (e.ph == 'i') out += ",\"s\":\"t\""; // thread-scoped instant
        if (!e.args_json.empty()) {
            out += ",\"args\":";
            out += e.args_json;
        }
        out += '}';
    }
    out += "]}\n";

    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed_ok = std::fclose(f) == 0;
    return ok && closed_ok;
}

} // namespace ropuf::obs
