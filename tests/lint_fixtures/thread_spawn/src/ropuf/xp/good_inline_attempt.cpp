// Fixture: the thread-adjacent idioms library code may use anywhere —
// sizing a pool from std::thread::hardware_concurrency, reading a thread
// id, sleeping the calling thread — and prose or strings that merely name
// std::thread. Must lint clean.
#include <chrono>
#include <thread>

namespace ropuf::xp {

int good_worker_count(int requested) {
    if (requested > 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

bool good_inline_attempt(int hang_ms) {
    // An attempt runs inline: no std::thread here, only a bounded sleep.
    const std::thread::id self = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::milliseconds(hang_ms));
    const char* note = "std::thread in a string is not a spawn";
    return self == std::this_thread::get_id() && note != nullptr;
}

} // namespace ropuf::xp
