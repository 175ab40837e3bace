// Fixture: every way of starting a thread the thread-spawn rule must catch
// outside the work pool and the progress heartbeat. (Never compiled.)
#include <future>
#include <thread>
#include <vector>

namespace ropuf::xp {

int bad_private_threads(int jobs) {
    std::thread watchdog([] {});                               // lint-expect: thread-spawn
    watchdog.join();
    std::jthread reaper([] {});                                // lint-expect: thread-spawn
    std::vector<std::thread> zombies;                          // lint-expect: thread-spawn
    auto answer = std::async([jobs] { return jobs; });         // lint-expect: thread-spawn
    return answer.get() + static_cast<int>(zombies.size());
}

} // namespace ropuf::xp
