// Runs one command and reports its wall time, CPU time and peak RSS.
//
//   bench_measure <out.json> <command> [args...]
//
// Writes {"wall_s", "cpu_s", "maxrss_kb", "exit"} to <out.json> and exits
// with the command's exit code (128 + signal when it was killed).
//
// Why a separate program: a child forked from the Python harness starts as
// a copy of the harness's address space, and the kernel's peak-RSS figure
// (ru_maxrss) covers that pre-exec image too — so the harness would measure
// its own memory, not the command's. Forked from this small process, the
// command's peak RSS is its own.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fputs("usage: bench_measure <out.json> <command> [args...]\n", stderr);
        return 2;
    }
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("bench_measure: fork");
        return 1;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror("bench_measure: exec");
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("bench_measure: wait4");
        return 1;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const timeval& user = usage.ru_utime;
    const timeval& sys = usage.ru_stime;
    const double cpu_s = static_cast<double>(user.tv_sec + sys.tv_sec) +
                         static_cast<double>(user.tv_usec + sys.tv_usec) * 1e-6;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
        std::perror("bench_measure: open output");
        return 1;
    }
    std::fprintf(out, "{\"wall_s\":%.9f,\"cpu_s\":%.6f,\"maxrss_kb\":%ld,\"exit\":%d}\n", wall_s,
                 cpu_s, usage.ru_maxrss, code);
    std::fclose(out);
    return code;
}
