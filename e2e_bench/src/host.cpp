#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <thread>

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

std::string cpu_model_name() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) break;
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
    }
    return "unknown";
}

double tv_seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// A "kB" field of /proc/self/status, in MiB; 0 when absent.
double status_mib(const std::string& field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) != 0) continue;
        return std::stod(line.substr(field.size())) / 1024.0;
    }
    return 0.0;
}

}  // namespace

HostFingerprint host_fingerprint(std::size_t jobs) {
    HostFingerprint h;
    h.nproc = std::thread::hardware_concurrency();
    h.cpu_model = cpu_model_name();
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build_type = E2E_BUILD_TYPE;
    h.jobs = jobs;
    return h;
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void reset_rss_high_water() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";  // 5: reset the peak RSS to the current RSS (proc(5))
}

double rss_high_water_mib() { return status_mib("VmHWM:"); }

}  // namespace e2e
