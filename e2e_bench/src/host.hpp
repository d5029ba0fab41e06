// Host fingerprint and process resource probes.
//
// Every result carries the fingerprint so that numbers from different
// hosts, compilers, build types or job counts are never compared.
#pragma once

#include <cstddef>
#include <string>

namespace e2e {

struct HostFingerprint {
    unsigned nproc = 0;
    std::string cpu_model;
    std::string compiler;
    std::string build_type;
    std::size_t jobs = 0;
};

HostFingerprint host_fingerprint(std::size_t jobs);

/// User + system CPU time of the whole process (all threads) [s].
double process_cpu_seconds();

/// Peak resident set size of the process (getrusage ru_maxrss) [MiB].
double peak_rss_mib();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
/// rss_high_water_mib() afterwards covers only what follows. This lowers
/// what peak_rss_mib() reports too.
void reset_rss_high_water();

/// Peak resident set size since the last reset (/proc/self/status VmHWM)
/// [MiB]; 0 when unavailable.
double rss_high_water_mib();

}  // namespace e2e
