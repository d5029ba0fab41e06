// memopt_e2e — end-to-end benchmark driver for libmemopt.
//
//   memopt_e2e --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//              [--work-dir DIR] [--trace-events FILE]
//
// Generates the workload's inputs from the seed (several times, to time
// set-up), computes a one-thread reference result, then repeats the
// operation on min(4, nproc) library threads for S seconds (at least three
// times) and writes every metric, the guards and the host fingerprint to
// FILE as JSON. --trace 0 times the
// untraced public-API operation; --trace 1 alternates it with the traced
// composition and reports per-layer metrics. Every result is digested and
// compared with the reference, and a tiny canary run with the digest
// checked in beside the benchmark; a mismatch or exception counts as failed.
// Exit status: 0 when a result was written, 1 on a usage error, 2 when
// set-up or the reference run fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "spans.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated and its median reported, so one slow disk flush
/// does not decide setup_s.
constexpr int kSetupRepeats = 3;
/// A median needs a few samples even when one operation outlasts --seconds.
constexpr std::size_t kMinOperations = 3;
/// Library threads for the measured operations: min(kMaxJobs, nproc).
constexpr std::size_t kMaxJobs = 4;

struct Options {
    e2e::Workload workload = e2e::Workload::AffinityHotspot;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t jobs = 0;
    std::string work_dir = ".bench_build/work";
    std::string out;
    std::string trace_events;
};

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: memopt_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out FILE [--work-dir DIR] [--trace-events FILE]\n",
                 message.c_str());
    std::exit(1);
}

Options parse_args(int argc, char** argv) {
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto w = e2e::parse_workload(value);
                if (!w) usage("unknown workload '" + value + "'");
                o.workload = *w;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace expects 0 or 1");
                o.trace = value == "1";
            } else if (flag == "--work-dir") {
                o.work_dir = value;
            } else if (flag == "--out") {
                o.out = value;
            } else if (flag == "--trace-events") {
                o.trace_events = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (o.out.empty()) usage("--out is required");
    if (!(o.seconds > 0.0)) usage("--seconds expects a positive duration");
    const unsigned hw = std::thread::hardware_concurrency();
    o.jobs = std::min<std::size_t>(kMaxJobs, hw == 0 ? 1 : hw);
    return o;
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& xs) {
    return xs.empty() ? 0.0 : memopt::percentile(xs, 50.0);
}

/// Unit of a metric, from its name's suffix.
std::string unit_of(const std::string& name) {
    const auto ends_with = [&](const char* suffix) {
        const std::string s(suffix);
        return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_per_s")) return "1/s";
    if (ends_with("_s")) return "s";
    if (ends_with("_mib")) return "MiB";
    if (ends_with("_uj")) return "uJ";
    if (ends_with("_pct")) return "%";
    if (ends_with("_frac") || ends_with("_ratio")) return "ratio";
    return "count";
}

/// Tallies operations and checks each result against the reference.
struct Tally {
    std::uint64_t reference_digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(const e2e::Outcome& o, const char* what) {
        if (o.digest == reference_digest) return;
        ++failed;
        std::fprintf(stderr, "mismatch: %s result differs from the one-thread reference\n", what);
    }
};

/// The reference comes from the same build; the canary's checked-in digest
/// is what catches a change in results between commits.
void check_canary(const Options& opt, Tally& tally) {
    ++tally.attempted;
    try {
        const std::string dir = opt.work_dir + "/canary";
        std::filesystem::create_directories(dir);
        const e2e::Outcome canary = e2e::run_workload(
            e2e::make_inputs(opt.workload, e2e::kCanarySeed, e2e::tiny_sizes(), dir), opt.jobs);
        if (canary.digest != e2e::canary_digest(opt.workload)) {
            ++tally.failed;
            std::fprintf(stderr,
                         "mismatch: canary digest 0x%016llx differs from the checked-in "
                         "0x%016llx; the library's simulated results changed\n",
                         static_cast<unsigned long long>(canary.digest),
                         static_cast<unsigned long long>(e2e::canary_digest(opt.workload)));
        }
    } catch (const std::exception& e) {
        ++tally.failed;
        std::fprintf(stderr, "failed: canary operation: %s\n", e.what());
    }
}

void write_result(const Options& opt, const e2e::HostFingerprint& host, const Tally& tally,
                  const std::map<std::string, double>& metrics,
                  const std::map<std::string, double>& guards,
                  const std::map<std::string, std::vector<double>>& samples) {
    memopt::atomic_write(opt.out, [&](std::ostream& os) {
        memopt::JsonWriter w(os);
        w.begin_object();
        w.member("schema", "memopt.e2e.v1");
        w.member("workload", e2e::workload_name(opt.workload));
        w.member("seed", opt.seed);
        w.member("seconds", opt.seconds);
        w.member("trace", opt.trace);
        w.key("host").begin_object();
        w.member("nproc", host.nproc);
        w.member("cpu_model", host.cpu_model);
        w.member("compiler", host.compiler);
        w.member("build_type", host.build_type);
        w.member("jobs", static_cast<std::uint64_t>(host.jobs));
        w.end_object();
        w.member("attempted", tally.attempted);
        w.member("failed", tally.failed);
        w.member("failed_frac", tally.attempted == 0
                                    ? 1.0
                                    : static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted));
        w.member("correct", tally.failed == 0 && tally.attempted > 0);
        w.key("metrics").begin_object();
        for (const auto& [name, value] : metrics) {
            w.key(name).begin_object();
            w.member("value", value);
            w.member("unit", unit_of(name));
            w.end_object();
        }
        w.end_object();
        w.key("guards").begin_object();
        for (const auto& [name, value] : guards) w.member(name, value);
        w.end_object();
        w.key("samples").begin_object();
        for (const auto& [name, xs] : samples) {
            w.key(name).begin_array();
            for (const double x : xs) w.value(x);
            w.end_array();
        }
        w.end_object();
        w.end_object();
        os << '\n';
    });
}

int run(const Options& opt) {
    const e2e::HostFingerprint host = e2e::host_fingerprint(opt.jobs);
    std::filesystem::create_directories(opt.work_dir);

    std::map<std::string, std::vector<double>> samples;
    e2e::Inputs inputs;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        inputs = e2e::make_inputs(opt.workload, opt.seed, e2e::Sizes{}, opt.work_dir);
        e2e::warm_inputs(inputs);
        samples["setup_s"].push_back(seconds_since(t0));
    }

    Tally tally;
    const e2e::Outcome reference = e2e::run_workload(inputs, 1);
    tally.reference_digest = reference.digest;

    const auto untraced_op = [&] {
        ++tally.attempted;
        try {
            const double cpu0 = e2e::process_cpu_seconds();
            const Clock::time_point t0 = Clock::now();
            const e2e::Outcome o = e2e::run_workload(inputs, opt.jobs);
            samples["wall_s"].push_back(seconds_since(t0));
            samples["cpu_s"].push_back(e2e::process_cpu_seconds() - cpu0);
            tally.check(o, "untraced");
        } catch (const std::exception& e) {
            ++tally.failed;
            std::fprintf(stderr, "failed: untraced operation: %s\n", e.what());
        }
    };

    std::map<std::string, double> metrics;
    const Clock::time_point start = Clock::now();
    if (!opt.trace) {
        while (tally.attempted < kMinOperations || seconds_since(start) < opt.seconds)
            untraced_op();
        const double wall = median(samples["wall_s"]);
        metrics["setup_s"] = median(samples["setup_s"]);
        metrics["wall_s"] = wall;
        metrics["accesses_per_s"] =
            wall > 0.0 ? static_cast<double>(inputs.distinct_accesses) / wall : 0.0;
        metrics["cpu_s"] = median(samples["cpu_s"]);
        metrics["peak_rss_mib"] = e2e::peak_rss_mib();
        metrics["sim_energy_uj"] = reference.guards.at("sim_energy_uj");
        metrics["sim_savings_pct"] = reference.guards.at("sim_savings_pct");
    } else {
        e2e::SpanRecorder rec;
        std::map<std::string, std::vector<double>> layers;
        std::size_t traced = 0;
        while (traced < kMinOperations || seconds_since(start) < opt.seconds) {
            untraced_op();
            ++tally.attempted;
            ++traced;
            try {
                e2e::TracedExtras extras;
                const e2e::Outcome o = e2e::run_workload_traced(inputs, opt.jobs, rec, extras);
                samples["traced_wall_s"].push_back(
                    rec.spans()[static_cast<std::size_t>(extras.root_span)].seconds());
                tally.check(o, "traced");
                for (const auto& [name, value] : e2e::layer_metrics(rec, extras))
                    layers[name].push_back(value);
            } catch (const std::exception& e) {
                ++tally.failed;
                std::fprintf(stderr, "failed: traced operation: %s\n", e.what());
            }
        }
        for (const auto& [name, xs] : layers) metrics[name] = median(xs);
        const double untraced_wall = median(samples["wall_s"]);
        metrics["bench.trace_overhead_frac"] =
            untraced_wall > 0.0 ? median(samples["traced_wall_s"]) / untraced_wall - 1.0 : 0.0;
        if (!opt.trace_events.empty()) rec.write_chrome_trace(opt.trace_events);
    }

    check_canary(opt, tally);
    write_result(opt, host, tally, metrics, reference.guards, samples);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
