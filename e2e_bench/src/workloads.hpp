// The benchmark's workloads: input generation from a seed, the untraced
// end-to-end operation (public libmemopt API calls, timed from outside),
// and the traced composition of the same operation one layer call at a
// time.
//
//  * affinity-hotspot  — DATE'03 1B-1 address clustering: a scattered-
//    hotspot trace (4,096 blocks, exact-DP side of auto_greedy_blocks)
//    replayed from an uncompressed .mtsc into compare(source, Affinity).
//  * wide-hybrid       — a uniform trace over 65,536 blocks (greedy side)
//    into compare(source, Frequency) and run_hybrid(source, Frequency,
//    "sram=2,sttmram=6", gate-idle 200). Bypasses affinity entirely.
//  * coherent-compress — 1B-2 compressed memory plus the other CLI
//    scenarios: a 4-core producer-consumer replay through the coherent
//    cache system, CompressedMemorySim (raw and DiffCodec) on a generated
//    value-carrying stream, and a SECDED + diff fault campaign over lines
//    cut from the same image. No cluster or partition code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace e2e {

enum class Workload { AffinityHotspot, WideHybrid, CoherentCompress };

std::string workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);
std::vector<Workload> all_workloads();

/// Input sizes. The defaults are what the benchmark measures; the tests
/// shrink them.
struct Sizes {
    std::uint64_t hotspot_accesses = 2'000'000;
    std::uint64_t hybrid_accesses = 10'000'000;
    std::uint64_t coherent_accesses = 4'000'000;  ///< over all 4 cores
    std::uint64_t compress_accesses = 2'000'000;
    std::uint64_t compress_image_bytes = 256 * 1024;
    std::size_t fault_trials = 8;
};

/// Sizes small enough for unit tests (well under a second per workload).
Sizes tiny_sizes();

/// The generated inputs of one workload: .mtsc files under a directory,
/// plus the initial memory image for coherent-compress.
struct Inputs {
    Workload workload = Workload::AffinityHotspot;
    std::uint64_t seed = 0;
    Sizes sizes;
    /// affinity-hotspot / wide-hybrid: {trace}; coherent-compress:
    /// {core 0, core 1, core 2, core 3, value stream}.
    std::vector<std::string> files;
    std::vector<std::uint8_t> image;
    /// Accesses in the inputs, each counted once however often it is replayed.
    std::uint64_t distinct_accesses = 0;
};

/// Generate the workload's inputs from `seed` and write them under `dir`
/// (which must exist). The same seed gives byte-identical files.
Inputs make_inputs(Workload workload, std::uint64_t seed, const Sizes& sizes,
                   const std::string& dir);

/// Replay every input file once: maps it, pages it in and validates every
/// block, so the first measured replay does not pay for it.
void warm_inputs(const Inputs& inputs);

/// What one run of a workload produced.
struct Outcome {
    /// to_json of every library result (no metrics section), in call order.
    std::string results_json;
    /// FNV-1a-64 of results_json.
    std::uint64_t digest = 0;
    /// Named simulated results (deterministic; see README.md).
    std::map<std::string, double> guards;
};

/// The end-to-end operation: public API calls only, no spans.
Outcome run_workload(const Inputs& inputs, std::size_t jobs);

/// Seed of the canary run: run_workload() at tiny_sizes() on inputs from
/// this seed, whose digest is checked in below.
constexpr std::uint64_t kCanarySeed = 1;

/// Checked-in digest of the canary run of `w`. Every benchmark run
/// recomputes it, so a commit that changes the library's simulated results
/// fails the run instead of moving a guard within its bound. A commit that
/// changes the results on purpose updates the value in workloads.cpp.
std::uint64_t canary_digest(Workload w);

/// Per-call measurements the traced run takes besides its spans.
struct TracedExtras {
    int root_span = -1;                    ///< the operation's "bench.op" span
    double affinity_rss_growth_mib = 0.0;  ///< peak RSS growth inside windowed_affinity
    double pool_queue_wait_s = 0.0;        ///< MetricsRegistry "pool.queue_wait" delta
    /// Work counts and ratios read off the calls and their results.
    std::map<std::string, double> counts;
};

/// The same operation composed one layer call at a time, each call inside
/// a span of `rec` under one root span "bench.op". Must return a result
/// bit-identical to run_workload().
Outcome run_workload_traced(const Inputs& inputs, std::size_t jobs, SpanRecorder& rec,
                            TracedExtras& extras);

/// Per-layer metrics of one traced operation (all but
/// bench.trace_overhead_frac, which needs the untraced wall): span totals
/// under the operation's root span, rates and counts. Layers the workload
/// does not enter read 0.
std::map<std::string, double> layer_metrics(const SpanRecorder& rec,
                                            const TracedExtras& extras);

}  // namespace e2e
