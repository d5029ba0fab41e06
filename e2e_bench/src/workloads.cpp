#include "workloads.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "cache/mcache.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/frequency.hpp"
#include "cluster/heat.hpp"
#include "cluster/remap_cost.hpp"
#include "compress/diff_codec.hpp"
#include "compress/memsys.hpp"
#include "compress/platform.hpp"
#include "core/flow.hpp"
#include "fault/campaign.hpp"
#include "host.hpp"
#include "partition/hybrid.hpp"
#include "partition/solver.hpp"
#include "support/durable/io_faults.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trace/affinity.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace e2e {

using namespace memopt;

namespace {

constexpr std::uint64_t kHotspotSpan = std::uint64_t{1} << 20;  // 4,096 x 256 B blocks
constexpr std::uint64_t kUniformSpan = std::uint64_t{1} << 24;  // 65,536 blocks
constexpr std::uint64_t kCoherentSpan = std::uint64_t{1} << 18;
constexpr unsigned kCores = 4;
constexpr const char* kHybridPool = "sram=2,sttmram=6";
constexpr std::uint64_t kGateIdleCycles = 200;

// Value-carrying stream for the compressed-memory simulation. Lines are
// "base + small per-word delta" (what the diff codec exploits) except for a
// share of random lines; writes store a neighbour's value plus a small
// delta, so lines stay compressible as the run rewrites them. Line choice
// is a local random walk with occasional jumps, so the 2 KiB D-cache of
// the VLIW platform both hits and evicts.
constexpr std::uint64_t kImageBase = 0;
constexpr unsigned kLineBytes = 32;
constexpr unsigned kWordsPerLine = kLineBytes / 4;
constexpr double kRandomLineFraction = 0.2;
constexpr std::int64_t kWordDelta = 100;
constexpr double kWriteFraction = 0.3;
constexpr double kLocalStepFraction = 0.9;
constexpr std::int64_t kLocalStepLines = 8;
constexpr double kFaultBitFlipRate = 1e-3;

FlowParams flow_params() { return FlowParams{}; }

HybridGatingParams hybrid_gating() {
    HybridGatingParams g;
    g.enabled = true;
    g.idle_cycles = kGateIdleCycles;
    return g;
}

FaultCampaignConfig campaign_config(const Inputs& in, const LineCodec& codec,
                                    std::size_t jobs) {
    FaultCampaignConfig c;
    c.seed = in.seed;
    c.trials = in.sizes.fault_trials;
    c.bit_flip_rate = kFaultBitFlipRate;
    c.protection = ProtectionScheme::Secded;
    c.codec = &codec;
    c.codec_tag = codec.name();
    c.line_bytes = kLineBytes;
    c.jobs = jobs;
    return c;
}

struct ValueStream {
    std::vector<std::uint8_t> image;
    MemTrace trace;
};

ValueStream make_value_stream(std::uint64_t seed, const Sizes& sizes) {
    Rng rng(seed ^ 0xC0FFEE5EEDULL);
    const std::size_t lines = sizes.compress_image_bytes / kLineBytes;
    require(lines > 0, "compress image smaller than one line");
    std::vector<std::uint32_t> mem(lines * kWordsPerLine);
    for (std::size_t l = 0; l < lines; ++l) {
        const bool random = rng.next_bool(kRandomLineFraction);
        const auto base = static_cast<std::uint32_t>(rng.next_u64());
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            mem[l * kWordsPerLine + w] =
                random ? static_cast<std::uint32_t>(rng.next_u64())
                       : base + static_cast<std::uint32_t>(rng.next_in(-kWordDelta, kWordDelta));
        }
    }
    ValueStream out;
    out.image.resize(mem.size() * 4);
    for (std::size_t i = 0; i < mem.size(); ++i)
        for (unsigned b = 0; b < 4; ++b)
            out.image[i * 4 + b] = static_cast<std::uint8_t>(mem[i] >> (8 * b));

    const std::size_t n = sizes.compress_accesses;
    std::vector<std::uint64_t> addrs(n), cycles(n);
    std::vector<std::uint32_t> values(n);
    std::vector<std::uint8_t> widths(n, 4);
    std::vector<AccessKind> kinds(n);
    auto line = static_cast<std::int64_t>(rng.next_below(lines));
    const auto nlines = static_cast<std::int64_t>(lines);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_bool(kLocalStepFraction))
            line = (line + nlines + rng.next_in(-kLocalStepLines, kLocalStepLines)) % nlines;
        else
            line = static_cast<std::int64_t>(rng.next_below(lines));
        const std::size_t first = static_cast<std::size_t>(line) * kWordsPerLine;
        const std::size_t word = first + rng.next_below(kWordsPerLine);
        if (rng.next_bool(kWriteFraction)) {
            const std::size_t neighbour = first + (word - first + 1) % kWordsPerLine;
            mem[word] = mem[neighbour] +
                        static_cast<std::uint32_t>(rng.next_in(-kWordDelta, kWordDelta));
            kinds[i] = AccessKind::Write;
        } else {
            kinds[i] = AccessKind::Read;
        }
        addrs[i] = kImageBase + word * 4;
        cycles[i] = i;
        values[i] = mem[word];
    }
    out.trace = MemTrace::from_columns(std::move(addrs), std::move(cycles), std::move(values),
                                       std::move(widths), std::move(kinds));
    return out;
}

/// Appends each library result's to_json to one JSON array.
class ResultLog {
public:
    ResultLog() : w_(os_) { w_.begin_array(); }

    template <typename T>
    void add(const T& result) {
        to_json(w_, result);
    }
    void add(const EnergyBreakdown& energy) { energy.to_json(w_); }

    Outcome finish(std::map<std::string, double> guards) {
        w_.end_array();
        Outcome o;
        o.results_json = os_.str();
        o.digest = fnv1a64(std::string_view(o.results_json));
        o.guards = std::move(guards);
        return o;
    }

private:
    std::ostringstream os_;
    JsonWriter w_;
};

std::map<std::string, double> flow_guards(const FlowComparison& cmp) {
    return {{"clustering_savings_pct", cmp.clustering_savings_pct()},
            {"sim_energy_uj", cmp.clustered.energy.total() * 1e-6},
            {"sim_savings_pct", cmp.clustering_savings_pct()}};
}

std::map<std::string, double> hybrid_guards(const FlowComparison& cmp,
                                            const HybridFlowResult& hybrid) {
    return {{"clustering_savings_pct", cmp.clustering_savings_pct()},
            {"partitioning_savings_pct", cmp.partitioning_savings_pct()},
            {"hybrid_energy_uj", hybrid.total() * 1e-6},
            {"sim_energy_uj", hybrid.total() * 1e-6},
            {"sim_savings_pct", cmp.partitioning_savings_pct()}};
}

std::map<std::string, double> coherent_guards(const EnergyBreakdown& coherent,
                                              const CompressedMemReport& base,
                                              const CompressedMemReport& comp,
                                              const FaultCampaignResult& campaign) {
    const double savings = percent_savings(base.energy.total(), comp.energy.total());
    const double silent = campaign.lines_evaluated == 0
                              ? 0.0
                              : static_cast<double>(campaign.silent) /
                                    static_cast<double>(campaign.lines_evaluated);
    return {{"coherent_energy_uj", coherent.total() * 1e-6},
            {"compression_savings_pct", savings},
            {"fault_silent_frac", silent},
            {"sim_energy_uj", coherent.total() * 1e-6},
            {"sim_savings_pct", savings}};
}

std::vector<std::unique_ptr<TraceSource>> open_core_sources(const Inputs& in) {
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (unsigned c = 0; c < kCores; ++c)
        sources.push_back(std::make_unique<MmapBinarySource>(in.files[c]));
    return sources;
}

// ---------------------------------------------------------------------------
// Traced composition.

/// Forwards a source and records every next() as a "trace.read" span:
/// the time the trace layer spends mapping, validating and delivering
/// chunks, wherever in the pipeline it is pulled.
class TimedSource final : public TraceSource {
public:
    TimedSource(std::unique_ptr<TraceSource> inner, SpanRecorder& rec)
        : inner_(std::move(inner)), rec_(rec) {
        set_summary(inner_->summary());
    }

    std::uint64_t size() const override { return inner_->size(); }
    bool stable_chunks() const override { return inner_->stable_chunks(); }
    bool next(TraceChunk& chunk) override {
        const SpanRecorder::Scope span(rec_, "trace.read");
        return inner_->next(chunk);
    }
    void reset() override { inner_->reset(); }

private:
    std::unique_ptr<TraceSource> inner_;
    SpanRecorder& rec_;
};

std::unique_ptr<TraceSource> open_traced(const std::string& path, SpanRecorder& rec) {
    const SpanRecorder::Scope span(rec, "trace.open");
    return std::make_unique<TimedSource>(std::make_unique<MmapBinarySource>(path), rec);
}

/// MemoryOptimizationFlow's compare() and run_hybrid(), one layer call per
/// span. Mirrors core/flow.cpp call for call, so the results are
/// bit-identical; the traced run checks that they are.
class TracedFlow {
public:
    TracedFlow(SpanRecorder& rec, TracedExtras& extras)
        : params_(flow_params()), rec_(rec), extras_(extras) {}

    FlowComparison compare(TraceSource& source, ClusterMethod method) {
        const BlockProfile profile = profile_of(source);
        EnergyBreakdown monolithic = [&] {
            const SpanRecorder::Scope span(rec_, "partition.evaluate");
            return evaluate_monolithic(profile, params_.energy);
        }();
        std::optional<AffinityMatrix> affinity;
        if (method == ClusterMethod::Affinity) {
            const SpanRecorder::Scope span(rec_, "trace.affinity");
            reset_rss_high_water();
            const double rss_before = rss_high_water_mib();
            affinity.emplace(windowed_affinity(source, profile, params_.affinity_window));
            extras_.affinity_rss_growth_mib += rss_high_water_mib() - rss_before;
            count("trace.affinity_accesses", static_cast<double>(source.size()));
            count("trace.affinity_pairs", static_cast<double>(affinity->stored_pairs()));
        }
        FlowResult partitioned = prepared(profile, ClusterMethod::None, nullptr, 0);
        FlowResult clustered = prepared(profile, method, affinity ? &*affinity : nullptr, 0);
        return FlowComparison{std::move(monolithic), std::move(partitioned),
                              std::move(clustered)};
    }

    HybridFlowResult run_hybrid(TraceSource& source, ClusterMethod method, const BankPool& pool,
                                const HybridGatingParams& gating) {
        const BlockProfile profile = profile_of(source);
        FlowResult base = prepared(profile, method, nullptr, pool.total_banks());
        const PartitionEnergyParams energy_params =
            evaluation_params(method, profile.num_blocks());
        const MemoryArchitecture& arch = base.solution.arch;
        const std::vector<BankActivity> activity = [&] {
            const SpanRecorder::Scope span(rec_, "partition.hybrid_replay");
            return replay_bank_activity(arch, base.map, source, gating,
                                        params_.energy.runtime_cycles);
        }();
        count("partition.hybrid_replay_accesses", static_cast<double>(source.size()));
        std::vector<MemTechnology> techs = [&] {
            const SpanRecorder::Scope span(rec_, "partition.hybrid_assign");
            return assign_technologies(arch, activity, pool, energy_params, gating);
        }();
        HybridReport report = [&] {
            const SpanRecorder::Scope span(rec_, "partition.evaluate");
            return evaluate_partition_hybrid(arch, techs, activity, energy_params, gating);
        }();
        const BlockProfile physical = apply(base.map, profile);
        std::vector<std::size_t> rank = [&] {
            const SpanRecorder::Scope span(rec_, "cluster.heat");
            return bank_heat_rank(bank_heat(arch, physical));
        }();
        return HybridFlowResult{std::move(base), pool, std::move(techs), std::move(rank),
                                std::move(report)};
    }

private:
    void count(const std::string& name, double v) { extras_.counts[name] += v; }

    BlockProfile profile_of(TraceSource& source) {
        const SpanRecorder::Scope span(rec_, "trace.profile");
        BlockProfile profile = BlockProfile::from_source(source, params_.block_size);
        count("trace.profile_accesses", static_cast<double>(source.size()));
        return profile;
    }

    BlockProfile apply(const AddressMap& map, const BlockProfile& profile) {
        const SpanRecorder::Scope span(rec_, "cluster.apply");
        return map.apply(profile);
    }

    PartitionEnergyParams evaluation_params(ClusterMethod method, std::size_t blocks) {
        PartitionEnergyParams p = params_.energy;
        if (method != ClusterMethod::None) {
            const SpanRecorder::Scope span(rec_, "cluster.remap");
            p.extra_pj_per_access = RemapTableModel(blocks, params_.remap).lookup_energy();
        }
        return p;
    }

    FlowResult prepared(const BlockProfile& profile, ClusterMethod method,
                        const AffinityMatrix* affinity, std::size_t pool_banks) {
        AddressMap map = AddressMap::identity(profile.block_size(), profile.num_blocks());
        if (method == ClusterMethod::Frequency) {
            const SpanRecorder::Scope span(rec_, "cluster.frequency");
            map = frequency_clustering(profile);
        } else if (method == ClusterMethod::Affinity) {
            require(affinity != nullptr, "traced flow: affinity clustering needs the matrix");
            const SpanRecorder::Scope span(rec_, "cluster.affinity");
            map = affinity_clustering(profile, *affinity, params_.affinity);
        }
        const BlockProfile physical = apply(map, profile);
        const PartitionEnergyParams energy_params =
            evaluation_params(method, physical.num_blocks());
        const bool greedy = params_.use_greedy_solver ||
                            physical.num_blocks() > params_.auto_greedy_blocks;
        PartitionSolution solution = [&] {
            const SpanRecorder::Scope span(rec_, "partition.solve");
            if (pool_banks > 0)
                return solve_partition_pooled(physical, params_.constraints, energy_params,
                                              pool_banks, greedy);
            return greedy
                       ? solve_partition_greedy(physical, params_.constraints, energy_params)
                       : solve_partition_optimal(physical, params_.constraints, energy_params);
        }();
        count("partition.solve_blocks", static_cast<double>(physical.num_blocks()));
        FlowResult result{method, std::move(map), std::move(solution), EnergyBreakdown{}};
        result.energy = result.solution.energy;
        return result;
    }

    FlowParams params_;
    SpanRecorder& rec_;
    TracedExtras& extras_;
};

double pool_queue_wait_seconds() {
    return static_cast<double>(MetricsRegistry::instance().timer("pool.queue_wait").total_ns()) *
           1e-9;
}

}  // namespace

std::string workload_name(Workload w) {
    switch (w) {
        case Workload::AffinityHotspot: return "affinity-hotspot";
        case Workload::WideHybrid: return "wide-hybrid";
        case Workload::CoherentCompress: return "coherent-compress";
    }
    return "?";
}

std::uint64_t canary_digest(Workload w) {
    switch (w) {
        case Workload::AffinityHotspot: return 0x4d85bff7ec49b999ULL;
        case Workload::WideHybrid: return 0xede7eeddb803663cULL;
        case Workload::CoherentCompress: return 0x41ff5d19f4ee3c43ULL;
    }
    return 0;
}

std::optional<Workload> parse_workload(std::string_view name) {
    for (const Workload w : all_workloads())
        if (workload_name(w) == name) return w;
    return std::nullopt;
}

std::vector<Workload> all_workloads() {
    return {Workload::AffinityHotspot, Workload::WideHybrid, Workload::CoherentCompress};
}

Sizes tiny_sizes() {
    Sizes s;
    s.hotspot_accesses = 20'000;
    s.hybrid_accesses = 20'000;
    s.coherent_accesses = 20'000;
    s.compress_accesses = 20'000;
    s.compress_image_bytes = 16 * 1024;
    s.fault_trials = 2;
    return s;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, const Sizes& sizes,
                   const std::string& dir) {
    Inputs in;
    in.workload = workload;
    in.seed = seed;
    in.sizes = sizes;
    const auto path = [&](const std::string& stem) {
        return dir + "/" + workload_name(workload) + "-" + stem + ".mtsc";
    };
    const auto write_synthetic = [&](const SyntheticSpec& spec, const std::string& stem) {
        SyntheticSource source(spec);
        in.files.push_back(path(stem));
        write_trace_stream(in.files.back(), source);
        in.distinct_accesses += spec.base.num_accesses;
    };
    switch (workload) {
        case Workload::AffinityHotspot: {
            SyntheticSpec spec;
            spec.kind = SyntheticKind::Hotspot;
            spec.base.span_bytes = kHotspotSpan;
            spec.base.num_accesses = sizes.hotspot_accesses;
            spec.base.seed = seed;
            write_synthetic(spec, "trace");
            break;
        }
        case Workload::WideHybrid: {
            SyntheticSpec spec;
            spec.kind = SyntheticKind::Uniform;
            spec.base.span_bytes = kUniformSpan;
            spec.base.num_accesses = sizes.hybrid_accesses;
            spec.base.seed = seed;
            write_synthetic(spec, "trace");
            break;
        }
        case Workload::CoherentCompress: {
            SyntheticSpec spec;
            spec.kind = SyntheticKind::ProducerConsumer;
            spec.base.span_bytes = kCoherentSpan;
            spec.base.num_accesses = sizes.coherent_accesses / kCores;
            spec.base.seed = seed;
            spec.cores = kCores;
            for (const SyntheticSpec& core : per_core_specs(spec))
                write_synthetic(core, "core" + std::to_string(core.core_id));
            ValueStream vs = make_value_stream(seed, sizes);
            in.files.push_back(path("values"));
            write_trace_stream(in.files.back(), vs.trace);
            in.distinct_accesses += vs.trace.size();
            in.image = std::move(vs.image);
            break;
        }
    }
    return in;
}

void warm_inputs(const Inputs& inputs) {
    for (const std::string& file : inputs.files) {
        MmapBinarySource source(file);
        TraceChunk chunk;
        while (source.next(chunk)) {
        }
    }
}

Outcome run_workload(const Inputs& in, std::size_t jobs) {
    set_default_jobs(jobs);
    const MemoryOptimizationFlow flow(flow_params());
    ResultLog log;
    switch (in.workload) {
        case Workload::AffinityHotspot: {
            MmapBinarySource source(in.files[0]);
            const FlowComparison cmp = flow.compare(source, ClusterMethod::Affinity);
            log.add(cmp);
            return log.finish(flow_guards(cmp));
        }
        case Workload::WideHybrid: {
            MmapBinarySource source(in.files[0]);
            const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);
            const HybridFlowResult hybrid = flow.run_hybrid(
                source, ClusterMethod::Frequency, BankPool::parse(kHybridPool), hybrid_gating());
            log.add(cmp);
            log.add(hybrid);
            return log.finish(hybrid_guards(cmp, hybrid));
        }
        case Workload::CoherentCompress: {
            MultiCoreConfig config;
            config.cores = kCores;
            MultiCoreCacheSystem system(config);
            const std::vector<std::unique_ptr<TraceSource>> sources = open_core_sources(in);
            system.replay(sources);
            system.flush();
            const EnergyBreakdown coherent = system.energy();

            MmapBinarySource values(in.files[kCores]);
            const CompressedMemConfig platform = vliw_platform().config;
            const DiffCodec diff;
            const CompressedMemReport base =
                CompressedMemorySim(platform, nullptr).run(values, in.image, kImageBase);
            const CompressedMemReport comp =
                CompressedMemorySim(platform, &diff).run(values, in.image, kImageBase);

            const auto corpus = line_corpus(in.image, kLineBytes);
            const FaultCampaignResult campaign =
                run_campaign(campaign_config(in, diff, jobs), corpus);

            log.add(system);
            log.add(coherent);
            log.add(base);
            log.add(comp);
            log.add(campaign);
            return log.finish(coherent_guards(coherent, base, comp, campaign));
        }
    }
    throw Error("run_workload: unknown workload");
}

Outcome run_workload_traced(const Inputs& in, std::size_t jobs, SpanRecorder& rec,
                            TracedExtras& extras) {
    set_default_jobs(jobs);
    ResultLog log;
    std::map<std::string, double> guards;
    const double wait_before = pool_queue_wait_seconds();
    {
        const SpanRecorder::Scope root(rec, "bench.op");
        extras.root_span = static_cast<int>(rec.spans().size()) - 1;
        switch (in.workload) {
            case Workload::AffinityHotspot: {
                TracedFlow flow(rec, extras);
                const std::unique_ptr<TraceSource> source = open_traced(in.files[0], rec);
                const FlowComparison cmp = flow.compare(*source, ClusterMethod::Affinity);
                log.add(cmp);
                guards = flow_guards(cmp);
                break;
            }
            case Workload::WideHybrid: {
                TracedFlow flow(rec, extras);
                const std::unique_ptr<TraceSource> source = open_traced(in.files[0], rec);
                const FlowComparison cmp = flow.compare(*source, ClusterMethod::Frequency);
                const HybridFlowResult hybrid =
                    flow.run_hybrid(*source, ClusterMethod::Frequency,
                                    BankPool::parse(kHybridPool), hybrid_gating());
                log.add(cmp);
                log.add(hybrid);
                guards = hybrid_guards(cmp, hybrid);
                break;
            }
            case Workload::CoherentCompress: {
                MultiCoreConfig config;
                config.cores = kCores;
                MultiCoreCacheSystem system(config);
                std::vector<std::unique_ptr<TraceSource>> sources;
                for (unsigned c = 0; c < kCores; ++c)
                    sources.push_back(open_traced(in.files[c], rec));
                {
                    const SpanRecorder::Scope span(rec, "cache.replay");
                    system.replay(sources);
                }
                std::uint64_t replayed = 0;
                for (const auto& s : sources) replayed += s->size();
                extras.counts["cache.replay_accesses"] += static_cast<double>(replayed);
                {
                    const SpanRecorder::Scope span(rec, "cache.flush");
                    system.flush();
                }
                const EnergyBreakdown coherent = [&] {
                    const SpanRecorder::Scope span(rec, "cache.energy");
                    return system.energy();
                }();
                extras.counts["cache.l1_miss_ratio"] = system.l1_totals().miss_rate();
                extras.counts["cache.coherence_msgs"] =
                    static_cast<double>(system.directory().stats().messages());

                const std::unique_ptr<TraceSource> values = open_traced(in.files[kCores], rec);
                const CompressedMemConfig platform = vliw_platform().config;
                const DiffCodec diff;
                const CompressedMemReport base = [&] {
                    const SpanRecorder::Scope span(rec, "compress.base");
                    return CompressedMemorySim(platform, nullptr).run(*values, in.image, kImageBase);
                }();
                const CompressedMemReport comp = [&] {
                    const SpanRecorder::Scope span(rec, "compress.codec");
                    return CompressedMemorySim(platform, &diff).run(*values, in.image, kImageBase);
                }();
                extras.counts["compress.traffic_ratio"] = comp.traffic_ratio();

                const auto corpus = [&] {
                    const SpanRecorder::Scope span(rec, "fault.corpus");
                    return line_corpus(in.image, kLineBytes);
                }();
                const FaultCampaignResult campaign = [&] {
                    const SpanRecorder::Scope span(rec, "fault.campaign");
                    return run_campaign(campaign_config(in, diff, jobs), corpus);
                }();
                extras.counts["fault.lines"] += static_cast<double>(campaign.lines_evaluated);

                log.add(system);
                log.add(coherent);
                log.add(base);
                log.add(comp);
                log.add(campaign);
                guards = coherent_guards(coherent, base, comp, campaign);
                break;
            }
        }
    }
    extras.pool_queue_wait_s += pool_queue_wait_seconds() - wait_before;
    return log.finish(std::move(guards));
}

std::map<std::string, double> layer_metrics(const SpanRecorder& rec,
                                            const TracedExtras& extras) {
    const int root = extras.root_span;
    const auto secs = [&](const std::string& span) { return rec.total_seconds(span, root); };
    const auto count = [&](const std::string& name) {
        const auto it = extras.counts.find(name);
        return it == extras.counts.end() ? 0.0 : it->second;
    };
    const auto rate = [](double work, double seconds) {
        return seconds > 0.0 ? work / seconds : 0.0;
    };
    std::map<std::string, double> m;
    m["trace.replay_s"] = secs("trace.read") + secs("trace.open");
    m["trace.profile_s"] = secs("trace.profile");
    m["trace.profile_acc_per_s"] = rate(count("trace.profile_accesses"), m["trace.profile_s"]);
    m["trace.affinity_s"] = secs("trace.affinity");
    m["trace.affinity_acc_per_s"] =
        rate(count("trace.affinity_accesses"), m["trace.affinity_s"]);
    m["trace.affinity_pairs"] = count("trace.affinity_pairs");
    m["trace.affinity_rss_growth_mib"] = extras.affinity_rss_growth_mib;
    m["cluster.affinity_s"] = secs("cluster.affinity");
    m["cluster.frequency_s"] = secs("cluster.frequency");
    m["cluster.apply_s"] = secs("cluster.apply");
    m["partition.solve_s"] = secs("partition.solve");
    m["partition.solve_blocks"] = count("partition.solve_blocks");
    m["partition.evaluate_s"] = secs("partition.evaluate");
    m["partition.hybrid_replay_s"] = secs("partition.hybrid_replay");
    m["partition.hybrid_replay_acc_per_s"] =
        rate(count("partition.hybrid_replay_accesses"), m["partition.hybrid_replay_s"]);
    m["partition.hybrid_assign_s"] = secs("partition.hybrid_assign");
    m["cache.replay_s"] = secs("cache.replay");
    m["cache.replay_acc_per_s"] = rate(count("cache.replay_accesses"), m["cache.replay_s"]);
    m["cache.l1_miss_ratio"] = count("cache.l1_miss_ratio");
    m["cache.coherence_msgs"] = count("cache.coherence_msgs");
    m["compress.base_s"] = secs("compress.base");
    m["compress.codec_s"] = secs("compress.codec");
    m["compress.traffic_ratio"] = count("compress.traffic_ratio");
    m["fault.campaign_s"] = secs("fault.campaign");
    m["fault.lines_per_s"] = rate(count("fault.lines"), m["fault.campaign_s"]);
    m["support.pool_queue_wait_s"] = extras.pool_queue_wait_s;
    m["bench.unattributed_frac"] = rec.unattributed_fraction(root);
    return m;
}

}  // namespace e2e
