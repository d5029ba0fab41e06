// Differential tests: optimized kernels pinned against deliberately naive
// reference implementations on seeded random inputs.
//
// The affinity builder counts block pairs in a dense triangle or in flat
// tables merged as sorted runs across shards; the references here walk
// every access pair (i, j) with 0 < j - i < window into a std::map. Both
// accumulator storages (either side of kAffinityDenseMaxBlocks), both
// replay paths of stream_accumulate (stable MaterializedSource shards,
// non-stable SyntheticSource per-slot states) and several job counts must
// reproduce the reference exactly.
//
// The bank-activity replay sums per-bank access gaps over parallel shards,
// and the sleepy replay settles only the accessed bank; their references
// are the sequential state machines that settle every bank on every
// access.
//
// The coherent-compress path: bit I/O moves whole words, pinned against
// per-bit readers and writers; every codec's compressed_bits() equals the
// length of its encode(), and the compressed-memory simulation prices a
// write-back identically from either; and the set-sharded coherent replay
// reproduces the serial loop (default_jobs() == 1) at jobs 2, 4 and 8.
//
// The exact partition DP solves each row's columns over parallel grains
// with a 4-lane argmin on double prefix counts; its reference is the
// serial scan over integer prefixes it replaced, and splits and energy
// totals must match it exactly at jobs 1, 2 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/mcache.hpp"
#include "cluster/address_map.hpp"
#include "compress/bdi_codec.hpp"
#include "compress/codec.hpp"
#include "compress/dictionary_codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/memsys.hpp"
#include "compress/zero_run.hpp"
#include "energy/sram_model.hpp"
#include "partition/bank.hpp"
#include "partition/evaluate.hpp"
#include "partition/hybrid.hpp"
#include "partition/sleep.hpp"
#include "partition/solver.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/affinity.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace memopt {
namespace {

using PairCounts = std::map<std::pair<std::size_t, std::size_t>, std::uint64_t>;

constexpr std::uint64_t kBlockSize = 64;
/// Small chunks, so shards and per-slot states see many chunk boundaries.
constexpr std::size_t kChunk = 4096;

/// Every access pair (i, j) with 0 < j - i < window whose blocks differ,
/// counted once under its (min, max) block pair.
PairCounts naive_window_pairs(const MemTrace& trace, std::size_t window) {
    PairCounts ref;
    const auto addrs = trace.addrs();
    for (std::size_t j = 0; j < addrs.size(); ++j) {
        const std::size_t first = j + 1 >= window ? j + 1 - window : 0;
        for (std::size_t i = first; i < j; ++i) {
            const auto a = static_cast<std::size_t>(addrs[i] / kBlockSize);
            const auto b = static_cast<std::size_t>(addrs[j] / kBlockSize);
            if (a != b) ++ref[{std::min(a, b), std::max(a, b)}];
        }
    }
    return ref;
}

/// The matrix holds exactly the reference counts: same stored pairs, same
/// values both ways round, same total, and ascending off-diagonal
/// neighbour rows.
void expect_matches(const AffinityMatrix& m, const PairCounts& ref) {
    ASSERT_EQ(m.stored_pairs(), ref.size());
    std::uint64_t total = 0;
    std::vector<std::vector<std::pair<std::size_t, double>>> rows(m.num_blocks());
    for (const auto& [pair, count] : ref) {
        const auto [a, b] = pair;
        const auto w = static_cast<double>(count);
        ASSERT_EQ(m.at(a, b), w) << a << "," << b;
        ASSERT_EQ(m.at(b, a), w) << b << "," << a;
        total += count;
        if (a == b) continue;  // for_each_neighbor skips the diagonal
        rows[a].emplace_back(b, w);
        rows[b].emplace_back(a, w);
    }
    EXPECT_EQ(m.total(), static_cast<double>(total));
    for (std::size_t a = 0; a < m.num_blocks(); ++a) {
        std::sort(rows[a].begin(), rows[a].end());
        std::vector<std::pair<std::size_t, double>> got;
        m.for_each_neighbor(a, [&](std::size_t b, double w) { got.emplace_back(b, w); });
        ASSERT_EQ(got, rows[a]) << "row " << a;
    }
}

struct TraceCase {
    std::size_t blocks;    // span / kBlockSize
    std::size_t accesses;  // long enough for several shards at jobs 4 and 8
    std::size_t window;
};

/// Hotspot traces over `blocks` blocks: mostly hot pairs that every shard
/// shares, plus a cold background that keeps adding new keys.
SyntheticSpec spec_for(const TraceCase& c, std::uint64_t seed) {
    return parse_synthetic_spec("hotspot,span=" + std::to_string(c.blocks * kBlockSize) +
                                ",n=" + std::to_string(c.accesses) +
                                ",seed=" + std::to_string(seed) +
                                ",hotspots=6,hotspot-bytes=512,hot-frac=0.95");
}

// 140,000 accesses give 2 shards; 540,000 give 8 at jobs 8 (see
// kMinAccessesPerTask). 512 blocks accumulate in the triangle, 2,048 in the
// pair table.
const TraceCase kCases[] = {
    {512, 140'000, 32},
    {512, 540'000, 4},
    {2048, 140'000, 32},
    {2048, 540'000, 4},
};

/// Runs windowed_affinity at jobs 1/4/8 over a stable and a non-stable
/// source of each case's trace and checks every result against the naive
/// pair counts. The window is `fixed_window`, or with `fixed_window == 0`
/// the case's window.
void check_against_reference(std::size_t fixed_window) {
    std::uint64_t seed = 101;
    for (const TraceCase& c : kCases) {
        const SyntheticSpec spec = spec_for(c, seed++);
        const MemTrace trace = materialize_synthetic(spec);
        const std::size_t window = fixed_window == 0 ? c.window : fixed_window;
        const PairCounts ref = naive_window_pairs(trace, window);
        MaterializedSource stable(trace, kChunk);
        SyntheticSource streamed(spec, kChunk);
        ASSERT_TRUE(stable.stable_chunks());
        ASSERT_FALSE(streamed.stable_chunks());
        const BlockProfile profile = BlockProfile::from_source(stable, kBlockSize);
        ASSERT_EQ(profile.num_blocks(), c.blocks);
        for (TraceSource* source : {static_cast<TraceSource*>(&stable),
                                    static_cast<TraceSource*>(&streamed)}) {
            for (const std::size_t jobs : {1, 4, 8}) {
                SCOPED_TRACE("blocks " + std::to_string(c.blocks) + ", accesses " +
                             std::to_string(c.accesses) + ", window " +
                             std::to_string(window) + ", jobs " + std::to_string(jobs) +
                             (source == &stable ? ", stable" : ", streamed"));
                expect_matches(windowed_affinity(*source, profile, window, jobs), ref);
            }
        }
    }
}

TEST(DifferentialAffinity, WindowedMatchesNaiveReference) { check_against_reference(0); }

TEST(DifferentialAffinity, TransitionMatchesNaiveReference) {
    // A transition is a co-access at distance 1: the window-2 pair set,
    // whose sliding window is a one-slot ring.
    check_against_reference(2);
}

TEST(DifferentialAffinity, AccumulatorGrowthAndMergeMatchReference) {
    // 1,500 blocks: pair-table accumulation. Accumulator `a` takes 20,000 distinct pairs, far beyond three
    // doublings of its pair table; `b` draws from a disjoint block range,
    // `c` from a range overlapping `a`'s.
    const std::size_t n = 1500;
    using Adds = std::vector<std::pair<std::size_t, std::size_t>>;
    PairCounts ref;
    Rng rng(77);
    auto draw = [&](std::size_t lo, std::size_t hi, std::size_t distinct) {
        Adds adds;
        PairCounts mine;
        while (mine.size() < distinct) {
            const auto x = static_cast<std::size_t>(lo + rng.next_below(hi - lo));
            const auto y = static_cast<std::size_t>(lo + rng.next_below(hi - lo));
            const std::uint64_t repeat = 1 + rng.next_below(3);
            for (std::uint64_t r = 0; r < repeat; ++r) {
                adds.emplace_back(x, y);
                ++mine[{std::min(x, y), std::max(x, y)}];
                ++ref[{std::min(x, y), std::max(x, y)}];
            }
        }
        return adds;
    };
    const Adds adds_a = draw(0, 700, 20'000);
    const Adds adds_b = draw(700, 1500, 5'000);
    const Adds adds_c = draw(350, 1050, 8'000);
    const Adds adds_after = draw(0, 1500, 3'000);

    auto fed = [&](const Adds& adds) {
        AffinityAccumulator acc(n);
        for (const auto& [x, y] : adds) acc.add(x, y);
        return acc;
    };
    AffinityAccumulator a = fed(adds_a);
    a.merge(fed(adds_b));
    a.merge(fed(adds_c));
    // Counting continues after a merge: the new table joins the run.
    for (const auto& [x, y] : adds_after) a.add(x, y);
    expect_matches(a.finalize(), ref);
}

// ------------------------------------------------ bank-activity replays ----

/// The gating state machine replay_bank_activity replaced: every access
/// settles every bank whose idle threshold has passed.
std::vector<BankActivity> naive_bank_activity(const MemoryArchitecture& arch,
                                              const AddressMap& map, const MemTrace& trace,
                                              const HybridGatingParams& gating,
                                              std::uint64_t min_total_cycles) {
    struct BankState {
        std::uint64_t last_access = 0;
        std::uint64_t state_since = 0;
        bool gated = false;
    };
    const std::size_t num_banks = arch.num_banks();
    std::vector<BankActivity> activity(num_banks);
    std::vector<BankState> states(num_banks);
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        now = trace.cycles()[i];
        const std::size_t bank =
            arch.bank_of_block(static_cast<std::size_t>(map.map_addr(trace.addrs()[i]) /
                                                        arch.block_size()));
        if (gating.enabled) {
            for (std::size_t b = 0; b < num_banks; ++b) {
                BankState& s = states[b];
                if (!s.gated && now > s.last_access + gating.idle_cycles) {
                    const std::uint64_t gate_start = s.last_access + gating.idle_cycles;
                    activity[b].active_cycles += gate_start - s.state_since;
                    s.gated = true;
                    s.state_since = gate_start;
                }
            }
            BankState& s = states[bank];
            if (s.gated) {
                activity[bank].gated_cycles += now - s.state_since;
                s.gated = false;
                s.state_since = now;
                ++activity[bank].wakeups;
            }
            s.last_access = now;
        }
        if (trace.kinds()[i] == AccessKind::Read)
            ++activity[bank].reads;
        else
            ++activity[bank].writes;
    }
    const std::uint64_t end = std::max(now + 1, min_total_cycles);
    for (std::size_t b = 0; b < num_banks; ++b) {
        BankState& s = states[b];
        if (gating.enabled && !s.gated && end > s.last_access + gating.idle_cycles) {
            const std::uint64_t gate_start = s.last_access + gating.idle_cycles;
            activity[b].active_cycles += gate_start - s.state_since;
            s.gated = true;
            s.state_since = gate_start;
        }
        if (s.gated)
            activity[b].gated_cycles += end - s.state_since;
        else
            activity[b].active_cycles += end - s.state_since;
    }
    return activity;
}

/// The sleep controller evaluate_partition_sleepy replaced: every access
/// settles every bank whose idle threshold has passed.
SleepReport naive_sleepy(const MemoryArchitecture& arch, const AddressMap& map,
                         const MemTrace& trace, const PartitionEnergyParams& energy_params,
                         const SleepParams& sleep) {
    const std::size_t num_banks = arch.num_banks();
    std::vector<SramEnergyModel> models;
    for (const Bank& bank : arch.banks())
        models.emplace_back(bank.size_bytes, 32, energy_params.sram, energy_params.protection);
    struct BankState {
        std::uint64_t last_access = 0;
        std::uint64_t awake_since = 0;
        bool asleep = false;
        double leak_pj = 0.0;
    };
    std::vector<BankState> states(num_banks);
    std::vector<SleepBankStats> stats(num_banks);
    double access_pj = 0.0;
    double wake_pj = 0.0;
    auto accrue_leak = [&](std::size_t b, std::uint64_t from, std::uint64_t to) {
        if (to <= from) return;
        const double nominal = models[b].leakage_energy(to - from, sleep.cycle_ns);
        states[b].leak_pj += states[b].asleep ? nominal * sleep.sleep_leak_factor : nominal;
    };
    auto settle_all = [&](std::uint64_t now) {
        for (std::size_t b = 0; b < num_banks; ++b) {
            BankState& s = states[b];
            if (!s.asleep && now > s.last_access + sleep.idle_cycles) {
                const std::uint64_t sleep_start = s.last_access + sleep.idle_cycles;
                accrue_leak(b, s.awake_since, sleep_start);
                s.asleep = true;
                s.awake_since = sleep_start;
            }
        }
    };
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        now = trace.cycles()[i];
        const std::size_t bank =
            arch.bank_of_block(static_cast<std::size_t>(map.map_addr(trace.addrs()[i]) /
                                                        arch.block_size()));
        settle_all(now);
        BankState& s = states[bank];
        if (s.asleep) {
            const std::uint64_t slept_since = s.awake_since;
            accrue_leak(bank, slept_since, now);
            s.asleep = false;
            s.awake_since = now;
            wake_pj += sleep.wakeup_pj;
            ++stats[bank].wakeups;
            stats[bank].asleep_cycles += now - slept_since;
        }
        access_pj += trace.kinds()[i] == AccessKind::Read ? models[bank].read_energy()
                                                          : models[bank].write_energy();
        ++stats[bank].accesses;
        s.last_access = now;
    }
    const std::uint64_t end = now + 1;
    settle_all(end);
    for (std::size_t b = 0; b < num_banks; ++b) {
        accrue_leak(b, states[b].awake_since, end);
        if (states[b].asleep) stats[b].asleep_cycles += end - states[b].awake_since;
    }
    const auto accesses = static_cast<double>(trace.size());
    SleepReport report;
    report.banks = std::move(stats);
    report.energy.add("bank_access", access_pj);
    report.energy.add("bank_select",
                      bank_select_energy(num_banks, energy_params.sram) * accesses);
    if (energy_params.extra_pj_per_access > 0.0)
        report.energy.add("remap", energy_params.extra_pj_per_access * accesses);
    if (energy_params.protection != ProtectionScheme::None)
        report.energy.add("ecc", protection_access_energy(energy_params.protection, 32,
                                                          energy_params.sram) *
                                     accesses);
    double leak_total = 0.0;
    for (const BankState& s : states) leak_total += s.leak_pj;
    report.energy.add("leakage", leak_total);
    report.energy.add("wakeup", wake_pj);
    return report;
}

constexpr std::uint64_t kIdle = 200;

/// 540,000 accesses (8 shards at jobs 8) over 256 blocks whose cycle gaps
/// straddle 0, 1 and kIdle: mostly short bursts, some gaps within one cycle
/// of kIdle, some far past it. Logical blocks whose physical block under
/// `map` is in [cold_from, 256) are never touched, so neither is the
/// bank holding them. Three quarters of the accesses go to 12 hot blocks,
/// so the other banks see long gaps.
MemTrace bursty_gap_trace(const AddressMap& map, std::size_t cold_from, std::uint64_t seed) {
    std::vector<std::size_t> touched;
    for (std::size_t l = 0; l < map.num_blocks(); ++l)
        if (map.map_block(l) < cold_from) touched.push_back(l);
    Rng rng(seed);
    const std::size_t n = 540'000;
    std::vector<std::uint64_t> addrs(n);
    std::vector<std::uint64_t> cycles(n);
    std::vector<AccessKind> kinds(n);
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.next_below(100);
        if (r < 55) now += rng.next_below(3);                     // 0, 1, 2
        else if (r < 75) now += kIdle - 1 + rng.next_below(3);   // kIdle +- 1
        else if (r < 95) now += rng.next_below(kIdle);
        else now += kIdle * (2 + rng.next_below(20));
        const std::size_t pick = rng.next_below(4) == 0
                                     ? static_cast<std::size_t>(rng.next_below(touched.size()))
                                     : static_cast<std::size_t>(rng.next_below(12));
        addrs[i] = touched[pick] * kBlockSize + 4 * rng.next_below(kBlockSize / 4);
        cycles[i] = now;
        kinds[i] = rng.next_below(10) < 3 ? AccessKind::Write : AccessKind::Read;
    }
    return MemTrace::from_columns(std::move(addrs), std::move(cycles),
                                  std::vector<std::uint32_t>(n, 0),
                                  std::vector<std::uint8_t>(n, 4), std::move(kinds));
}

/// A seeded random bijection over `blocks` blocks.
AddressMap shuffled_map(std::size_t blocks, std::uint64_t seed) {
    std::vector<std::size_t> perm(blocks);
    for (std::size_t b = 0; b < blocks; ++b) perm[b] = b;
    Rng rng(seed);
    rng.shuffle(perm);
    return AddressMap(kBlockSize, std::move(perm));
}

/// Six banks over 256 blocks; the last, [248, 256), is the cold one.
MemoryArchitecture six_banks(std::size_t blocks) {
    return MemoryArchitecture::from_splits(kBlockSize, blocks,
                                           {8, 40, 100, 180, blocks - 8});
}

void expect_activity_equal(const std::vector<BankActivity>& got,
                           const std::vector<BankActivity>& ref) {
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t b = 0; b < ref.size(); ++b) {
        EXPECT_EQ(got[b].reads, ref[b].reads) << "bank " << b;
        EXPECT_EQ(got[b].writes, ref[b].writes) << "bank " << b;
        EXPECT_EQ(got[b].wakeups, ref[b].wakeups) << "bank " << b;
        EXPECT_EQ(got[b].active_cycles, ref[b].active_cycles) << "bank " << b;
        EXPECT_EQ(got[b].gated_cycles, ref[b].gated_cycles) << "bank " << b;
    }
}

void expect_sleep_equal(const SleepReport& got, const SleepReport& ref) {
    ASSERT_EQ(got.energy.components().size(), ref.energy.components().size());
    for (std::size_t i = 0; i < ref.energy.components().size(); ++i) {
        EXPECT_EQ(got.energy.components()[i].first, ref.energy.components()[i].first);
        EXPECT_EQ(got.energy.components()[i].second, ref.energy.components()[i].second)
            << ref.energy.components()[i].first;
    }
    ASSERT_EQ(got.banks.size(), ref.banks.size());
    for (std::size_t b = 0; b < ref.banks.size(); ++b) {
        EXPECT_EQ(got.banks[b].accesses, ref.banks[b].accesses) << "bank " << b;
        EXPECT_EQ(got.banks[b].wakeups, ref.banks[b].wakeups) << "bank " << b;
        EXPECT_EQ(got.banks[b].asleep_cycles, ref.banks[b].asleep_cycles) << "bank " << b;
    }
}

/// Gating off, plus idle thresholds 0, 1 and kIdle.
std::vector<HybridGatingParams> gating_cases() {
    std::vector<HybridGatingParams> cases;
    HybridGatingParams off;
    off.enabled = false;
    cases.push_back(off);
    for (const std::uint64_t idle : {std::uint64_t{0}, std::uint64_t{1}, kIdle}) {
        HybridGatingParams on;
        on.idle_cycles = idle;
        cases.push_back(on);
    }
    return cases;
}

/// Restores the process-wide job count however the test leaves.
class DifferentialReplay : public ::testing::Test {
protected:
    void TearDown() override { set_default_jobs(0); }
};

TEST_F(DifferentialReplay, BankActivityMatchesStateMachineOnBurstyGaps) {
    const std::size_t blocks = 256;
    const AddressMap map = shuffled_map(blocks, 5);
    const MemoryArchitecture arch = six_banks(blocks);
    const MemTrace trace = bursty_gap_trace(map, blocks - 8, 17);
    MaterializedSource source(trace, kChunk);
    const std::uint64_t last = trace.cycles().back();
    for (const HybridGatingParams& gating : gating_cases()) {
        // 0: the window ends after the last access; last + 12,345 runs past
        // it, so every bank's closing gap grows.
        for (const std::uint64_t min_total : {std::uint64_t{0}, last + 12'345}) {
            const std::vector<BankActivity> ref =
                naive_bank_activity(arch, map, trace, gating, min_total);
            ASSERT_EQ(ref.back().accesses(), 0u);  // the cold bank
            for (const std::size_t jobs : {1, 4, 8}) {
                SCOPED_TRACE("gating " + std::to_string(gating.enabled) + ", idle " +
                             std::to_string(gating.idle_cycles) + ", min_total " +
                             std::to_string(min_total) + ", jobs " + std::to_string(jobs));
                set_default_jobs(jobs);
                expect_activity_equal(replay_bank_activity(arch, map, source, gating, min_total),
                                      ref);
            }
        }
    }
}

TEST_F(DifferentialReplay, BankActivityMatchesStateMachineOnSyntheticSources) {
    // Synthetic cycles are the access index, so per-bank gaps come from the
    // address pattern alone: hot banks see gaps around 1, cold ones long
    // ones.
    const SyntheticSpec spec = parse_synthetic_spec(
        "hotspot,span=16384,n=540000,seed=23,hotspots=3,hotspot-bytes=256,hot-frac=0.9");
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource stable(trace, kChunk);
    SyntheticSource streamed(spec, kChunk);
    const std::size_t blocks = BlockProfile::from_source(stable, kBlockSize).num_blocks();
    const AddressMap map = shuffled_map(blocks, 9);
    const MemoryArchitecture arch = six_banks(blocks);
    for (const HybridGatingParams& gating : gating_cases()) {
        const std::vector<BankActivity> ref = naive_bank_activity(arch, map, trace, gating, 0);
        for (TraceSource* source : {static_cast<TraceSource*>(&stable),
                                    static_cast<TraceSource*>(&streamed)}) {
            for (const std::size_t jobs : {1, 4, 8}) {
                SCOPED_TRACE("gating " + std::to_string(gating.enabled) + ", idle " +
                             std::to_string(gating.idle_cycles) + ", jobs " +
                             std::to_string(jobs) +
                             (source == &stable ? ", stable" : ", streamed"));
                set_default_jobs(jobs);
                expect_activity_equal(replay_bank_activity(arch, map, *source, gating), ref);
            }
        }
    }
}

TEST_F(DifferentialReplay, MaxIdleThresholdNeverGates) {
    // A threshold no gap can pass must behave as gating off; the idle test
    // must not wrap at last_access + idle_cycles.
    const std::size_t blocks = 256;
    const AddressMap map = shuffled_map(blocks, 5);
    const MemoryArchitecture arch = six_banks(blocks);
    const MemTrace trace = bursty_gap_trace(map, blocks - 8, 17);
    MaterializedSource source(trace, kChunk);
    HybridGatingParams off;
    off.enabled = false;
    HybridGatingParams never;
    never.idle_cycles = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        set_default_jobs(jobs);
        expect_activity_equal(replay_bank_activity(arch, map, source, never),
                              replay_bank_activity(arch, map, source, off));
    }
}

TEST_F(DifferentialReplay, SleepyReplayMatchesStateMachine) {
    const std::size_t blocks = 256;
    const AddressMap map = shuffled_map(blocks, 5);
    const MemoryArchitecture arch = six_banks(blocks);
    const MemTrace bursty = bursty_gap_trace(map, blocks - 8, 29);
    const SyntheticSpec spec = parse_synthetic_spec(
        "hotspot,span=16384,n=540000,seed=23,hotspots=3,hotspot-bytes=256,hot-frac=0.9");
    const MemTrace synthetic = materialize_synthetic(spec);
    MaterializedSource bursty_source(bursty, kChunk);
    MaterializedSource stable(synthetic, kChunk);
    SyntheticSource streamed(spec, kChunk);
    PartitionEnergyParams energy;
    energy.extra_pj_per_access = 0.25;
    // 10^12 cycles: never asleep (the reference's threshold test would wrap
    // any nearer the top of the range).
    for (const std::uint64_t idle :
         {std::uint64_t{0}, std::uint64_t{1}, kIdle, std::uint64_t{1'000'000'000'000}}) {
        SleepParams sleep;
        sleep.idle_cycles = idle;
        const SleepReport bursty_ref = naive_sleepy(arch, map, bursty, energy, sleep);
        const SleepReport synthetic_ref = naive_sleepy(arch, map, synthetic, energy, sleep);
        ASSERT_EQ(bursty_ref.banks.back().accesses, 0u);  // the cold bank
        for (const std::size_t jobs : {1, 4, 8}) {
            SCOPED_TRACE("idle " + std::to_string(idle) + ", jobs " + std::to_string(jobs));
            set_default_jobs(jobs);
            expect_sleep_equal(
                evaluate_partition_sleepy(arch, map, bursty_source, energy, sleep), bursty_ref);
            expect_sleep_equal(evaluate_partition_sleepy(arch, map, stable, energy, sleep),
                               synthetic_ref);
            expect_sleep_equal(evaluate_partition_sleepy(arch, map, streamed, energy, sleep),
                               synthetic_ref);
        }
    }
}

// ------------------------------------------------------------- bit I/O ----

/// Per-bit reference writer: LSB first within each byte.
struct ReferenceBits {
    std::vector<std::uint8_t> bytes;
    std::size_t bits = 0;
    void put(std::uint32_t value, unsigned count) {
        for (unsigned i = 0; i < count; ++i, ++bits) {
            if (bits % 8 == 0) bytes.push_back(0);
            if ((value >> i) & 1u) bytes.back() |= static_cast<std::uint8_t>(1u << (bits % 8));
        }
    }
};

/// Per-bit reference read of `count` bits at bit position `pos`.
std::uint32_t reference_get(const std::vector<std::uint8_t>& bytes, std::size_t pos,
                            unsigned count) {
    std::uint32_t value = 0;
    for (unsigned i = 0; i < count; ++i, ++pos)
        value |= static_cast<std::uint32_t>((bytes[pos / 8] >> (pos % 8)) & 1u) << i;
    return value;
}

TEST(DifferentialBitIo, PutBitsMatchesPerBitWriter) {
    Rng rng(41);
    for (int stream = 0; stream < 200; ++stream) {
        BitWriter out;
        ReferenceBits ref;
        // An odd-length lead-in of single bits puts the word writes at odd
        // offsets within a byte.
        const auto lead = static_cast<unsigned>(2 * rng.next_below(4) + 1);
        for (unsigned i = 0; i < lead; ++i) {
            const bool bit = rng.next_bool();
            out.put_bit(bit);
            ref.put(bit ? 1u : 0u, 1);
        }
        for (int op = 0; op < 64; ++op) {
            const auto count = static_cast<unsigned>(rng.next_below(33));  // 0..32
            // Bits above `count` are set too: they must be ignored.
            const auto value = static_cast<std::uint32_t>(rng.next_u64());
            out.put_bits(value, count);
            ref.put(value, count);
            ASSERT_EQ(out.bit_count(), ref.bits);
            ASSERT_EQ(out.bytes(), ref.bytes) << "stream " << stream << ", op " << op;
        }
    }
}

TEST(DifferentialBitIo, GetBitsMatchesPerBitReader) {
    Rng rng(43);
    for (int stream = 0; stream < 200; ++stream) {
        std::vector<std::uint8_t> bytes(1 + rng.next_below(40));
        for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
        const std::size_t total = bytes.size() * 8;
        BitReader in(bytes);
        std::size_t pos = 2 * rng.next_below(4) + 1;  // odd start offset
        for (std::size_t i = 0; i < pos && i < total; ++i) in.get_bit();
        pos = std::min(pos, total);
        for (;;) {
            const auto count = static_cast<unsigned>(rng.next_below(33));
            if (pos + count > total) {
                // Past the end: the same Error, and the reader stops at the
                // end as a bit-by-bit read would.
                try {
                    in.get_bits(count);
                    FAIL() << "read past end did not throw";
                } catch (const Error& e) {
                    EXPECT_STREQ(e.what(), "BitReader: read past end of stream");
                }
                EXPECT_EQ(in.position(), total);
                break;
            }
            ASSERT_EQ(in.get_bits(count), reference_get(bytes, pos, count))
                << "stream " << stream << ", pos " << pos << ", count " << count;
            pos += count;
            ASSERT_EQ(in.position(), pos);
        }
    }
}

// ------------------------------------------------------- codec sizing ----

/// Reference layout sizes of DiffCodec (mode field excluded), straight
/// from the format description in compress/diff_codec.hpp.
struct DiffSizes {
    std::size_t raw, word, byte;
};

DiffSizes reference_diff_sizes(const std::vector<std::uint8_t>& line) {
    DiffSizes s{line.size() * 8, 32, 8};
    const std::vector<std::uint32_t> words = line_words(line);
    for (std::size_t w = 1; w < words.size(); ++w) {
        const auto d = static_cast<std::int32_t>(words[w] - words[w - 1]);
        s.word += 2 + (d == 0                       ? 0
                       : d >= -128 && d <= 127     ? 8
                       : d >= -32768 && d <= 32767 ? 16
                                                   : 32);
    }
    for (std::size_t b = 1; b < line.size(); ++b) {
        const auto d = static_cast<std::int8_t>(line[b] - line[b - 1]);
        s.byte += 2 + (d == 0 ? 0 : d >= -8 && d <= 7 ? 4 : 8);
    }
    return s;
}

/// Mode the encoder must pick: the smallest layout; on a tie raw beats
/// both differential layouts and word beats byte.
unsigned reference_diff_mode(const DiffSizes& s) {
    const std::size_t best = std::min({s.raw, s.word, s.byte});
    if (s.raw == best) return 0;
    return s.word == best ? 1 : 2;
}

/// Seeded lines of every line size 4..256 B in the shapes the codecs
/// treat differently.
std::vector<std::vector<std::uint8_t>> codec_corpus() {
    std::vector<std::vector<std::uint8_t>> lines;
    Rng rng(47);
    const char* text = "The quick brown fox jumps over the lazy dog; 0123456789. ";
    for (std::size_t bytes = 4; bytes <= 256; bytes += 4) {
        const std::size_t words = bytes / 4;
        std::vector<std::uint32_t> w(words);
        const auto push_words = [&] { lines.push_back(words_to_line(w)); };
        std::fill(w.begin(), w.end(), 0u);  // all-zero
        push_words();
        std::fill(w.begin(), w.end(), static_cast<std::uint32_t>(rng.next_u64()));  // repeated
        push_words();
        for (const std::int64_t spread : {2, 100, 30000, 1'000'000}) {  // word deltas
            w[0] = static_cast<std::uint32_t>(rng.next_u64());
            for (std::size_t i = 1; i < words; ++i)
                w[i] = w[i - 1] + static_cast<std::uint32_t>(rng.next_in(-spread, spread));
            push_words();
        }
        for (const std::int64_t spread : {1, 7, 60}) {  // byte deltas
            std::vector<std::uint8_t> line(bytes);
            line[0] = static_cast<std::uint8_t>(rng.next_u64());
            for (std::size_t i = 1; i < bytes; ++i)
                line[i] = static_cast<std::uint8_t>(line[i - 1] + rng.next_in(-spread, spread));
            lines.push_back(line);
        }
        std::vector<std::uint8_t> prose(bytes);  // text
        const std::size_t start = rng.next_below(40);
        for (std::size_t i = 0; i < bytes; ++i)
            prose[i] = static_cast<std::uint8_t>(text[(start + i) % 57]);
        lines.push_back(prose);
        for (int r = 0; r < 4; ++r) {  // random, with a few zero words
            for (std::uint32_t& x : w)
                x = rng.next_bool(0.2) ? 0u : static_cast<std::uint32_t>(rng.next_u64());
            push_words();
        }
    }
    return lines;
}

/// Short lines whose DiffCodec layouts tie for the smallest size, found by
/// a seeded search over small-delta lines: word with byte, and raw with
/// word. Raw never ties with byte: for an n-byte line their difference,
/// 6(n - 1) minus a multiple of 4, is never zero when n is a multiple of 4.
std::vector<std::vector<std::uint8_t>> diff_tie_lines() {
    std::vector<std::vector<std::uint8_t>> ties;
    std::size_t word_byte = 0, raw_word = 0;
    Rng rng(53);
    for (int trial = 0; trial < 200000 && (word_byte < 16 || raw_word < 16); ++trial) {
        std::vector<std::uint8_t> line(4 * (1 + rng.next_below(4)));
        const std::int64_t spread = std::int64_t{1} << rng.next_below(8);
        line[0] = static_cast<std::uint8_t>(rng.next_u64());
        for (std::size_t i = 1; i < line.size(); ++i)
            line[i] = static_cast<std::uint8_t>(line[i - 1] + rng.next_in(-spread, spread));
        const DiffSizes s = reference_diff_sizes(line);
        const std::size_t best = std::min({s.raw, s.word, s.byte});
        if (s.word == best && s.byte == best && s.raw != best && word_byte < 16) {
            ties.push_back(line);
            ++word_byte;
        } else if (s.raw == best && s.word == best && raw_word < 16) {
            ties.push_back(line);
            ++raw_word;
        }
    }
    EXPECT_EQ(word_byte, 16u) << "tie search came up short";
    EXPECT_EQ(raw_word, 16u) << "tie search came up short";
    return ties;
}

TEST(DifferentialCodec, CompressedBitsEqualsEncodedLength) {
    std::vector<std::uint32_t> train(512);
    Rng rng(59);
    for (std::uint32_t& x : train) x = static_cast<std::uint32_t>(rng.next_below(24));
    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    const BdiCodec bdi;
    const DictionaryCodec dictionary = DictionaryCodec::train(train, 16);
    std::vector<std::vector<std::uint8_t>> lines = codec_corpus();
    for (std::vector<std::uint8_t>& tie : diff_tie_lines()) lines.push_back(std::move(tie));
    for (const LineCodec* codec : std::initializer_list<const LineCodec*>{
             &diff, &zero_run, &bdi, &dictionary}) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            SCOPED_TRACE(codec->name() + " line " + std::to_string(i) + " (" +
                         std::to_string(lines[i].size()) + " B)");
            const BitWriter coded = codec->encode(lines[i]);
            ASSERT_EQ(codec->compressed_bits(lines[i]), coded.bit_count());
            ASSERT_EQ(codec->decode(coded.bytes(), lines[i].size()), lines[i]);
        }
    }
    // DiffCodec's size is 2 + the smallest layout, and encode() takes the
    // mode the same rule names.
    for (const std::vector<std::uint8_t>& line : lines) {
        const DiffSizes s = reference_diff_sizes(line);
        ASSERT_EQ(diff.compressed_bits(line), 2 + std::min({s.raw, s.word, s.byte}));
        const BitWriter coded = diff.encode(line);
        BitReader mode(coded.bytes());
        ASSERT_EQ(mode.get_bits(2), reference_diff_mode(s));
    }
}

TEST(DifferentialCodec, WritebackSizePassMatchesBlobPath) {
    // verify_roundtrip keeps every blob, so its write-backs encode; the
    // plain run prices them from compressed_bits() alone.
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Hotspot;
    spec.base.span_bytes = 16 * 1024;
    spec.base.num_accesses = 40000;
    spec.base.write_fraction = 0.5;
    spec.base.seed = 61;
    SyntheticSource source(spec, kChunk);
    std::vector<std::uint8_t> image(8 * 1024);
    Rng rng(67);
    std::uint8_t v = 0;
    for (std::uint8_t& b : image) b = v = static_cast<std::uint8_t>(v + rng.next_in(-3, 3));
    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    const BdiCodec bdi;
    const DictionaryCodec dictionary = DictionaryCodec::train(line_words(image), 16);
    for (const LineCodec* codec : std::initializer_list<const LineCodec*>{
             &diff, &zero_run, &bdi, &dictionary}) {
        SCOPED_TRACE(codec->name());
        CompressedMemConfig config;
        config.cache.size_bytes = 1024;
        const CompressedMemReport sized = CompressedMemorySim(config, codec).run(source, image, 0);
        config.verify_roundtrip = true;
        const CompressedMemReport blobs = CompressedMemorySim(config, codec).run(source, image, 0);
        EXPECT_LT(sized.traffic_ratio(), 1.0);
        EXPECT_EQ(sized.cache_stats, blobs.cache_stats);
        EXPECT_EQ(sized.writeback_lines, blobs.writeback_lines);
        EXPECT_EQ(sized.actual_traffic_bytes, blobs.actual_traffic_bytes);
        EXPECT_EQ(sized.raw_traffic_bytes, blobs.raw_traffic_bytes);
        EXPECT_EQ(sized.energy.components(), blobs.energy.components());
    }
}

// ----------------------------------------------- sharded coherent replay ----

/// Everything observable of a coherent machine: the JSON report, the
/// sorted directory, and each cache's residency.
std::string machine_state(const MultiCoreCacheSystem& system) {
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, system);
    os << "\ndirectory";
    for (const auto& [line, entry] : system.directory().snapshot())
        os << ' ' << line << ':' << msi_state_name(entry.state) << ':' << entry.sharers;
    os << "\nsharers " << system.directory().total_sharers() << "\nresident";
    for (unsigned c = 0; c < system.cores(); ++c) os << ' ' << system.l1(c).resident_lines();
    for (unsigned b = 0; b < system.config().l2_banks; ++b)
        os << ' ' << system.l2_bank(b).resident_lines();
    return os.str();
}

struct CoherentCase {
    unsigned cores = 4;
    unsigned l2_banks = 4;
    unsigned l1_ways = 4;
    unsigned line_bytes = 32;
    Replacement replacement = Replacement::Lru;

    std::string name() const {
        const char* policy = replacement == Replacement::Lru    ? "lru"
                             : replacement == Replacement::Fifo ? "fifo"
                                                                : "random";
        return std::to_string(cores) + " cores, " + std::to_string(l2_banks) + " banks, " +
               std::to_string(l1_ways) + "-way " + std::to_string(line_bytes) + " B lines, " +
               policy;
    }

    /// Small caches, so that replacement runs all the time: a 2 KiB L1
    /// (8 to 64 sets) and 8 KiB L2 banks (32 or 64 sets).
    MultiCoreConfig config() const {
        MultiCoreConfig cfg;
        cfg.cores = cores;
        cfg.l2_banks = l2_banks;
        cfg.l1.size_bytes = 2048;
        cfg.l1.line_bytes = line_bytes;
        cfg.l1.associativity = l1_ways;
        cfg.l1.replacement = replacement;
        cfg.l2_bank.size_bytes = 8 * 1024;
        cfg.l2_bank.line_bytes = line_bytes;
        cfg.l2_bank.associativity = 4;
        cfg.l2_bank.replacement = replacement;
        return cfg;
    }
};

std::vector<CoherentCase> coherent_cases() {
    std::vector<CoherentCase> cases;
    for (const unsigned cores : {1u, 2u, 4u, 8u})
        for (const unsigned banks : {1u, 2u, 4u, 8u}) {
            CoherentCase c;
            c.cores = cores;
            c.l2_banks = banks;
            cases.push_back(c);
        }
    for (const Replacement policy : {Replacement::Lru, Replacement::Fifo, Replacement::Random})
        for (const unsigned ways : {1u, 4u})
            for (const unsigned line : {32u, 64u}) {
                CoherentCase c;
                c.l1_ways = ways;
                c.line_bytes = line;
                c.replacement = policy;
                cases.push_back(c);
            }
    return cases;
}

/// Per-core streams of 1-, 2-, 4- and 8-byte accesses at unaligned
/// addresses, so that many straddle a line boundary; a quarter of the
/// accesses share one region between all cores.
std::vector<std::shared_ptr<const MemTrace>> straddling_streams(unsigned cores,
                                                                std::uint64_t seed) {
    std::vector<std::shared_ptr<const MemTrace>> streams;
    for (unsigned c = 0; c < cores; ++c) {
        Rng rng(seed * 131 + c);
        MemTrace trace;
        for (int i = 0; i < 1500; ++i) {
            MemAccess a;
            const bool shared = rng.next_bool(0.25);
            a.addr = (shared ? 0 : 65536 * (c + 1)) + rng.next_below(shared ? 2048 : 16384);
            a.size = static_cast<std::uint8_t>(1u << rng.next_below(4));
            a.kind = rng.next_bool(0.35) ? AccessKind::Write : AccessKind::Read;
            a.value = static_cast<std::uint32_t>(rng.next_u64());
            a.cycle = static_cast<std::uint64_t>(i);
            trace.add(a);
        }
        streams.push_back(std::make_shared<const MemTrace>(std::move(trace)));
    }
    return streams;
}

using SourceSet = std::vector<std::unique_ptr<TraceSource>>;

SourceSet synthetic_sources(const std::string& kind, unsigned cores, std::uint64_t seed) {
    SyntheticSpec spec = parse_synthetic_spec(kind + ",span=32768,n=3000,seed=" +
                                              std::to_string(seed));
    spec.cores = cores;
    spec.shared_bytes = 2048;
    spec.shared_fraction = 0.5;
    SourceSet sources;
    for (const SyntheticSpec& core : per_core_specs(spec))
        sources.push_back(std::make_unique<SyntheticSource>(core, 700));
    return sources;
}

SourceSet trace_sources(const std::vector<std::shared_ptr<const MemTrace>>& streams) {
    SourceSet sources;
    for (const auto& s : streams) sources.push_back(std::make_unique<MaterializedSource>(s, 500));
    return sources;
}

/// Machine state after a warm-up of direct access() calls and two
/// replays, then again after flush(). Returns the shard count in use.
unsigned replay_case(const CoherentCase& c, std::size_t jobs, std::string* replayed,
                     std::string* flushed) {
    set_default_jobs(jobs);
    MultiCoreCacheSystem system(c.config());
    Rng rng(71);
    for (int i = 0; i < 400; ++i)
        system.access(static_cast<unsigned>(rng.next_below(c.cores)), rng.next_below(8192),
                      rng.next_bool(0.4) ? AccessKind::Write : AccessKind::Read);
    system.replay(synthetic_sources("producer-consumer", c.cores, 73));
    system.replay(synthetic_sources("uniform", c.cores, 79));
    system.replay(trace_sources(straddling_streams(c.cores, 83)));
    *replayed = machine_state(system);
    system.flush();
    *flushed = machine_state(system);
    return system.replay_shards();
}

class DifferentialCoherentReplay : public ::testing::Test {
protected:
    void TearDown() override { set_default_jobs(0); }
};

TEST_F(DifferentialCoherentReplay, ShardedMatchesSerialLoop) {
    for (const CoherentCase& c : coherent_cases()) {
        std::string serial_replayed, serial_flushed;
        ASSERT_EQ(replay_case(c, 1, &serial_replayed, &serial_flushed), 1u);
        const std::size_t l1_sets = 2048 / (c.line_bytes * c.l1_ways);
        const std::size_t l2_sets = 8 * 1024 / (c.line_bytes * 4);
        for (const std::size_t jobs : {2, 4, 8}) {
            SCOPED_TRACE(c.name() + ", jobs " + std::to_string(jobs));
            std::string replayed, flushed;
            const unsigned shards = replay_case(c, jobs, &replayed, &flushed);
            // Random replacement stays serial; every other case takes
            // four shards per job as far as the set counts allow.
            const std::size_t expected = c.replacement == Replacement::Random
                                             ? 1
                                             : std::min({4 * jobs, l1_sets, l2_sets});
            EXPECT_EQ(shards, expected);
            EXPECT_EQ(replayed, serial_replayed);
            EXPECT_EQ(flushed, serial_flushed);
        }
    }
}

/// A source that fails partway through, as a stream with a corrupt later
/// block does.
class FailingSource final : public TraceSource {
public:
    FailingSource(std::unique_ptr<TraceSource> inner, std::uint64_t fail_after)
        : inner_(std::move(inner)), fail_after_(fail_after) {}

    std::uint64_t size() const override { return inner_->size(); }
    bool next(TraceChunk& chunk) override {
        if (delivered_ >= fail_after_) throw Error("FailingSource: read error");
        const bool more = inner_->next(chunk);
        delivered_ += chunk.size();
        return more;
    }
    void reset() override {
        inner_->reset();
        delivered_ = 0;
    }

private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t fail_after_;
    std::uint64_t delivered_ = 0;
};

TEST_F(DifferentialCoherentReplay, SourceErrorSurfacesAtAnyJobCount) {
    // The error comes from the dealing thread after many groups, while
    // other threads replay or wait for work; replay() must rethrow it and
    // leave no thread waiting. Which threads wait depends on timing, so
    // each job count runs several times.
    const CoherentCase c;
    for (const std::size_t jobs : {1, 2, 4, 8}) {
        set_default_jobs(jobs);
        for (int round = 0; round < 10; ++round) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + ", round " + std::to_string(round));
            MultiCoreCacheSystem system(c.config());
            SyntheticSpec spec = parse_synthetic_spec("uniform,span=32768,n=40000,seed=89");
            spec.cores = c.cores;
            SourceSet sources;
            for (const SyntheticSpec& core : per_core_specs(spec)) {
                auto source = std::make_unique<SyntheticSource>(core, 700);
                if (core.core_id == 2)
                    sources.push_back(std::make_unique<FailingSource>(std::move(source), 30000));
                else
                    sources.push_back(std::move(source));
            }
            EXPECT_EQ(system.replay_shards() > 1, jobs > 1);
            try {
                system.replay(sources);
                ADD_FAILURE() << "replay() did not throw";
            } catch (const Error& e) {
                EXPECT_STREQ(e.what(), "FailingSource: read error");
            }
        }
    }
}

// ------------------------------------------------ exact partition DP ----

/// The exact partition DP as it was before its rows went parallel: integer
/// prefix counts converted to double per candidate, and one serial
/// ascending `<` scan per column. Returns the chosen split points.
std::vector<std::size_t> reference_dp_splits(const BlockProfile& profile,
                                             std::size_t max_banks,
                                             const PartitionEnergyParams& params) {
    struct Entry {
        double read_pj;
        double write_pj;
        double leak_pj;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::size_t n = profile.num_blocks();
    const std::size_t kmax = std::min(max_banks, n);
    std::vector<std::uint64_t> pre_reads(n + 1, 0);
    std::vector<std::uint64_t> pre_writes(n + 1, 0);
    for (std::size_t b = 0; b < n; ++b) {
        pre_reads[b + 1] = pre_reads[b] + profile.counts(b).reads;
        pre_writes[b + 1] = pre_writes[b] + profile.counts(b).writes;
    }
    std::vector<Entry> len_entries(n + 1);
    for (std::size_t len = 1; len <= n; ++len) {
        const SramEnergyModel model(
            MemoryArchitecture::capacity_for(profile.block_size(), len, params.min_bank_bytes), 32,
            params.sram);
        const double leak = params.runtime_cycles > 0
                                ? model.leakage_energy(params.runtime_cycles, params.cycle_ns)
                                : 0.0;
        len_entries[len] = Entry{model.read_energy(), model.write_energy(), leak};
    }
    const auto cost = [&](std::size_t i, std::size_t j) {
        const Entry& e = len_entries[j - i];
        const auto reads = static_cast<double>(pre_reads[j] - pre_reads[i]);
        const auto writes = static_cast<double>(pre_writes[j] - pre_writes[i]);
        return reads * e.read_pj + writes * e.write_pj + e.leak_pj;
    };
    const auto total_accesses = static_cast<double>(pre_reads[n] + pre_writes[n]);

    std::vector<double> prev_row(n + 1, kInf);
    std::vector<double> cur_row(n + 1, kInf);
    std::vector<std::size_t> parent((kmax + 1) * (n + 1), 0);
    std::vector<double> dp_at_n(kmax + 1, kInf);
    prev_row[0] = 0.0;
    for (std::size_t k = 1; k <= kmax; ++k) {
        std::size_t* const par = parent.data() + k * (n + 1);
        if (k == 1) {
            for (std::size_t j = 1; j <= n; ++j) {
                cur_row[j] = prev_row[0] + cost(0, j);
                par[j] = 0;
            }
        } else {
            for (std::size_t j = k; j <= n; ++j) {
                const std::uint64_t reads_j = pre_reads[j];
                const std::uint64_t writes_j = pre_writes[j];
                double best = kInf;
                std::size_t best_i = 0;
                for (std::size_t i = k - 1; i < j; ++i) {
                    const Entry& e = len_entries[j - i];
                    const auto reads = static_cast<double>(reads_j - pre_reads[i]);
                    const auto writes = static_cast<double>(writes_j - pre_writes[i]);
                    const double cand =
                        prev_row[i] + (reads * e.read_pj + writes * e.write_pj + e.leak_pj);
                    if (cand < best) {
                        best = cand;
                        best_i = i;
                    }
                }
                cur_row[j] = best;
                par[j] = best_i;
            }
        }
        dp_at_n[k] = cur_row[n];
        std::swap(prev_row, cur_row);
        std::fill(cur_row.begin(), cur_row.end(), kInf);
    }

    double best_total = kInf;
    std::size_t best_k = 1;
    for (std::size_t k = 1; k <= kmax; ++k) {
        if (dp_at_n[k] == kInf) continue;
        const double total = dp_at_n[k] + total_accesses * bank_select_energy(k, params.sram);
        if (total < best_total) {
            best_total = total;
            best_k = k;
        }
    }
    std::vector<std::size_t> splits;
    std::size_t j = n;
    for (std::size_t k = best_k; k >= 1; --k) {
        const std::size_t i = parent[k * (n + 1) + j];
        if (i != 0) splits.push_back(i);
        j = i;
    }
    std::reverse(splits.begin(), splits.end());
    return splits;
}

std::vector<std::size_t> splits_of(const MemoryArchitecture& arch) {
    std::vector<std::size_t> splits;
    for (std::size_t b = 1; b < arch.num_banks(); ++b) splits.push_back(arch.banks()[b].first_block);
    return splits;
}

struct DpProfile {
    std::string name;
    BlockProfile profile;
};

/// Seeded random, tie-heavy (all equal, long zero runs, all zero) and
/// hotspot profiles over `blocks` blocks.
std::vector<DpProfile> dp_profiles(std::size_t blocks, std::uint64_t seed) {
    std::vector<DpProfile> out;
    Rng rng(seed);
    BlockProfile random(256, blocks);
    for (std::size_t b = 0; b < blocks; ++b)
        random.add_counts(b, rng.next_below(1000), rng.next_below(500));
    out.push_back({"random", std::move(random)});

    BlockProfile equal(256, blocks);
    for (std::size_t b = 0; b < blocks; ++b) equal.add_counts(b, 7, 3);
    out.push_back({"all-equal", std::move(equal)});

    BlockProfile zero_runs(256, blocks);
    for (std::size_t b = 0; b < blocks; b += 97) zero_runs.add_counts(b, 40, 10);
    out.push_back({"zero-runs", std::move(zero_runs)});

    out.push_back({"all-zero", BlockProfile(256, blocks)});

    BlockProfile hotspot(256, blocks);
    for (std::size_t b = 0; b < blocks; ++b) hotspot.add_counts(b, rng.next_below(4), rng.next_below(2));
    for (int spot = 0; spot < 8; ++spot) {
        const std::size_t first = rng.next_below(blocks);
        for (std::size_t b = first; b < std::min(blocks, first + 4); ++b)
            hotspot.add_counts(b, 90000 + rng.next_below(20000), 30000 + rng.next_below(10000));
    }
    out.push_back({"hotspot", std::move(hotspot)});
    return out;
}

/// Without leakage, and with leakage (per-length ties on zero-count banks
/// then cost the leakage of the bank's capacity).
std::vector<PartitionEnergyParams> dp_params() {
    PartitionEnergyParams leaky;
    leaky.runtime_cycles = 1'000'000;
    return {PartitionEnergyParams{}, leaky};
}

/// Checks solve_partition_optimal against the reference at jobs 1, 2, 4:
/// equal splits and a bit-equal energy total.
void check_dp_against_reference(const BlockProfile& profile, std::size_t max_banks,
                                const PartitionEnergyParams& params) {
    const std::vector<std::size_t> want = reference_dp_splits(profile, max_banks, params);
    const MemoryArchitecture arch = MemoryArchitecture::from_splits(
        profile.block_size(), profile.num_blocks(), want, params.min_bank_bytes);
    const double want_total = evaluate_partition(arch, profile, params).total();
    for (const std::size_t jobs : {1, 2, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        set_default_jobs(jobs);
        const PartitionSolution sol = solve_partition_optimal(profile, {max_banks}, params);
        EXPECT_EQ(splits_of(sol.arch), want);
        EXPECT_EQ(sol.energy.total(), want_total);
    }
}

/// Smallest block count whose row k = 2 runs in parallel while row k = 3
/// stays serial, so one solve crosses the threshold.
std::size_t threshold_straddling_blocks() {
    std::size_t columns = 1;
    while (columns * (columns + 1) / 2 < kPartitionDpSerialRowCells) ++columns;
    return columns + 1;  // row 2 has n - 1 columns
}

/// Restores the process-wide job count however the test leaves.
class DifferentialPartitionDp : public ::testing::Test {
protected:
    void TearDown() override { set_default_jobs(0); }
};

// Sizes around the 4-candidate lanes (1..5, 63..65), both sides of the
// serial threshold within one solve, and 1,000 blocks, whose 125 column
// chunks leave a remainder over 8 and 16 grains. Every column j of row k
// scans j - k + 1 candidates, so all lane remainders occur at every size.
TEST_F(DifferentialPartitionDp, MatchesSerialReference) {
    std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 63, 64, 65, 257, 1000, 1024};
    sizes.push_back(threshold_straddling_blocks());
    for (const std::size_t n : sizes) {
        for (const DpProfile& p : dp_profiles(n, 1000 + n)) {
            for (const PartitionEnergyParams& params : dp_params()) {
                for (std::size_t max_banks = 1; max_banks <= 8; ++max_banks) {
                    SCOPED_TRACE(p.name + ", " + std::to_string(n) + " blocks, max_banks " +
                                 std::to_string(max_banks) + ", leakage cycles " +
                                 std::to_string(params.runtime_cycles));
                    check_dp_against_reference(p.profile, max_banks, params);
                }
            }
        }
    }
}

// The size affinity-hotspot solves at; a subset of bank budgets keeps the
// O(K·N²) reference affordable.
TEST_F(DifferentialPartitionDp, MatchesSerialReferenceAt4096Blocks) {
    for (const DpProfile& p : dp_profiles(4096, 4096)) {
        if (p.name == "all-zero") continue;
        for (const std::size_t max_banks : {2, 5, 8}) {
            SCOPED_TRACE(p.name + ", max_banks " + std::to_string(max_banks));
            check_dp_against_reference(p.profile, max_banks, PartitionEnergyParams{});
        }
    }
}

TEST_F(DifferentialPartitionDp, CountsMustStayExactAsDoubles) {
    BlockProfile profile(256, 4);
    profile.add_counts(1, std::uint64_t{1} << 53, 0);
    EXPECT_THROW(solve_partition_optimal(profile, {4}, {}), Error);
    BlockProfile below(256, 4);
    below.add_counts(1, (std::uint64_t{1} << 53) - 1, 0);
    EXPECT_NO_THROW(solve_partition_optimal(below, {4}, {}));
}

}  // namespace
}  // namespace memopt
