// Differential tests: optimized kernels pinned against deliberately naive
// reference implementations on seeded random inputs.
//
// The affinity builders count block pairs in flat tables that are merged as
// sorted runs across shards; the references here walk every access pair
// (i, j) with 0 < j - i < window into a std::map. Both sides of
// kAffinityDenseMaxBlocks, both replay paths of stream_accumulate (stable
// MaterializedSource shards, non-stable SyntheticSource per-slot states)
// and several job counts must reproduce the reference exactly.
//
// The bank-activity replay sums per-bank access gaps over parallel shards,
// and the sleepy replay settles only the accessed bank; their references
// are the sequential state machines that settle every bank on every
// access.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/address_map.hpp"
#include "energy/sram_model.hpp"
#include "partition/bank.hpp"
#include "partition/evaluate.hpp"
#include "partition/hybrid.hpp"
#include "partition/sleep.hpp"
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
// kMinAccessesPerTask). 512 blocks accumulate dense, 2,048 sparse.
const TraceCase kCases[] = {
    {512, 140'000, 32},
    {512, 540'000, 4},
    {2048, 140'000, 32},
    {2048, 540'000, 4},
};

/// Runs `build(source, profile, window, jobs)` at jobs 1/4/8 over a stable
/// and a non-stable source of each case's trace and checks every result
/// against the naive pair counts. The reference window is `fixed_window`
/// when the builder has one of its own (transitions: 2), else, with
/// `fixed_window == 0`, the case's window.
template <typename Build>
void check_against_reference(std::size_t fixed_window, const Build& build) {
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
                const AffinityMatrix m = build(*source, profile, c.window, jobs);
                ASSERT_EQ(m.is_sparse(), c.blocks > kAffinityDenseMaxBlocks);
                expect_matches(m, ref);
            }
        }
    }
}

TEST(DifferentialAffinity, WindowedMatchesNaiveReference) {
    check_against_reference(0, [](TraceSource& source, const BlockProfile& profile,
                                  std::size_t window, std::size_t jobs) {
        return windowed_affinity(source, profile, window, jobs);
    });
}

TEST(DifferentialAffinity, TransitionMatchesNaiveReference) {
    // A transition is a co-access at distance 1: the window-2 pair set.
    check_against_reference(2, [](TraceSource& source, const BlockProfile& profile,
                                  std::size_t, std::size_t jobs) {
        return transition_affinity(source, profile, jobs);
    });
}

TEST(DifferentialAffinity, AccumulatorGrowthAndMergeMatchReference) {
    // 1,500 blocks: sparse accumulation, yet small enough to finalize dense
    // too. Accumulator `a` takes 20,000 distinct pairs, far beyond three
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

    auto accumulate = [&] {
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
        return a;
    };
    const AffinityMatrix sparse = accumulate().finalize();
    const AffinityMatrix dense = accumulate().finalize(n);
    ASSERT_TRUE(sparse.is_sparse());
    ASSERT_FALSE(dense.is_sparse());
    expect_matches(sparse, ref);
    expect_matches(dense, ref);
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

}  // namespace
}  // namespace memopt
