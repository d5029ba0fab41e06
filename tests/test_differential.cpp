// Differential tests: optimized kernels pinned against deliberately naive
// reference implementations on seeded random inputs.
//
// The affinity builders count block pairs in flat tables that are merged as
// sorted runs across shards; the references here walk every access pair
// (i, j) with 0 < j - i < window into a std::map. Both sides of
// kAffinityDenseMaxBlocks, both replay paths of stream_accumulate (stable
// MaterializedSource shards, non-stable SyntheticSource per-slot states)
// and several job counts must reproduce the reference exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace memopt
