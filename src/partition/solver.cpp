#include "partition/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace memopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Access counts are held as doubles; every integer below 2^53 is exact
/// there, and so is the difference of two of them.
constexpr std::uint64_t kExactCountLimit = std::uint64_t{1} << 53;

/// Precomputed per-range bank cost oracle: prefix access sums plus
/// per-bank-length energy tables make cost(i, j) a handful of loads and
/// three multiply-adds — it sits in the innermost O(k n^2) DP loop.
class BankCostOracle {
public:
    BankCostOracle(const BlockProfile& profile, const PartitionEnergyParams& params) {
        const std::size_t n = profile.num_blocks();
        const std::uint64_t block_size = profile.block_size();
        prefix_reads_.assign(n + 1, 0.0);
        prefix_writes_.assign(n + 1, 0.0);
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        for (std::size_t b = 0; b < n; ++b) {
            reads += profile.counts(b).reads;
            writes += profile.counts(b).writes;
            prefix_reads_[b + 1] = static_cast<double>(reads);
            prefix_writes_[b + 1] = static_cast<double>(writes);
        }
        // The prefixes only grow, so bounding the totals keeps every prefix
        // and every difference exact: cost() equals the cost computed from
        // the integer counts, bit for bit.
        require(reads < kExactCountLimit && writes < kExactCountLimit,
                "solve_partition: read or write count reaches 2^53");
        total_accesses_ = reads + writes;
        // Cache energies for every capacity that can occur: powers of two
        // from min_bank_bytes up to the full span...
        struct CapEntry {
            std::uint64_t capacity;
            double read_pj;
            double write_pj;
            double leak_pj;
        };
        std::vector<CapEntry> by_capacity;
        const std::uint64_t max_cap =
            MemoryArchitecture::capacity_for(block_size, n, params.min_bank_bytes);
        for (std::uint64_t cap = params.min_bank_bytes; cap <= max_cap; cap *= 2) {
            const SramEnergyModel model(cap, 32, params.sram);
            const double leak = params.runtime_cycles > 0
                                    ? model.leakage_energy(params.runtime_cycles, params.cycle_ns)
                                    : 0.0;
            by_capacity.push_back(
                CapEntry{cap, model.read_energy(), model.write_energy(), leak});
        }
        // ...then flatten to by-length tables so cost() needs no capacity
        // arithmetic or search at all: read_pj_[L] is the read energy of a
        // bank spanning L blocks.
        read_pj_.assign(n + 1, 0.0);
        write_pj_.assign(n + 1, 0.0);
        leak_pj_.assign(n + 1, 0.0);
        for (std::size_t len = 1; len <= n; ++len) {
            const std::uint64_t cap =
                MemoryArchitecture::capacity_for(block_size, len, params.min_bank_bytes);
            const CapEntry* found = nullptr;
            for (const CapEntry& c : by_capacity) {
                if (c.capacity == cap) found = &c;
            }
            MEMOPT_ASSERT_MSG(found != nullptr, "BankCostOracle: uncached capacity");
            read_pj_[len] = found->read_pj;
            write_pj_[len] = found->write_pj;
            leak_pj_[len] = found->leak_pj;
        }
    }

    /// Energy of one bank covering blocks [i, j), excluding bank-select.
    /// Bounds are the caller's responsibility (0 <= i < j <= num_blocks).
    double cost(std::size_t i, std::size_t j) const {
        const std::size_t len = j - i;
        const double reads = prefix_reads_[j] - prefix_reads_[i];
        const double writes = prefix_writes_[j] - prefix_writes_[i];
        return reads * read_pj_[len] + writes * write_pj_[len] + leak_pj_[len];
    }

    std::uint64_t total_accesses() const { return total_accesses_; }

private:
    std::uint64_t total_accesses_ = 0;
    std::vector<double> prefix_reads_;
    std::vector<double> prefix_writes_;
    std::vector<double> read_pj_;
    std::vector<double> write_pj_;
    std::vector<double> leak_pj_;
};

/// Independent argmin lanes per DP column: candidate i goes to lane
/// (i - first) % kLanes, so the lanes' compare chains overlap.
constexpr std::size_t kLanes = 4;

/// Running argmin that keeps the first strict minimum, as a serial
/// ascending scan with `<` does.
struct ArgMin {
    double value = kInf;
    std::size_t index = 0;

    void offer(double cand, std::size_t i) {
        const bool better = cand < value;
        value = better ? cand : value;
        index = better ? i : index;
    }

    /// Folds in a lane: the smaller value wins, the lower index on a tie.
    /// Lanes that saw no candidate (value kInf, index 0) lose to any lane
    /// that did, unless every candidate was kInf, where a serial scan also
    /// keeps index 0.
    void merge(const ArgMin& other) {
        if (other.value < value || (other.value == value && other.index < index)) *this = other;
    }
};

/// Columns per chunk: one cache line of cur_row, so grains that own
/// neighbouring chunks never write the same line.
constexpr std::size_t kColumnChunk = 8;
/// Grains per job in a parallel row: spare grains let a thread that
/// finishes early pick up a late starter's share.
constexpr std::size_t kGrainsPerJob = 4;

/// One row k >= 2 of the exact DP. Every column j reads only the previous
/// row and writes only its own cur[j] and par[j], so columns can be solved
/// in any order, on any thread, with bit-identical results.
struct DpRow {
    const BankCostOracle& oracle;
    const double* prev;
    double* cur;
    std::size_t* par;
    std::size_t k;
    std::size_t n;

    /// cur[j] = min over i in [k-1, j) of prev[i] + cost(i, j), and par[j]
    /// the first i reaching it — the pick of a serial ascending `<` scan.
    /// Every prefix [0, i) with i >= k-1 is reachable with k-1 banks, so no
    /// infinity checks are needed.
    void solve_column(std::size_t j) const {
        const auto candidate = [&](std::size_t i) { return prev[i] + oracle.cost(i, j); };
        // Each lane keeps its own first strict minimum (the lanes are
        // spelled out so that they stay in registers)...
        static_assert(kLanes == 4, "solve_column spells out four lanes");
        ArgMin lane0;
        ArgMin lane1;
        ArgMin lane2;
        ArgMin lane3;
        std::size_t i = k - 1;
        for (; i + kLanes <= j; i += kLanes) {
            lane0.offer(candidate(i), i);
            lane1.offer(candidate(i + 1), i + 1);
            lane2.offer(candidate(i + 2), i + 2);
            lane3.offer(candidate(i + 3), i + 3);
        }
        // ...the lanes reduce lowest index first on ties...
        ArgMin best = lane0;
        best.merge(lane1);
        best.merge(lane2);
        best.merge(lane3);
        // ...and the remainder, all above every lane's indices, follows.
        for (; i < j; ++i) best.offer(candidate(i), i);
        cur[j] = best.value;
        par[j] = best.index;
    }

    /// Solves the column chunks first_chunk, first_chunk + stride, ... The
    /// interleaving gives every grain a share of the long columns at the
    /// right of the triangle.
    void solve_chunks(std::size_t first_chunk, std::size_t stride) const {
        for (std::size_t c = first_chunk;; c += stride) {
            const std::size_t lo = k + c * kColumnChunk;
            if (lo > n) return;
            const std::size_t hi = std::min(lo + kColumnChunk, n + 1);
            for (std::size_t j = lo; j < hi; ++j) solve_column(j);
        }
    }

    /// Solves the whole row: on the calling thread at one job or below
    /// kPartitionDpSerialRowCells candidate cells (waking the pool would
    /// cost more than such a row), else over interleaved grains with
    /// parallel_for. No grain allocates.
    void solve() const {
        const std::size_t columns = n - k + 1;
        const std::size_t cells = columns * (columns + 1) / 2;
        const std::size_t jobs = default_jobs();
        if (jobs <= 1 || cells < kPartitionDpSerialRowCells) {
            solve_chunks(0, 1);
            return;
        }
        const std::size_t chunks = (columns + kColumnChunk - 1) / kColumnChunk;
        const std::size_t grains = std::min(chunks, jobs * kGrainsPerJob);
        parallel_for(grains, [this, grains](std::size_t g) { solve_chunks(g, grains); }, jobs);
    }
};

PartitionSolution make_solution(const BlockProfile& profile,
                                const PartitionEnergyParams& params,
                                const std::vector<std::size_t>& splits) {
    auto arch = MemoryArchitecture::from_splits(profile.block_size(), profile.num_blocks(),
                                                splits, params.min_bank_bytes);
    auto energy = evaluate_partition(arch, profile, params);
    return PartitionSolution{std::move(arch), std::move(energy)};
}

void check_inputs(const BlockProfile& profile, const PartitionConstraints& constraints) {
    require(constraints.max_banks >= 1, "PartitionConstraints: max_banks must be >= 1");
    require(profile.num_blocks() >= 1, "solve_partition: empty profile");
}

}  // namespace

PartitionSolution solve_partition_optimal(const BlockProfile& profile,
                                          const PartitionConstraints& constraints,
                                          const PartitionEnergyParams& params) {
    check_inputs(profile, constraints);
    const std::size_t n = profile.num_blocks();
    const std::size_t kmax = std::min(constraints.max_banks, n);
    const BankCostOracle oracle(profile, params);
    const auto total_accesses = static_cast<double>(oracle.total_accesses());

    // dp[k][j]: min cost of covering blocks [0, j) with exactly k banks
    // (bank-select excluded; it depends only on the final k and is added at
    // the end). Row k only reads row k-1, so the cost table is two flat
    // rows; only the parent table (the start block of the last bank) is
    // kept in full for the reconstruction.
    std::vector<double> prev_row(n + 1, kInf);
    std::vector<double> cur_row(n + 1, kInf);
    std::vector<std::size_t> parent((kmax + 1) * (n + 1), 0);
    std::vector<double> dp_at_n(kmax + 1, kInf);
    prev_row[0] = 0.0;
    for (std::size_t k = 1; k <= kmax; ++k) {
        std::size_t* const par = parent.data() + k * (n + 1);
        if (k == 1) {
            // Exactly one bank: the only predecessor is the empty prefix.
            for (std::size_t j = 1; j <= n; ++j) {
                cur_row[j] = prev_row[0] + oracle.cost(0, j);
                par[j] = 0;
            }
        } else {
            const DpRow row{oracle, prev_row.data(), cur_row.data(), par, k, n};
            row.solve();
        }
        dp_at_n[k] = cur_row[n];
        std::swap(prev_row, cur_row);
        std::fill(cur_row.begin(), cur_row.end(), kInf);
    }

    // Pick the best bank count including the per-access select overhead.
    double best_total = kInf;
    std::size_t best_k = 1;
    for (std::size_t k = 1; k <= kmax; ++k) {
        if (dp_at_n[k] == kInf) continue;
        const double total =
            dp_at_n[k] + total_accesses * bank_select_energy(k, params.sram);
        if (total < best_total) {
            best_total = total;
            best_k = k;
        }
    }
    MEMOPT_ASSERT(best_total < kInf);

    // Reconstruct split points.
    std::vector<std::size_t> splits;
    std::size_t j = n;
    for (std::size_t k = best_k; k >= 1; --k) {
        const std::size_t i = parent[k * (n + 1) + j];
        if (i != 0) splits.push_back(i);
        j = i;
    }
    MEMOPT_ASSERT(j == 0);
    std::reverse(splits.begin(), splits.end());
    return make_solution(profile, params, splits);
}

PartitionSolution solve_partition_greedy(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params) {
    check_inputs(profile, constraints);
    const std::size_t n = profile.num_blocks();
    const BankCostOracle oracle(profile, params);
    const auto total_accesses = static_cast<double>(oracle.total_accesses());

    // Current architecture as bank boundaries [b0=0, b1, ..., bk=n].
    std::vector<std::size_t> bounds = {0, n};
    double current_bank_cost = oracle.cost(0, n);

    while (bounds.size() - 1 < constraints.max_banks) {
        const std::size_t k = bounds.size() - 1;
        const double current_total =
            current_bank_cost + total_accesses * bank_select_energy(k, params.sram);
        const double next_select =
            total_accesses * bank_select_energy(k + 1, params.sram);

        // Find the single most profitable split across all banks.
        double best_total = current_total;
        std::size_t best_bank = 0;
        std::size_t best_pos = 0;
        for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
            const std::size_t lo = bounds[b];
            const std::size_t hi = bounds[b + 1];
            const double old_cost = oracle.cost(lo, hi);
            for (std::size_t pos = lo + 1; pos < hi; ++pos) {
                const double new_bank_cost = current_bank_cost - old_cost +
                                             oracle.cost(lo, pos) + oracle.cost(pos, hi);
                const double total = new_bank_cost + next_select;
                if (total < best_total) {
                    best_total = total;
                    best_bank = b;
                    best_pos = pos;
                }
            }
        }
        if (best_pos == 0) break;  // no profitable split
        const std::size_t lo = bounds[best_bank];
        const std::size_t hi = bounds[best_bank + 1];
        current_bank_cost += oracle.cost(lo, best_pos) + oracle.cost(best_pos, hi) -
                             oracle.cost(lo, hi);
        bounds.insert(bounds.begin() + static_cast<std::ptrdiff_t>(best_bank) + 1, best_pos);
    }

    const std::vector<std::size_t> splits(bounds.begin() + 1, bounds.end() - 1);
    return make_solution(profile, params, splits);
}

PartitionSolution solve_partition_brute(const BlockProfile& profile,
                                        const PartitionConstraints& constraints,
                                        const PartitionEnergyParams& params) {
    check_inputs(profile, constraints);
    const std::size_t n = profile.num_blocks();
    require(n <= 20, "solve_partition_brute: too many blocks (tests only)");

    double best_total = kInf;
    std::vector<std::size_t> best_splits;
    const std::uint64_t combinations = 1ULL << (n - 1);
    for (std::uint64_t mask = 0; mask < combinations; ++mask) {
        const auto bank_count = static_cast<std::size_t>(std::popcount(mask)) + 1;
        if (bank_count > constraints.max_banks) continue;
        std::vector<std::size_t> splits;
        for (std::size_t bit = 0; bit + 1 < n; ++bit) {
            if (mask & (1ULL << bit)) splits.push_back(bit + 1);
        }
        const auto arch = MemoryArchitecture::from_splits(profile.block_size(), n, splits,
                                                          params.min_bank_bytes);
        const double total = evaluate_partition(arch, profile, params).total();
        if (total < best_total) {
            best_total = total;
            best_splits = std::move(splits);
        }
    }
    return make_solution(profile, params, best_splits);
}

PartitionSolution solve_partition_pooled(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params,
                                         std::size_t pool_banks, bool use_greedy) {
    require(pool_banks >= 1, "solve_partition_pooled: empty bank pool");
    PartitionConstraints clamped = constraints;
    clamped.max_banks = std::min(constraints.max_banks, pool_banks);
    return use_greedy ? solve_partition_greedy(profile, clamped, params)
                      : solve_partition_optimal(profile, clamped, params);
}

}  // namespace memopt
