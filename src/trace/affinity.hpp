// Temporal affinity between profile blocks.
//
// Affinity clustering (DATE'03 1B-1 flavour) needs to know which blocks are
// accessed close together in time: placing such blocks in the same bank lets
// the other banks stay idle for long stretches. This module computes a
// windowed co-access affinity matrix from one chunked replay of a
// TraceSource (a window of 2 counts consecutive-access block transitions).
//
// The matrix has one form: a compressed-sparse-row (CSR) symmetric
// adjacency, because a windowed trace replay touches O(accesses * window)
// pairs but typically only a tiny fraction of the n^2 possible ones.
//
// The accumulator that counts the pairs picks its storage by block count.
// Up to kAffinityDenseMaxBlocks it adds into a dense upper triangle (one
// indexed add per pair, no hashing). Above that it counts pairs in a flat
// open-addressing table: packed (min, max) block-pair keys with uint64
// counts, power-of-two capacity, multiplicative hashing and linear probing,
// doubled in place (one realloc) at load 3/4. Tables are never merged by
// re-inserting one into another: a source table walked in slot order
// arrives in hash order, which piles up long probe runs in the target.
// Instead merge() and finalize() drain each table into a key-sorted
// (key, count) run and combine runs by a linear merge. finalize() builds
// the CSR straight from the triangle or the merged run, both already in
// the CSR's row/column order, and the two storages give identical matrices.
//
// Long traces are replayed sharded across the process thread pool
// (support/parallel.hpp): each shard replays a contiguous slice of the
// trace (pre-warming its sliding window from the preceding accesses) and
// the per-shard partial counts are reduced in shard order. Co-access
// weights are integer counts, so the reduction is exact and results are
// bit-identical at any job count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "trace/profile.hpp"
#include "trace/trace.hpp"

namespace memopt {

class TraceSource;

/// Accumulators over at most this many blocks count pairs in a dense
/// triangle; larger ones in a pair table. Either way they finalize to CSR.
inline constexpr std::size_t kAffinityDenseMaxBlocks = 1024;

/// Symmetric, immutable block-affinity matrix in CSR form. Built only by
/// AffinityAccumulator::finalize().
class AffinityMatrix {
public:
    std::size_t num_blocks() const { return n_; }

    /// Number of stored unordered block pairs with non-zero affinity
    /// (diagonal included when present).
    std::size_t stored_pairs() const;

    /// Affinity between blocks a and b (symmetric; diagonal allowed).
    double at(std::size_t a, std::size_t b) const;

    /// Total affinity mass (sum over unordered pairs, diagonal included once).
    double total() const;

    /// Largest off-diagonal entry, at least 0.0 (the greedy chain's
    /// normalization constant).
    double max_offdiagonal() const;

    /// Invoke fn(b, w) for every block b != a with non-zero affinity w to
    /// `a`, in ascending block order. O(degree).
    template <typename Fn>
    void for_each_neighbor(std::size_t a, Fn&& fn) const {
        require(a < n_, "AffinityMatrix::for_each_neighbor out of range");
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            const std::size_t b = col_[e];
            if (b != a) fn(b, val_[e]);
        }
    }

private:
    friend class AffinityAccumulator;

    explicit AffinityMatrix(std::size_t num_blocks) : n_(num_blocks) {}

    /// Value at (a, b) or 0.0.
    double lookup(std::size_t a, std::size_t b) const;

    std::size_t n_;
    // The full symmetric adjacency: each off-diagonal pair stored in both
    // rows, the diagonal once, columns ascending per row.
    std::vector<std::size_t> row_ptr_;  // n_ + 1
    std::vector<std::uint32_t> col_;
    std::vector<double> val_;
};

/// Order-independent affinity accumulator: the builders' shard-local sink.
/// Counts (a, b) co-accesses (a == b allowed) in the storage matching the
/// block count and finalizes into a CSR matrix. merge() folds another
/// shard's partial counts in, element-wise.
class AffinityAccumulator {
public:
    explicit AffinityAccumulator(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// Count one co-access of blocks a and b (symmetric).
    void add(std::size_t a, std::size_t b);

    /// Fold `other`'s partial counts into this accumulator (element-wise),
    /// consuming `other`. Call in shard order for a deterministic reduction.
    void merge(AffinityAccumulator&& other);

    /// Finalize into a matrix. Leaves the accumulator empty.
    AffinityMatrix finalize();

private:
    /// A packed (min << 32 | max) block pair and its co-access count. In the
    /// table, a slot with count 0 is empty.
    struct PairCount {
        std::uint64_t key;
        std::uint64_t count;
    };

    struct FreeSlots {
        void operator()(PairCount* p) const { std::free(p); }
    };

    /// The home slot of `key`: the top log2(capacity) bits of its hash.
    std::size_t home(std::uint64_t key) const;
    /// The table slot holding `key`, or the empty slot where it belongs.
    PairCount& slot(std::uint64_t key);
    /// Double the table (allocate it on first use) and re-home its entries.
    void grow();
    /// Everything counted so far as one key-sorted run; empties the
    /// accumulator.
    std::vector<PairCount> take_run();
    /// finalize() from the dense triangle and from the table side's run.
    AffinityMatrix finalize_triangle();
    AffinityMatrix finalize_run();

    std::size_t n_;
    bool dense_;               // n_ <= kAffinityDenseMaxBlocks
    std::vector<double> tri_;  // dense: upper-triangular counts, row-major
    // table: open-addressing pair counts in malloc'd storage, so that
    // grow() can extend it with realloc
    std::unique_ptr<PairCount[], FreeSlots> table_;
    std::size_t capacity_ = 0;    // table slots, a power of two (0 before first use)
    std::size_t table_used_ = 0;  // occupied table slots
    std::size_t grow_at_ = 0;     // table_used_ that triggers the next growth
    unsigned hash_shift_ = 0;     // 64 - log2(capacity_)
    std::vector<PairCount> run_;  // table: merged-in counts, key-sorted
};

/// Build a windowed co-access affinity: for a sliding window of `window`
/// consecutive accesses, every unordered pair of distinct blocks that
/// co-occurs in the window gains affinity 1 (counted once per window
/// position where the pair is formed with the newest access). `window >= 2`;
/// a window of 2 counts consecutive-access transitions between distinct
/// blocks. Uses the block geometry of `profile`; accesses outside the
/// profile span are rejected (Error). One chunked replay of `source` in
/// O(chunk) memory; long traces are sharded over `jobs` threads
/// (0 = default_jobs()) and results are bit-identical at any job count.
AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs = 0);

}  // namespace memopt
