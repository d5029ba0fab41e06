// Temporal affinity between profile blocks.
//
// Affinity clustering (DATE'03 1B-1 flavour) needs to know which blocks are
// accessed close together in time: placing such blocks in the same bank lets
// the other banks stay idle for long stretches. This module computes
//  * a transition matrix (consecutive-access block adjacency), and
//  * a windowed co-access affinity matrix,
// each from one chunked replay of a TraceSource.
//
// Storage is adaptive behind one interface: small block counts use the
// dense upper-triangular array (O(n^2/2) doubles); large block counts use a
// compressed-sparse-row (CSR) adjacency, because a windowed trace replay
// touches O(accesses * window) pairs but typically only a tiny fraction of
// the n^2 possible ones. Both representations produce bit-identical query
// results for the integer-valued co-access counts the builders emit.
//
// Above the dense limit the accumulator counts pairs in a flat
// open-addressing table: packed (min, max) block-pair keys with uint64
// counts, power-of-two capacity, multiplicative hashing and linear probing,
// doubled in place (one realloc) at load 3/4. Tables are never merged by
// re-inserting one into another: a source table walked in slot order
// arrives in hash order, which piles up long probe runs in the target.
// Instead merge() and finalize() drain each table into a key-sorted
// (key, count) run and combine runs by a linear merge; finalize() builds
// the CSR straight from the merged run, whose key order is already the
// CSR's row/column order.
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

/// Block counts at or below this use the dense triangular representation;
/// larger matrices are finalized to CSR.
inline constexpr std::size_t kAffinityDenseMaxBlocks = 1024;

/// Symmetric block-affinity matrix. Dense upper-triangle storage for small
/// block counts, CSR adjacency for large ones — same queries, bit-identical
/// results for integer-valued weights (see file comment).
class AffinityMatrix {
public:
    /// Zero matrix over `num_blocks` blocks (always dense; mutable via add).
    explicit AffinityMatrix(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// True when backed by the immutable CSR representation.
    bool is_sparse() const { return sparse_; }

    /// Number of stored unordered block pairs with non-zero affinity
    /// (diagonal included when present). O(n^2) for dense, O(1) for sparse.
    std::size_t stored_pairs() const;

    /// Affinity between blocks a and b (symmetric; diagonal allowed).
    double at(std::size_t a, std::size_t b) const;

    /// Add `w` to the affinity between a and b. Dense matrices only; a
    /// sparse matrix is immutable once finalized.
    void add(std::size_t a, std::size_t b, double w);

    /// Sum of affinities from `a` to every block in `members`.
    double affinity_to_set(std::size_t a, const std::vector<std::size_t>& members) const;

    /// Total affinity mass (sum over unordered pairs, diagonal included once).
    double total() const;

    /// Largest off-diagonal entry, at least 0.0 (the greedy chain's
    /// normalization constant).
    double max_offdiagonal() const;

    /// Invoke fn(b, w) for every block b != a with non-zero affinity w to
    /// `a`, in ascending block order. O(degree) for sparse, O(n) for dense.
    template <typename Fn>
    void for_each_neighbor(std::size_t a, Fn&& fn) const {
        require(a < n_, "AffinityMatrix::for_each_neighbor out of range");
        if (sparse_) {
            for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
                const std::size_t b = col_[e];
                if (b != a) fn(b, val_[e]);
            }
        } else {
            for (std::size_t b = 0; b < n_; ++b) {
                if (b == a) continue;
                const double w = tri_[tri_index(a, b)];
                if (w != 0.0) fn(b, w);
            }
        }
    }

private:
    friend class AffinityAccumulator;

    std::size_t tri_index(std::size_t a, std::size_t b) const;
    /// CSR lookup: value at (a, b) or 0.0.
    double sparse_at(std::size_t a, std::size_t b) const;

    std::size_t n_;
    bool sparse_ = false;
    std::vector<double> tri_;  // dense: upper-triangular storage, row-major

    // sparse: CSR over the full symmetric adjacency (each off-diagonal pair
    // stored in both rows; diagonal stored once), columns ascending per row.
    std::vector<std::size_t> row_ptr_;  // n_ + 1
    std::vector<std::uint32_t> col_;
    std::vector<double> val_;
};

/// Order-independent affinity accumulator: the builders' shard-local sink.
/// Counts (a, b) co-accesses (a == b allowed) and finalizes into the
/// representation matching the block count. merge() folds another shard's
/// partial counts in, element-wise.
class AffinityAccumulator {
public:
    explicit AffinityAccumulator(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// Count one co-access of blocks a and b (symmetric).
    void add(std::size_t a, std::size_t b);

    /// Fold `other`'s partial counts into this accumulator (element-wise),
    /// consuming `other`. Call in shard order for a deterministic reduction.
    void merge(AffinityAccumulator&& other);

    /// Finalize into a matrix: dense for num_blocks <= dense_max_blocks,
    /// CSR above. Leaves the accumulator empty.
    AffinityMatrix finalize(std::size_t dense_max_blocks = kAffinityDenseMaxBlocks);

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

    std::size_t n_;
    bool dense_;
    std::vector<double> tri_;  // dense accumulation
    // sparse: open-addressing pair counts in malloc'd storage, so that
    // grow() can extend it with realloc
    std::unique_ptr<PairCount[], FreeSlots> table_;
    std::size_t capacity_ = 0;    // table slots, a power of two (0 before first use)
    std::size_t table_used_ = 0;  // occupied table slots
    std::size_t grow_at_ = 0;     // table_used_ that triggers the next growth
    unsigned hash_shift_ = 0;     // 64 - log2(capacity_)
    std::vector<PairCount> run_;  // sparse: merged-in counts, key-sorted
};

/// Build a transition affinity: affinity(a,b) += 1 whenever an access to
/// block b immediately follows an access to block a (a != b), using the
/// block geometry of `profile`. Accesses outside the profile span are
/// rejected (Error). One chunked replay of `source` in O(chunk) memory;
/// long traces are sharded over `jobs` threads (0 = default_jobs()) and
/// results are bit-identical at any job count.
AffinityMatrix transition_affinity(TraceSource& source, const BlockProfile& profile,
                                   std::size_t jobs = 0);

/// Build a windowed co-access affinity: for a sliding window of `window`
/// consecutive accesses, every unordered pair of distinct blocks that
/// co-occurs in the window gains affinity 1 (counted once per window
/// position where the pair is formed with the newest access). `window >= 2`.
/// Replayed and sharded like transition_affinity.
AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs = 0);

}  // namespace memopt
