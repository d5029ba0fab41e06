#include "trace/affinity.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {

std::size_t block_of_checked(std::uint64_t addr, unsigned shift, std::size_t num_blocks) {
    const auto block = static_cast<std::size_t>(addr >> shift);
    require(block < num_blocks, "block_of: address outside profile span");
    return block;
}

/// Sliding co-access window over a chunked replay: pre-warmed from the
/// up-to-`window - 1` addresses preceding the chunk (`context`), so the
/// pairs a chunk forms are exactly the ones the serial replay forms at the
/// same positions — chunk boundaries are invisible in the pair multiset.
void windowed_chunk(const TraceChunk& chunk, std::span<const std::uint64_t> context,
                    std::size_t window, unsigned shift, std::size_t num_blocks,
                    AffinityAccumulator& acc) {
    const std::size_t cap = window - 1;
    std::vector<std::size_t> ring(cap);
    std::size_t count = 0;  // occupied slots
    std::size_t next = 0;   // slot holding the oldest entry once full
    auto push = [&](std::size_t block) {
        ring[next] = block;
        next = (next + 1) % cap;
        if (count < cap) ++count;
    };
    const std::size_t skip = context.size() > cap ? context.size() - cap : 0;
    for (std::size_t i = skip; i < context.size(); ++i)
        push(block_of_checked(context[i], shift, num_blocks));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::size_t block = block_of_checked(chunk.addrs[i], shift, num_blocks);
        for (std::size_t k = 0; k < count; ++k) {
            if (ring[k] != block) acc.add(ring[k], block, 1.0);
        }
        push(block);
    }
}

/// Consecutive-access block transitions over a chunked replay. The
/// predecessor of the chunk's first access is the last context address
/// (empty context = start of the trace).
void transition_chunk(const TraceChunk& chunk, std::span<const std::uint64_t> context,
                      unsigned shift, std::size_t num_blocks, AffinityAccumulator& acc) {
    if (chunk.empty()) return;
    std::size_t i = 0;
    std::size_t prev;
    if (context.empty()) {
        prev = block_of_checked(chunk.addrs[0], shift, num_blocks);
        i = 1;
    } else {
        prev = block_of_checked(context.back(), shift, num_blocks);
    }
    for (; i < chunk.size(); ++i) {
        const std::size_t block = block_of_checked(chunk.addrs[i], shift, num_blocks);
        if (block != prev) acc.add(prev, block, 1.0);
        prev = block;
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// AffinityMatrix

AffinityMatrix::AffinityMatrix(std::size_t num_blocks) : n_(num_blocks) {
    require(num_blocks > 0, "AffinityMatrix: num_blocks must be > 0");
    tri_.assign(n_ * (n_ + 1) / 2, 0.0);
}

std::size_t AffinityMatrix::tri_index(std::size_t a, std::size_t b) const {
    MEMOPT_ASSERT(a < n_ && b < n_);
    if (a > b) std::swap(a, b);
    // Row-major upper triangle: row a starts at a*n - a*(a-1)/2 - a offsets.
    return a * n_ - a * (a + 1) / 2 + b;
}

double AffinityMatrix::sparse_at(std::size_t a, std::size_t b) const {
    const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a]);
    const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a + 1]);
    const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(b));
    if (it == last || *it != b) return 0.0;
    return val_[static_cast<std::size_t>(it - col_.begin())];
}

std::size_t AffinityMatrix::stored_pairs() const {
    if (sparse_) {
        std::size_t diagonal = 0;
        for (std::size_t a = 0; a < n_; ++a) {
            if (sparse_at(a, a) != 0.0) ++diagonal;
        }
        return (col_.size() - diagonal) / 2 + diagonal;
    }
    return static_cast<std::size_t>(
        std::count_if(tri_.begin(), tri_.end(), [](double v) { return v != 0.0; }));
}

double AffinityMatrix::at(std::size_t a, std::size_t b) const {
    require(a < n_ && b < n_, "AffinityMatrix::at out of range");
    return sparse_ ? sparse_at(a, b) : tri_[tri_index(a, b)];
}

void AffinityMatrix::add(std::size_t a, std::size_t b, double w) {
    require(a < n_ && b < n_, "AffinityMatrix::add out of range");
    require(!sparse_, "AffinityMatrix::add: sparse matrix is immutable");
    tri_[tri_index(a, b)] += w;
}

double AffinityMatrix::affinity_to_set(std::size_t a,
                                       const std::vector<std::size_t>& members) const {
    double sum = 0.0;
    for (std::size_t m : members) sum += at(a, m);
    return sum;
}

double AffinityMatrix::total() const {
    double sum = 0.0;
    if (sparse_) {
        // Upper-triangle entries in row-major order: the same accumulation
        // order as the dense loop below (zeros contribute nothing there).
        for (std::size_t a = 0; a < n_; ++a) {
            for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
                if (col_[e] >= a) sum += val_[e];
            }
        }
        return sum;
    }
    for (double v : tri_) sum += v;
    return sum;
}

double AffinityMatrix::max_offdiagonal() const {
    double best = 0.0;
    if (sparse_) {
        for (std::size_t a = 0; a < n_; ++a) {
            for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
                if (col_[e] > a) best = std::max(best, val_[e]);
            }
        }
        return best;
    }
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t b = a + 1; b < n_; ++b) best = std::max(best, tri_[tri_index(a, b)]);
    }
    return best;
}

// ---------------------------------------------------------------------------
// AffinityAccumulator

AffinityAccumulator::AffinityAccumulator(std::size_t num_blocks)
    : n_(num_blocks), dense_(num_blocks <= kAffinityDenseMaxBlocks) {
    require(num_blocks > 0, "AffinityAccumulator: num_blocks must be > 0");
    require(static_cast<std::uint64_t>(num_blocks) <= (std::uint64_t{1} << 32),
            "AffinityAccumulator: too many blocks");
    if (dense_) tri_.assign(n_ * (n_ + 1) / 2, 0.0);
}

std::uint64_t AffinityAccumulator::pack(std::size_t a, std::size_t b) const {
    MEMOPT_ASSERT(a < n_ && b < n_);
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}

void AffinityAccumulator::add(std::size_t a, std::size_t b, double w) {
    if (dense_) {
        if (a > b) std::swap(a, b);
        MEMOPT_ASSERT(b < n_);
        tri_[a * n_ - a * (a + 1) / 2 + b] += w;
    } else {
        pairs_[pack(a, b)] += w;
    }
}

void AffinityAccumulator::merge(const AffinityAccumulator& other) {
    require(other.n_ == n_ && other.dense_ == dense_,
            "AffinityAccumulator::merge: shape mismatch");
    if (dense_) {
        for (std::size_t i = 0; i < tri_.size(); ++i) tri_[i] += other.tri_[i];
    } else {
        // memopt-lint: order-independent -- keys are unique within other.pairs_,
        // so each target slot receives exactly one += per merge; the per-key sum
        // is the same whatever order the source map is walked in. (Cross-shard
        // merge order is fixed by the callers' in-shard-order reduction.)
        for (const auto& [key, w] : other.pairs_) pairs_[key] += w;
    }
}

AffinityMatrix AffinityAccumulator::finalize(std::size_t dense_max_blocks) {
    AffinityMatrix m(1);  // placeholder; reshaped below
    m.n_ = n_;
    if (n_ <= dense_max_blocks) {
        // Dense result.
        m.sparse_ = false;
        m.row_ptr_.clear();
        m.col_.clear();
        m.val_.clear();
        if (dense_) {
            m.tri_ = std::move(tri_);
            tri_.clear();
        } else {
            m.tri_.assign(n_ * (n_ + 1) / 2, 0.0);
            // memopt-lint: order-independent -- pure scatter: each unique key
            // writes (not accumulates) its own triangular slot exactly once.
            for (const auto& [key, w] : pairs_) {
                const auto a = static_cast<std::size_t>(key >> 32);
                const auto b = static_cast<std::size_t>(key & 0xFFFFFFFFu);
                m.tri_[a * n_ - a * (a + 1) / 2 + b] = w;
            }
            pairs_.clear();
        }
        return m;
    }

    // CSR result: collect the upper-triangle pairs sorted by (row, col),
    // then scatter each into both adjacency rows. Processing pairs in
    // ascending (a, b) order fills every row's columns in ascending order:
    // row r first receives its below-diagonal neighbours (from pairs whose
    // larger element is r, arriving as the smaller element ascends), then
    // its above-diagonal neighbours (from its own row's pairs).
    std::vector<std::pair<std::uint64_t, double>> sorted;
    if (dense_) {
        for (std::size_t a = 0; a < n_; ++a) {
            const std::size_t row_base = a * n_ - a * (a + 1) / 2;
            for (std::size_t b = a; b < n_; ++b) {
                const double w = tri_[row_base + b];
                if (w != 0.0)
                    sorted.emplace_back((static_cast<std::uint64_t>(a) << 32) | b, w);
            }
        }
        tri_.clear();
    } else {
        sorted.reserve(pairs_.size());
        // memopt-lint: order-independent -- collection order is erased by the
        // std::sort on the (unique) packed keys before any emission; pinned by
        // Affinity.SparseAccumulatorInvariantUnderInsertOrder.
        for (const auto& [key, w] : pairs_) {
            if (w != 0.0) sorted.emplace_back(key, w);
        }
        pairs_.clear();
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& x, const auto& y) { return x.first < y.first; });
    }

    m.sparse_ = true;
    m.tri_.clear();
    std::vector<std::size_t> degree(n_, 0);
    for (const auto& [key, w] : sorted) {
        const auto a = static_cast<std::size_t>(key >> 32);
        const auto b = static_cast<std::size_t>(key & 0xFFFFFFFFu);
        ++degree[a];
        if (a != b) ++degree[b];
    }
    m.row_ptr_.assign(n_ + 1, 0);
    for (std::size_t a = 0; a < n_; ++a) m.row_ptr_[a + 1] = m.row_ptr_[a] + degree[a];
    const std::size_t nnz = m.row_ptr_[n_];
    m.col_.assign(nnz, 0);
    m.val_.assign(nnz, 0.0);
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (const auto& [key, w] : sorted) {
        const auto a = static_cast<std::size_t>(key >> 32);
        const auto b = static_cast<std::size_t>(key & 0xFFFFFFFFu);
        m.col_[cursor[a]] = static_cast<std::uint32_t>(b);
        m.val_[cursor[a]] = w;
        ++cursor[a];
        if (a != b) {
            m.col_[cursor[b]] = static_cast<std::uint32_t>(a);
            m.val_[cursor[b]] = w;
            ++cursor[b];
        }
    }
    return m;
}

// ---------------------------------------------------------------------------
// Builders

AffinityMatrix transition_affinity(TraceSource& source, const BlockProfile& profile,
                                   std::size_t jobs) {
    const unsigned shift = log2_exact(profile.block_size());
    const std::size_t num_blocks = profile.num_blocks();
    AffinityAccumulator acc = stream_accumulate(
        source, 1, jobs, [&] { return AffinityAccumulator(num_blocks); },
        [&](AffinityAccumulator& out, const TraceChunk& chunk,
            std::span<const std::uint64_t> context) {
            transition_chunk(chunk, context, shift, num_blocks, out);
        },
        [](AffinityAccumulator& into, const AffinityAccumulator& from) { into.merge(from); });
    return acc.finalize();
}

AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs) {
    require(window >= 2, "windowed_affinity: window must be >= 2");
    const unsigned shift = log2_exact(profile.block_size());
    const std::size_t num_blocks = profile.num_blocks();
    AffinityAccumulator acc = stream_accumulate(
        source, window - 1, jobs, [&] { return AffinityAccumulator(num_blocks); },
        [&](AffinityAccumulator& out, const TraceChunk& chunk,
            std::span<const std::uint64_t> context) {
            windowed_chunk(chunk, context, window, shift, num_blocks, out);
        },
        [](AffinityAccumulator& into, const AffinityAccumulator& from) { into.merge(from); });
    return acc.finalize();
}

}  // namespace memopt
