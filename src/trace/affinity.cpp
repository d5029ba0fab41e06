#include "trace/affinity.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <span>
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
            if (ring[k] != block) acc.add(ring[k], block);
        }
        push(block);
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// AffinityMatrix

double AffinityMatrix::lookup(std::size_t a, std::size_t b) const {
    const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a]);
    const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a + 1]);
    const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(b));
    if (it == last || *it != b) return 0.0;
    return val_[static_cast<std::size_t>(it - col_.begin())];
}

std::size_t AffinityMatrix::stored_pairs() const {
    std::size_t diagonal = 0;
    for (std::size_t a = 0; a < n_; ++a) {
        if (lookup(a, a) != 0.0) ++diagonal;
    }
    return (col_.size() - diagonal) / 2 + diagonal;
}

double AffinityMatrix::at(std::size_t a, std::size_t b) const {
    require(a < n_ && b < n_, "AffinityMatrix::at out of range");
    return lookup(a, b);
}

double AffinityMatrix::total() const {
    // Upper-triangle entries in row-major order.
    double sum = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            if (col_[e] >= a) sum += val_[e];
        }
    }
    return sum;
}

double AffinityMatrix::max_offdiagonal() const {
    double best = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            if (col_[e] > a) best = std::max(best, val_[e]);
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// AffinityAccumulator

namespace {

/// Table capacity on first use (slots; a power of two).
constexpr std::size_t kInitialSlots = 1024;
/// Fibonacci multiplier: the top bits of key * kHashMul index the table.
constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;
/// Top count bit: marks an entry not yet re-homed while grow() rehashes the
/// table in place. No count comes near 2^63.
constexpr std::uint64_t kPending = std::uint64_t{1} << 63;

std::uint64_t pair_key(std::size_t a, std::size_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}

}  // namespace

AffinityAccumulator::AffinityAccumulator(std::size_t num_blocks)
    : n_(num_blocks), dense_(num_blocks <= kAffinityDenseMaxBlocks) {
    require(num_blocks > 0, "AffinityAccumulator: num_blocks must be > 0");
    require(static_cast<std::uint64_t>(num_blocks) <= (std::uint64_t{1} << 32),
            "AffinityAccumulator: too many blocks");
    if (dense_) tri_.assign(n_ * (n_ + 1) / 2, 0.0);
}

std::size_t AffinityAccumulator::home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kHashMul) >> hash_shift_);
}

AffinityAccumulator::PairCount& AffinityAccumulator::slot(std::uint64_t key) {
    const std::size_t mask = capacity_ - 1;
    PairCount* table = table_.get();
    std::size_t i = home(key);
    while (table[i].count != 0 && table[i].key != key) i = (i + 1) & mask;
    return table[i];
}

void AffinityAccumulator::grow() {
    // One allocation per growth, extended in place where the allocator can
    // (large blocks are remapped, not copied), so a growing table never
    // holds its old and its new storage at once.
    const std::size_t old_capacity = capacity_;
    const std::size_t capacity = old_capacity == 0 ? kInitialSlots : 2 * old_capacity;
    auto* table = static_cast<PairCount*>(std::realloc(table_.get(), capacity * sizeof(PairCount)));
    if (table == nullptr) throw std::bad_alloc();
    static_cast<void>(table_.release());
    table_.reset(table);
    std::fill(table + old_capacity, table + capacity, PairCount{0, 0});
    capacity_ = capacity;
    hash_shift_ = 64 - log2_exact(capacity);
    grow_at_ = capacity / 4 * 3;

    // Re-home in place. Every old entry is marked pending, then lifted out
    // in turn and re-inserted from its new home: it passes placed entries at
    // least as hot as itself and takes the first slot that is empty, still
    // pending, or held by a colder entry. The evicted occupant is re-inserted
    // the same way, a pending one from its own home, a placed one onward
    // from the slot it lost. Pending slots are never passed over, so lifting
    // one opens no hole in another entry's probe path; and the hottest pairs
    // settle nearest their homes, where most lookups end.
    for (std::size_t i = 0; i < old_capacity; ++i) {
        if (table[i].count != 0) table[i].count |= kPending;
    }
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < old_capacity; ++i) {
        if ((table[i].count & kPending) == 0) continue;
        PairCount carry = std::exchange(table[i], PairCount{0, 0});
        std::size_t j = 0;
        bool from_home = true;
        while (carry.count != 0) {
            if (from_home) {
                carry.count &= ~kPending;
                j = home(carry.key);
            }
            while (table[j].count != 0 && (table[j].count & kPending) == 0 &&
                   table[j].count >= carry.count)
                j = (j + 1) & mask;
            from_home = (table[j].count & kPending) != 0;
            std::swap(carry, table[j]);
            j = (j + 1) & mask;
        }
    }
}

void AffinityAccumulator::add(std::size_t a, std::size_t b) {
    if (a > b) std::swap(a, b);
    MEMOPT_ASSERT(b < n_);
    if (dense_) {
        tri_[a * n_ - a * (a + 1) / 2 + b] += 1.0;
        return;
    }
    if (table_used_ >= grow_at_) grow();
    const std::uint64_t key = pair_key(a, b);
    PairCount& e = slot(key);
    if (e.count == 0) {
        e.key = key;
        ++table_used_;
    }
    ++e.count;
}

namespace {

/// Drain the occupied slots (count != 0) of an open-addressing table into
/// an exact-size, key-sorted run. LSD radix sort, one key byte per pass,
/// skipping the bytes every key shares (block numbers fill only the low bits
/// of each 32-bit half). The first pass scatters straight out of the table
/// and later passes alternate between the run and the table's front, so the
/// table's storage is the sort's scratch and draining allocates only the run.
template <typename Entry>
std::vector<Entry> drain_sorted(std::span<Entry> table, std::size_t used) {
    constexpr unsigned kBytes = 8;
    std::array<std::array<std::size_t, 256>, kBytes> offset{};
    std::uint64_t any_key = 0;
    for (const Entry& e : table) {
        if (e.count == 0) continue;
        any_key = e.key;
        for (unsigned d = 0; d < kBytes; ++d) ++offset[d][(e.key >> (8 * d)) & 0xFF];
    }
    std::vector<Entry> run(used);
    const std::span<Entry> scratch = table.first(used);
    std::span<const Entry> from = table;
    for (unsigned d = 0; d < kBytes; ++d) {
        auto& next = offset[d];
        if (next[(any_key >> (8 * d)) & 0xFF] == used) continue;
        std::size_t sum = 0;
        for (std::size_t& c : next) sum += std::exchange(c, sum);
        const std::span<Entry> to = from.data() == run.data() ? scratch : std::span<Entry>(run);
        for (const Entry& e : from) {
            if (e.count != 0) to[next[(e.key >> (8 * d)) & 0xFF]++] = e;
        }
        from = to;
    }
    if (from.data() != run.data())
        std::copy_if(from.begin(), from.end(), run.begin(),
                     [](const Entry& e) { return e.count != 0; });
    return run;
}

/// Linear merge of two key-sorted runs, summing the counts of equal keys.
template <typename Entry>
std::vector<Entry> merge_runs(std::vector<Entry> x, std::vector<Entry> y) {
    if (x.empty()) return y;
    if (y.empty()) return x;
    std::vector<Entry> out;
    out.reserve(x.size() + y.size());
    auto i = x.begin();
    auto j = y.begin();
    while (i != x.end() && j != y.end()) {
        if (i->key < j->key) {
            out.push_back(*i++);
        } else if (j->key < i->key) {
            out.push_back(*j++);
        } else {
            out.push_back({i->key, i->count + j->count});
            ++i;
            ++j;
        }
    }
    out.insert(out.end(), i, x.end());
    out.insert(out.end(), j, y.end());
    return out;
}

}  // namespace

std::vector<AffinityAccumulator::PairCount> AffinityAccumulator::take_run() {
    std::vector<PairCount> drained =
        drain_sorted(std::span<PairCount>(table_.get(), capacity_), table_used_);
    table_.reset();
    capacity_ = 0;
    table_used_ = 0;
    grow_at_ = 0;
    return merge_runs(std::exchange(run_, {}), std::move(drained));
}

void AffinityAccumulator::merge(AffinityAccumulator&& other) {
    require(other.n_ == n_ && other.dense_ == dense_,
            "AffinityAccumulator::merge: shape mismatch");
    if (dense_) {
        for (std::size_t i = 0; i < tri_.size(); ++i) tri_[i] += other.tri_[i];
        return;
    }
    std::vector<PairCount> mine = take_run();
    run_ = merge_runs(std::move(mine), other.take_run());
}

AffinityMatrix AffinityAccumulator::finalize_triangle() {
    // One branch-free scan of the triangle compacts each row's non-zero
    // columns (blocks b >= a, ascending) into `upper`; everything after it
    // walks only those entries, so it is bounded by the pairs. The rows are
    // then filled in order. When row a is reached, the rows before it have
    // already scattered its neighbours below the diagonal into it; its
    // compacted triangle row follows them, and its off-diagonal entries are
    // scattered on to rows b. Every row thus fills in ascending column order.
    const std::size_t n = n_;
    const std::vector<double> tri = std::exchange(tri_, {});
    auto row_of = [&](std::size_t a) { return tri.data() + (a * n - a * (a + 1) / 2); };
    std::vector<std::uint32_t> upper;
    std::vector<std::size_t> upper_start(n + 1, 0);
    std::size_t len = 0;
    for (std::size_t a = 0; a < n; ++a) {
        // Room for the whole row; growth doubles, so the buffer stays
        // within twice the pairs plus one row.
        if (upper.size() < len + (n - a)) upper.resize(std::max(2 * upper.size(), len + (n - a)));
        const double* row = row_of(a);
        for (std::size_t b = a; b < n; ++b) {
            upper[len] = static_cast<std::uint32_t>(b);
            len += static_cast<std::size_t>(row[b] != 0.0);
        }
        upper_start[a + 1] = len;
    }
    AffinityMatrix m(n);
    m.row_ptr_.assign(n + 1, 0);
    std::size_t* count = m.row_ptr_.data() + 1;
    for (std::size_t a = 0; a < n; ++a) {
        count[a] += upper_start[a + 1] - upper_start[a];
        for (std::size_t e = upper_start[a]; e < upper_start[a + 1]; ++e)
            if (upper[e] != a) ++count[upper[e]];
    }
    for (std::size_t a = 0; a < n; ++a) m.row_ptr_[a + 1] += m.row_ptr_[a];
    m.col_.resize(m.row_ptr_[n]);
    m.val_.resize(m.row_ptr_[n]);
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (std::size_t a = 0; a < n; ++a) {
        const double* row = row_of(a);
        for (std::size_t e = upper_start[a]; e < upper_start[a + 1]; ++e) {
            const std::size_t b = upper[e];
            m.col_[cursor[a]] = upper[e];
            m.val_[cursor[a]] = row[b];
            ++cursor[a];
            if (b == a) continue;
            m.col_[cursor[b]] = static_cast<std::uint32_t>(a);
            m.val_[cursor[b]] = row[b];
            ++cursor[b];
        }
    }
    return m;
}

AffinityMatrix AffinityAccumulator::finalize_run() {
    // The run holds the upper-triangle pairs in ascending (a, b) order; each
    // is scattered into both adjacency rows. That order fills every row's
    // columns ascending: row r first receives its below-diagonal neighbours
    // (from pairs whose larger element is r, arriving as the smaller element
    // ascends), then its above-diagonal neighbours (from its own row's pairs).
    const std::vector<PairCount> run = take_run();
    auto pair_of = [](const PairCount& e) {
        return std::pair{static_cast<std::size_t>(e.key >> 32),
                         static_cast<std::size_t>(e.key & 0xFFFFFFFFu)};
    };
    AffinityMatrix m(n_);
    m.row_ptr_.assign(n_ + 1, 0);
    for (const PairCount& e : run) {
        const auto [a, b] = pair_of(e);
        ++m.row_ptr_[a + 1];
        if (a != b) ++m.row_ptr_[b + 1];
    }
    for (std::size_t a = 0; a < n_; ++a) m.row_ptr_[a + 1] += m.row_ptr_[a];
    m.col_.resize(m.row_ptr_[n_]);
    m.val_.resize(m.row_ptr_[n_]);
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (const PairCount& e : run) {
        const auto [a, b] = pair_of(e);
        const auto w = static_cast<double>(e.count);
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

AffinityMatrix AffinityAccumulator::finalize() {
    return dense_ ? finalize_triangle() : finalize_run();
}

// ---------------------------------------------------------------------------
// Builders

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
        [](AffinityAccumulator& into, AffinityAccumulator& from) { into.merge(std::move(from)); });
    return acc.finalize();
}

}  // namespace memopt
