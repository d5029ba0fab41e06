#include "cache/mcache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "energy/dram_model.hpp"
#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"

namespace memopt {

MultiCoreCacheSystem::MultiCoreCacheSystem(const MultiCoreConfig& config)
    : config_(config), directory_(config.cores) {
    require(config.cores >= 1 && config.cores <= 64,
            "MultiCoreCacheSystem: core count must be in [1, 64]");
    require(config.l2_banks >= 1,
            "MultiCoreCacheSystem: need at least one L2 bank");
    require(config.l1.write_policy == WritePolicy::WriteBackAllocate,
            "MultiCoreCacheSystem: MSI requires a write-back/write-allocate L1");
    require(config.l2_bank.line_bytes == config.l1.line_bytes,
            "MultiCoreCacheSystem: L2 bank line size must equal the L1 line size "
            "(the directory tracks L1-line-sized blocks)");
    l1s_.reserve(config.cores);
    for (unsigned c = 0; c < config.cores; ++c) l1s_.emplace_back(config.l1);
    l2_banks_.reserve(config.l2_banks);
    for (unsigned b = 0; b < config.l2_banks; ++b) l2_banks_.emplace_back(config.l2_bank);
}

unsigned MultiCoreCacheSystem::bank_of(std::uint64_t addr) const {
    return static_cast<unsigned>((addr / config_.l1.line_bytes) % config_.l2_banks);
}

void MultiCoreCacheSystem::l2_access(std::uint64_t line, AccessKind kind) {
    const CacheAccessResult r = l2_banks_[bank_of(line)].access(line, kind);
    if (r.fill_line) ++traffic_.line_fetches;
    if (r.writeback_line) ++traffic_.line_writes;
}

void MultiCoreCacheSystem::apply_actions(std::uint64_t line,
                                         const CoherenceActions& actions) {
    // Order matters for the counters: the Modified owner's data reaches its
    // home bank before any copy is killed and before the requester refills.
    if (actions.writeback_owner) {
        const bool was_dirty = l1s_[*actions.writeback_owner].downgrade(line);
        MEMOPT_ASSERT_MSG(was_dirty,
                          "coherence: directory Modified owner held a clean line");
        l2_access(line, AccessKind::Write);
    }
    for (unsigned j = 0; j < config_.cores; ++j) {
        if ((actions.invalidate >> j) & 1) {
            const auto dirty = l1s_[j].invalidate(line);
            MEMOPT_ASSERT_MSG(dirty.has_value(),
                              "coherence: invalidation target does not hold the line");
            // A dirty target is always the flushed owner, handled above.
        }
    }
    if (actions.fetch) l2_access(line, AccessKind::Read);
}

void MultiCoreCacheSystem::access(unsigned core, std::uint64_t addr, AccessKind kind) {
    MEMOPT_ASSERT(core < config_.cores);
    CacheModel& l1 = l1s_[core];
    const std::uint64_t line = l1.line_base(addr);
    // In this protocol the L1 dirty bit IS the Modified indicator: stores
    // set it (M), downgrades clear it (S), fills install clean (S). Probe
    // it before access() mutates the line.
    const std::optional<bool> prior_dirty = l1.probe(addr);

    const CacheAccessResult r = l1.access(addr, kind);

    // Precise sharer maintenance: a replaced victim (clean or dirty)
    // leaves the directory before the new line enters it.
    if (r.evicted_line) {
        directory_.on_evict(core, *r.evicted_line);
        if (r.writeback_line) l2_access(*r.writeback_line, AccessKind::Write);
    }

    if (r.hit) {
        // Load hits and stores to an already-Modified line are
        // coherence-silent; a store to a Shared copy raises an upgrade.
        if (kind == AccessKind::Write && !*prior_dirty)
            apply_actions(line, directory_.on_write(core, line));
        return;
    }

    const CoherenceActions actions = kind == AccessKind::Read
                                         ? directory_.on_read_miss(core, line)
                                         : directory_.on_write(core, line);
    apply_actions(line, actions);
}

namespace {

/// Deal slots of a sharded replay and the bytes of line accesses one slot
/// holds over all shard batches: together they bound replay memory
/// independently of trace length, and they are how far the other shards
/// may run ahead of one that a preempted thread holds.
constexpr std::size_t kDealSlots = 8;
constexpr std::size_t kSlotBytes = std::size_t{1} << 18;

/// Shards per job. More shards than threads let the free threads even out
/// uneven shard loads and pick up the work of a preempted one.
constexpr std::size_t kShardsPerJob = 4;

/// Most L1 lines one access covers: a 255-byte access over 4-byte lines.
constexpr std::size_t kMaxLinesPerAccess = 255 / 4 + 2;

struct LineAccess {
    std::uint64_t addr;
    unsigned core;
    AccessKind kind;
};

/// Progress of one replay shard, on its own cache line, so that threads
/// replaying different shards never write to the same line.
struct alignas(64) ShardProgress {
    std::atomic<std::size_t> replayed{0};  ///< dealt groups replayed, in order
    std::atomic<bool> held{false};         ///< a thread is replaying the shard
};

// Fixed round-robin arbitration over one trace stream per core: core 0
// access k, core 1 access k, ..., skipping exhausted streams, independent
// of chunk geometry. Each access is split into the L1 lines it covers.
class RoundRobin {
public:
    RoundRobin(std::span<const std::unique_ptr<TraceSource>> sources, std::uint64_t line_bytes)
        : sources_(sources), cursors_(sources.size()), line_bytes_(line_bytes) {
        for (std::size_t c = 0; c < sources_.size(); ++c) {
            sources_[c]->reset();
            advance(c);
            if (!cursors_[c].done) ++live_;
        }
    }

    /// Hand every line access of the next access in arbitration order to
    /// fn(core, addr, kind); false once all streams are exhausted.
    template <typename Fn>
    bool next(Fn&& fn) {
        if (live_ == 0) return false;
        while (cursors_[core_].done) step();
        Cursor& cur = cursors_[core_];
        const auto core = static_cast<unsigned>(core_);
        const std::uint64_t addr = cur.chunk.addrs[cur.i];
        const AccessKind kind = cur.chunk.kinds[cur.i];
        const std::uint64_t last =
            addr + std::max<std::uint64_t>(cur.chunk.sizes[cur.i], 1) - 1;
        fn(core, addr, kind);
        for (std::uint64_t a = (addr & ~(line_bytes_ - 1)) + line_bytes_; a <= last;
             a += line_bytes_)
            fn(core, a, kind);
        ++cur.i;
        advance(core_);
        if (cur.done) --live_;
        step();
        return true;
    }

private:
    struct Cursor {
        TraceChunk chunk;
        std::size_t i = 0;
        bool done = false;
    };

    void advance(std::size_t c) {
        Cursor& cur = cursors_[c];
        while (!cur.done && cur.i >= cur.chunk.size()) {
            cur.i = 0;
            if (!sources_[c]->next(cur.chunk)) cur.done = true;
        }
    }

    void step() { core_ = core_ + 1 == cursors_.size() ? 0 : core_ + 1; }

    std::span<const std::unique_ptr<TraceSource>> sources_;
    std::vector<Cursor> cursors_;
    std::uint64_t line_bytes_;
    std::size_t core_ = 0;
    std::size_t live_ = 0;
};

}  // namespace

unsigned MultiCoreCacheSystem::replay_shards() const {
    // Random replacement draws every victim of a cache from one RNG, which
    // couples all of its sets; a nested parallel region would run the
    // shards inline anyway.
    const std::size_t jobs = default_jobs();
    if (jobs == 1 || config_.l1.replacement == Replacement::Random ||
        config_.l2_bank.replacement == Replacement::Random || in_parallel_region())
        return 1;
    return static_cast<unsigned>(std::bit_floor(std::min(
        {kShardsPerJob * jobs, l1s_.front().num_sets(), l2_banks_.front().num_sets()})));
}

MultiCoreCacheSystem MultiCoreCacheSystem::fork(unsigned shard, unsigned shards) const {
    MultiCoreCacheSystem out(config_);
    for (unsigned c = 0; c < config_.cores; ++c) out.l1s_[c] = l1s_[c].fork();
    for (unsigned b = 0; b < config_.l2_banks; ++b) out.l2_banks_[b] = l2_banks_[b].fork();
    out.directory_ = directory_.fork(shard, shards, config_.l1.line_bytes);
    return out;
}

void MultiCoreCacheSystem::merge_forks(const std::vector<MultiCoreCacheSystem>& forks) {
    std::vector<const CacheModel*> caches(forks.size());
    for (unsigned c = 0; c < config_.cores; ++c) {
        for (std::size_t k = 0; k < forks.size(); ++k) caches[k] = &forks[k].l1s_[c];
        l1s_[c].merge_forks(caches);
    }
    for (unsigned b = 0; b < config_.l2_banks; ++b) {
        for (std::size_t k = 0; k < forks.size(); ++k) caches[k] = &forks[k].l2_banks_[b];
        l2_banks_[b].merge_forks(caches);
    }
    std::vector<const MsiDirectory*> directories;
    for (const MultiCoreCacheSystem& fork : forks) {
        directories.push_back(&fork.directory_);
        traffic_.line_fetches += fork.traffic_.line_fetches;
        traffic_.line_writes += fork.traffic_.line_writes;
        traffic_.word_writes += fork.traffic_.word_writes;
    }
    directory_.merge_forks(directories);
}

void MultiCoreCacheSystem::replay(std::span<const std::unique_ptr<TraceSource>> sources) {
    require(sources.size() == config_.cores,
            "MultiCoreCacheSystem::replay: need exactly one trace source per core");
    const unsigned shards = replay_shards();
    if (shards > 1) {
        // Zero-copy sources validate lazily in next() (.mtsc block
        // checksums), in parallel when called outside a parallel region.
        // One pass up front keeps that work off the dealing task below,
        // where it would run serially.
        TraceChunk chunk;
        for (const auto& source : sources)
            if (source->stable_chunks())
                while (source->next(chunk)) {
                }
    }
    RoundRobin walk(sources, config_.l1.line_bytes);
    if (shards == 1) {
        while (walk.next([this](unsigned core, std::uint64_t addr, AccessKind kind) {
            access(core, addr, kind);
        })) {
        }
        return;
    }

    // Set-sharded replay (see file comment): every fork replays, in global
    // arbitration order, the line accesses whose shard key it owns.
    std::vector<MultiCoreCacheSystem> forks;
    forks.reserve(shards);
    for (unsigned k = 0; k < shards; ++k) forks.push_back(fork(k, shards));

    // Group g of dealt line accesses, one batch per shard, lives in slot
    // g % kDealSlots. One parallel region runs the whole replay, with no
    // barrier between groups: a free thread deals the next group once
    // every shard has replayed the group that last used its slot, or
    // takes a shard no thread holds and replays its dealt groups in
    // order. A preempted thread thus stalls only the shard it holds, and
    // only once the others have run kDealSlots groups ahead. Which thread
    // replays a shard never matters: each fork still sees its accesses in
    // deal order.
    using Group = std::vector<std::vector<LineAccess>>;
    const std::size_t capacity = kSlotBytes / sizeof(LineAccess) / shards;
    std::vector<Group> slots(kDealSlots, Group(shards));
    for (Group& group : slots)
        for (std::vector<LineAccess>& batch : group) batch.reserve(capacity + kMaxLinesPerAccess);
    const unsigned line_shift = static_cast<unsigned>(std::countr_zero(config_.l1.line_bytes));

    std::vector<ShardProgress> progress(shards);
    std::atomic<std::size_t> dealt{0};     // groups published to the shards
    std::atomic<bool> walked{false};       // the last group is published
    std::atomic<bool> dealing{false};      // a thread holds the walk
    std::atomic<bool> failed{false};       // a thread threw; all others stop
    // Bumped after every change that can give a waiting thread work: a
    // group dealt, a shard released, a failure. A thread with nothing to
    // do blocks until it moves, leaving its CPU to the threads that have
    // work, including ones the host preempted.
    std::atomic<std::uint32_t> epoch{0};
    const auto signal = [&] {
        epoch.fetch_add(1, std::memory_order_release);
        epoch.notify_all();
    };

    const auto try_deal = [&] {
        if (walked.load(std::memory_order_acquire) ||
            dealing.exchange(true, std::memory_order_acquire))
            return false;
        const std::size_t group = dealt.load(std::memory_order_relaxed);
        const bool slot_free =
            !walked.load(std::memory_order_relaxed) &&
            std::all_of(progress.begin(), progress.end(), [&](const ShardProgress& p) {
                return p.replayed.load(std::memory_order_acquire) + kDealSlots > group;
            });
        if (slot_free) {
            Group& to = slots[group % kDealSlots];
            for (std::vector<LineAccess>& batch : to) batch.clear();
            bool full = false;
            bool more = true;
            while (!full && (more = walk.next([&](unsigned core, std::uint64_t addr,
                                                  AccessKind kind) {
                std::vector<LineAccess>& batch = to[(addr >> line_shift) & (shards - 1)];
                batch.push_back(LineAccess{addr, core, kind});
                full = full || batch.size() >= capacity;
            }))) {
            }
            dealt.store(group + 1, std::memory_order_release);
            if (!more) walked.store(true, std::memory_order_release);
        }
        dealing.store(false, std::memory_order_release);
        if (slot_free) signal();
        return slot_free;
    };
    const auto try_replay = [&](std::size_t first) {
        bool worked = false;
        for (std::size_t i = 0; i < shards; ++i) {
            const std::size_t s = (first + i) % shards;
            ShardProgress& p = progress[s];
            if (p.replayed.load(std::memory_order_relaxed) >=
                    dealt.load(std::memory_order_acquire) ||
                p.held.exchange(true, std::memory_order_acquire))
                continue;
            MultiCoreCacheSystem& fork = forks[s];
            for (std::size_t group = p.replayed.load(std::memory_order_relaxed);
                 group < dealt.load(std::memory_order_acquire); ++group) {
                for (const LineAccess& a : slots[group % kDealSlots][s])
                    fork.access(a.core, a.addr, a.kind);
                p.replayed.store(group + 1, std::memory_order_release);
            }
            p.held.store(false, std::memory_order_release);
            signal();
            worked = true;
        }
        return worked;
    };
    const auto finished = [&] {
        if (!walked.load(std::memory_order_acquire)) return false;
        const std::size_t groups = dealt.load(std::memory_order_acquire);
        return std::all_of(progress.begin(), progress.end(), [&](const ShardProgress& p) {
            return p.replayed.load(std::memory_order_acquire) == groups;
        });
    };

    const std::size_t threads = default_jobs();
    parallel_for(threads, [&](std::size_t t) {
        try {
            while (!failed.load(std::memory_order_acquire)) {
                const std::uint32_t seen = epoch.load(std::memory_order_acquire);
                // Dealing comes first: it is the one serial step, and it
                // keeps every shard supplied.
                const bool dealt_group = try_deal();
                if (try_replay(t * shards / threads) || dealt_group) continue;
                if (finished()) return;
                epoch.wait(seen, std::memory_order_acquire);
            }
        } catch (...) {
            failed.store(true, std::memory_order_release);
            signal();
            throw;
        }
    });
    merge_forks(forks);
}

void MultiCoreCacheSystem::flush() {
    for (unsigned c = 0; c < config_.cores; ++c) {
        for (const std::uint64_t line : l1s_[c].flush()) {
            directory_.on_flush(c, line);
            l2_access(line, AccessKind::Write);
        }
    }
    for (CacheModel& bank : l2_banks_)
        traffic_.line_writes += bank.flush().size();
}

CacheStats MultiCoreCacheSystem::l1_totals() const {
    CacheStats total;
    for (const CacheModel& l1 : l1s_) total += l1.stats();
    return total;
}

CacheStats MultiCoreCacheSystem::l2_totals() const {
    CacheStats total;
    for (const CacheModel& bank : l2_banks_) total += bank.stats();
    return total;
}

EnergyBreakdown MultiCoreCacheSystem::energy(const CoherenceEnergyModel& coherence) const {
    EnergyBreakdown out;
    const unsigned line_bytes = config_.l1.line_bytes;
    const double words_per_line = static_cast<double>(line_bytes) / 4.0;

    // Array energy: one read/write per access plus the word-wise line
    // install on every fill (the same accounting as the compressed-memory
    // simulation in compress/memsys.cpp).
    const SramEnergyModel l1_model(config_.l1.size_bytes);
    const CacheStats l1 = l1_totals();
    out.add("l1", l1_model.read_energy() * static_cast<double>(l1.read_hits + l1.read_misses) +
                      l1_model.write_energy() *
                          static_cast<double>(l1.write_hits + l1.write_misses) +
                      l1_model.write_energy() * words_per_line * static_cast<double>(l1.fills));

    const SramEnergyModel l2_model(config_.l2_bank.size_bytes);
    const CacheStats l2 = l2_totals();
    out.add("l2", l2_model.read_energy() * static_cast<double>(l2.read_hits + l2.read_misses) +
                      l2_model.write_energy() *
                          static_cast<double>(l2.write_hits + l2.write_misses) +
                      l2_model.write_energy() * words_per_line * static_cast<double>(l2.fills));
    out.add("bank_select",
            bank_select_energy(config_.l2_banks) * static_cast<double>(l2.accesses()));

    const CoherenceStats& cs = directory_.stats();
    out.add("directory", coherence.lookup_energy(cs.lookups));
    out.add("coherence", coherence.message_energy(cs.messages()) +
                             coherence.transfer_energy(cs.dirty_transfers() * line_bytes));

    const DramEnergyModel dram;
    out.add("main_memory",
            dram.burst_energy(line_bytes) *
                static_cast<double>(traffic_.line_fetches + traffic_.line_writes));
    return out;
}

namespace {
void cache_stats_json(JsonWriter& w, const CacheStats& s) {
    w.begin_object();
    w.member("read_hits", s.read_hits);
    w.member("read_misses", s.read_misses);
    w.member("write_hits", s.write_hits);
    w.member("write_misses", s.write_misses);
    w.member("fills", s.fills);
    w.member("writebacks", s.writebacks);
    w.member("miss_rate", s.miss_rate());
    w.end_object();
}
}  // namespace

void to_json(JsonWriter& w, const MultiCoreCacheSystem& system) {
    const MultiCoreConfig& cfg = system.config();
    w.begin_object();
    w.key("config").begin_object();
    w.member("cores", static_cast<std::uint64_t>(cfg.cores));
    w.member("l1_bytes", cfg.l1.size_bytes);
    w.member("l1_line_bytes", static_cast<std::uint64_t>(cfg.l1.line_bytes));
    w.member("l1_ways", static_cast<std::uint64_t>(cfg.l1.associativity));
    w.member("l2_banks", static_cast<std::uint64_t>(cfg.l2_banks));
    w.member("l2_bank_bytes", cfg.l2_bank.size_bytes);
    w.end_object();
    w.key("l1_per_core").begin_array();
    for (unsigned c = 0; c < system.cores(); ++c)
        cache_stats_json(w, system.l1(c).stats());
    w.end_array();
    w.key("l2_per_bank").begin_array();
    for (unsigned b = 0; b < cfg.l2_banks; ++b)
        cache_stats_json(w, system.l2_bank(b).stats());
    w.end_array();
    const CoherenceStats& cs = system.directory().stats();
    w.key("coherence").begin_object();
    w.member("lookups", cs.lookups);
    w.member("upgrades", cs.upgrades);
    w.member("downgrades", cs.downgrades);
    w.member("owner_flushes", cs.owner_flushes);
    w.member("invalidations", cs.invalidations);
    w.member("evictions", cs.evictions);
    w.member("messages", cs.messages());
    w.member("dirty_transfers", cs.dirty_transfers());
    w.end_object();
    w.key("traffic").begin_object();
    w.member("line_fetches", system.traffic().line_fetches);
    w.member("line_writes", system.traffic().line_writes);
    w.member("word_writes", system.traffic().word_writes);
    w.end_object();
    w.key("energy");
    system.energy().to_json(w);
    w.end_object();
}

}  // namespace memopt
