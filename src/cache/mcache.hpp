// Multi-core coherent cache system: private L1s + banked shared L2 + MSI.
//
// N cores each own a private write-back/write-allocate L1 CacheModel. They
// share a banked L2: `l2_banks` address-interleaved CacheModel instances
// (home bank = line index mod bank count — consecutive lines stripe across
// banks, the same interleaving the partitioned-memory experiments assume).
// A directory-based MSI protocol (cache/coherence.hpp) keeps the L1s
// coherent; its messages and dirty-line flushes are counted as coherence
// traffic and priced by CoherenceEnergyModel into the EnergyBreakdown next
// to the L1/L2/DRAM terms.
//
// Determinism contract: replay() interleaves the per-core trace streams by
// round-robin arbitration in fixed core order (core 0 access k, core 1
// access k, ... ), one access per core per turn, independent of chunk
// geometry and of --jobs.
//
// Set-sharded replay. Every piece of machine state belongs to one line
// set: an L1 set, an L2 bank set, a directory entry. The shard key of a
// line is the low log2(S) bits of its line index, with S =
// bit_floor(min(4 * default_jobs(), L1 sets, L2 sets per bank)). The L1
// set index and today's L2 set index (line mod sets, which reuses the bank
// selection bits, see DESIGN.md §5d) are line-index bits [0, log2 sets),
// and the directory tracks single lines, so all lines that share any state
// land in one shard. That also holds under an L2 set index taken above the
// bank bits ((line / banks) mod sets), because S divides the set count;
// only the set-to-shard map in merge_forks() would have to follow such a
// change.
//
// replay() keeps the one global round-robin walk and deals each line
// access into its shard's batch. Each shard replays its batches, in global
// order, into its own fork of the machine through the unchanged access()
// kernel. The replay is one parallel region without barriers: free threads
// deal the next group of batches into a fixed ring of slots or replay the
// dealt groups of a shard no other thread holds, and block while there is
// nothing to do, so a preempted thread delays only its own shard. Batch
// memory is fixed, independent of trace length. A shard thus applies to
// its sets exactly the events the serial machine would. At the end the
// forks' sets and directory entries are copied back, integer counters are
// summed in shard order, and each cache's LRU/FIFO clock advances by the
// sum of its forks' ticks, which keeps the age order inside every set. So
// every result, to_json included, is bit-identical to the serial replay
// at any job count. Four shards per job let the free threads balance uneven
// shards; each fork holds a full copy of the caches. Random replacement
// (one RNG per cache couples its sets), default_jobs() == 1 and nested
// parallel regions take S = 1: the serial loop straight into this
// machine, with no fork and no merge. The differential suite pins the
// sharded replay against that loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/coherence.hpp"
#include "cache/hierarchy.hpp"
#include "energy/coherence_model.hpp"
#include "energy/report.hpp"

namespace memopt {

class JsonWriter;
class TraceSource;

/// Geometry of the multi-core system. L2 bank line size must equal the L1
/// line size (the directory tracks L1-line-sized blocks), and the L1 must
/// be write-back/write-allocate (MSI has no write-through mode).
struct MultiCoreConfig {
    unsigned cores = 4;
    CacheConfig l1;       ///< private per-core L1 geometry
    CacheConfig l2_bank;  ///< geometry of ONE shared L2 bank
    unsigned l2_banks = 4;

    MultiCoreConfig() {
        l1.size_bytes = 8 * 1024;
        l1.line_bytes = 32;
        l1.associativity = 4;
        l2_bank.size_bytes = 64 * 1024;
        l2_bank.line_bytes = 32;
        l2_bank.associativity = 8;
    }
};

/// The coherent N-core cache machine. Cache-line aligned, like CacheModel,
/// because replay shards update their own copies from different threads.
class alignas(64) MultiCoreCacheSystem {
public:
    explicit MultiCoreCacheSystem(const MultiCoreConfig& config);

    const MultiCoreConfig& config() const { return config_; }
    unsigned cores() const { return config_.cores; }

    /// Simulate one access of `core`. Line-granular: callers replaying
    /// sized accesses split line-straddlers first (replay() does).
    void access(unsigned core, std::uint64_t addr, AccessKind kind);

    /// Replay one trace stream per core, interleaved by fixed round-robin
    /// arbitration (see file comment). `sources.size()` must equal the
    /// core count; accesses straddling an L1 line boundary are split per
    /// covered line. Does not flush.
    void replay(std::span<const std::unique_ptr<TraceSource>> sources);

    /// Number of set shards replay() runs in parallel under the current
    /// default_jobs(): 1 means the serial loop straight into this machine.
    unsigned replay_shards() const;

    /// Write every dirty line back (L1s in core order, then L2 banks) and
    /// downgrade the directory's Modified entries to Shared.
    void flush();

    const CacheModel& l1(unsigned core) const { return l1s_[core]; }
    const CacheModel& l2_bank(unsigned bank) const { return l2_banks_[bank]; }
    const MsiDirectory& directory() const { return directory_; }
    const MemoryTraffic& traffic() const { return traffic_; }

    /// Home bank of the line containing `addr`.
    unsigned bank_of(std::uint64_t addr) const;

    /// Element-wise sums of the per-core L1 / per-bank L2 counters.
    CacheStats l1_totals() const;
    CacheStats l2_totals() const;

    /// Full energy breakdown: per-access L1/L2 array energy, bank-select
    /// overhead, directory lookups, coherence messages + dirty transfers,
    /// and the off-chip traffic behind the L2.
    EnergyBreakdown energy(const CoherenceEnergyModel& coherence =
                               CoherenceEnergyModel{}) const;

private:
    /// Copy of the machine for one replay shard; see file comment.
    MultiCoreCacheSystem fork(unsigned shard, unsigned shards) const;
    /// Fold back the forks of one sharded replay, taken from this machine.
    void merge_forks(const std::vector<MultiCoreCacheSystem>& forks);
    void apply_actions(std::uint64_t line, const CoherenceActions& actions);
    void l2_access(std::uint64_t line, AccessKind kind);

    MultiCoreConfig config_;
    std::vector<CacheModel> l1s_;
    std::vector<CacheModel> l2_banks_;
    MsiDirectory directory_;
    MemoryTraffic traffic_;
};

/// Serialize the whole machine: config, per-core L1 stats, per-bank L2
/// stats, coherence counters, memory traffic, energy breakdown.
void to_json(JsonWriter& w, const MultiCoreCacheSystem& system);

}  // namespace memopt
