// Multi-bank memory architectures.
//
// A partition assigns every profile block to exactly one bank; banks are
// contiguous block ranges (in the — possibly remapped — block address
// space) and their physical capacity is rounded up to a power of two, the
// granularity at which embedded SRAM cuts are available.
#pragma once

#include <cstdint>
#include <vector>

#include "support/assert.hpp"
#include "trace/profile.hpp"

namespace memopt {

class AddressMap;

/// One SRAM bank covering a contiguous block range.
struct Bank {
    std::size_t first_block = 0;  ///< first covered block (inclusive)
    std::size_t num_blocks = 0;   ///< number of covered blocks (> 0)
    std::uint64_t size_bytes = 0; ///< physical capacity (power of two)

    std::size_t end_block() const { return first_block + num_blocks; }
};

/// A complete multi-bank memory architecture over a block profile.
///
/// Invariants (checked by validate()): banks are non-empty, ordered,
/// disjoint, cover every block exactly once, and each bank's capacity is a
/// power of two that holds its block range.
class MemoryArchitecture {
public:
    /// Trivial architecture: one 4 KiB bank over one block. Exists so that
    /// result structs holding a MemoryArchitecture are default-
    /// constructible; replace it before use.
    MemoryArchitecture() : MemoryArchitecture({Bank{0, 1, 4096}}, 4096) {}

    /// Build from bank ranges. `block_size` is the profile's block size;
    /// `min_bank_bytes` is the smallest manufacturable cut (bank capacities
    /// are clamped up to it). Throws memopt::Error on invalid layouts.
    MemoryArchitecture(std::vector<Bank> banks, std::uint64_t block_size);

    /// Monolithic architecture: one bank covering `num_blocks` blocks.
    static MemoryArchitecture monolithic(std::uint64_t block_size, std::size_t num_blocks,
                                         std::uint64_t min_bank_bytes = 256);

    /// Build from split points: `splits` are the first blocks of each bank
    /// after the first (strictly increasing, in (0, num_blocks)).
    static MemoryArchitecture from_splits(std::uint64_t block_size, std::size_t num_blocks,
                                          const std::vector<std::size_t>& splits,
                                          std::uint64_t min_bank_bytes = 256);

    const std::vector<Bank>& banks() const { return banks_; }
    std::size_t num_banks() const { return banks_.size(); }
    std::uint64_t block_size() const { return block_size_; }
    std::size_t num_blocks() const;

    /// Index of the bank holding `block`.
    std::size_t bank_of_block(std::size_t block) const;

    /// Total physical capacity over all banks (>= covered span).
    std::uint64_t total_capacity() const;

    /// Physical capacity (power of two, >= min_bytes) needed for a run of
    /// `num_blocks` blocks of `block_size` bytes.
    static std::uint64_t capacity_for(std::uint64_t block_size, std::size_t num_blocks,
                                      std::uint64_t min_bytes);

private:
    void validate() const;

    std::vector<Bank> banks_;
    std::uint64_t block_size_;
};

/// Byte address -> bank under a block remap, as one table lookup: the
/// trace replays use it instead of AddressMap::map_addr's division plus
/// bank_of_block's binary search per access. The table holds one entry per
/// logical block: bank_of_block(map.map_block(l)).
class BankLookup {
public:
    /// `map` must cover exactly `arch`'s blocks with the same block size.
    BankLookup(const MemoryArchitecture& arch, const AddressMap& map);

    /// Bank holding byte address `addr` (logical, before the remap).
    /// Throws memopt::Error, with AddressMap::map_addr's text, when `addr`
    /// lies outside the mapped span.
    std::size_t bank_of(std::uint64_t addr) const {
        const std::uint64_t block = addr >> shift_;
        if (block >= bank_.size()) throw Error("map_addr: address outside mapped span");
        return bank_[static_cast<std::size_t>(block)];
    }

private:
    unsigned shift_;
    std::vector<std::uint32_t> bank_;
};

}  // namespace memopt
