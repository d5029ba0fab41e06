// Symbol-level attribution of memory traffic.
//
// Maps every access of a trace to the assembler symbol whose region
// contains it (a symbol's region extends to the next symbol), so energy
// reports can say "the coefficient table takes 40% of the accesses" instead
// of quoting raw block numbers. Accesses outside all symbols (typically the
// stack) are attributed to the pseudo-symbol "<stack/anon>".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "trace/source.hpp"

namespace memopt {

/// Traffic attributed to one symbol.
struct SymbolTraffic {
    std::string name;
    std::uint64_t base = 0;      ///< region start (byte address)
    std::uint64_t bytes = 0;     ///< region size (to the next symbol / image end)
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    std::uint64_t total() const { return reads + writes; }
};

/// Attribute every access of `source` to the data symbols of `program`
/// (one pass from the start; the source is reset first). Returns entries
/// sorted by descending total accesses; symbols with zero traffic are
/// omitted. The trailing "<stack/anon>" entry collects accesses outside the
/// data image.
std::vector<SymbolTraffic> symbolize_trace(const AssembledProgram& program,
                                           TraceSource& source);

}  // namespace memopt
