// Differential line codec — the 1B-2 compression algorithm.
//
// Three layouts, selected per line by a leading 2-bit mode field (the
// encoder picks the smallest):
//
//  * word-differential — the line is viewed as little-endian 32-bit words;
//    the first word is verbatim, each subsequent word is the difference to
//    its predecessor with a 2-bit size tag:
//      tag 00: delta == 0 (0 bits), 01: signed 8-bit (8), 10: signed 16-bit
//      (16), 11: raw word (32).
//    Wins on pointers, counters and media samples.
//  * byte-differential — same idea at byte granularity (tags: zero / signed
//    nibble / raw byte). Wins on packed small-alphabet data (text, flags).
//  * raw fallback — so the stored size never exceeds raw + 2 bits.
//
// The codec is stateless per line: any line can be decompressed in
// isolation, which is what allows cache refills in arbitrary order.
#pragma once

#include "compress/codec.hpp"

namespace memopt {

/// The differential codec (see file comment).
class DiffCodec final : public LineCodec {
public:
    std::string name() const override { return "diff"; }
    BitWriter encode(std::span<const std::uint8_t> line) const override;
    /// The three layout sizes straight from the line bytes, no bitstream:
    /// 2 + min(raw, word-differential, byte-differential).
    std::size_t compressed_bits(std::span<const std::uint8_t> line) const override;
    std::vector<std::uint8_t> decode(std::span<const std::uint8_t> coded,
                                     std::size_t line_bytes) const override;
};

}  // namespace memopt
