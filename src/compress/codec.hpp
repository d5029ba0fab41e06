// Cache-line compression codecs.
//
// A LineCodec losslessly encodes one cache line (a fixed number of bytes)
// into a bitstream. Codecs are used by the compressed-memory simulation
// (1B-2): lines are compressed before write-back to main memory and
// decompressed on refill, so every codec must be stateless per line (random
// line access must remain possible) and must never expand a line by more
// than the 1-bit raw-fallback flag.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace memopt {

/// Upper bound on a decodable line. Every decode() clamps its caller-
/// supplied `line_bytes` against this before any allocation sized from it,
/// so a corrupted or hostile size can never trigger an unbounded reserve.
/// Real caches top out at 256-byte lines; 4 KiB leaves generous headroom.
inline constexpr std::size_t kMaxLineBytes = 4096;

/// Append-only bit stream writer (LSB-first within each byte).
class BitWriter {
public:
    void put_bit(bool bit);
    void put_bits(std::uint32_t value, unsigned count);  ///< low `count` bits, LSB first
    std::size_t bit_count() const { return bits_; }
    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

private:
    std::vector<std::uint8_t> bytes_;
    std::size_t bits_ = 0;
};

/// Sequential bit stream reader matching BitWriter's layout.
class BitReader {
public:
    explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
    bool get_bit();
    std::uint32_t get_bits(unsigned count);
    std::size_t position() const { return pos_; }

private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/// Abstract lossless line codec.
class LineCodec {
public:
    virtual ~LineCodec() = default;

    /// Identifier for reports ("diff", "zero-run", ...).
    virtual std::string name() const = 0;

    /// Encode `line` (line.size() must be a multiple of 4).
    /// Returns the bitstream; its bit length is the stored size.
    virtual BitWriter encode(std::span<const std::uint8_t> line) const = 0;

    /// Decode a bitstream produced by encode() back into `line_bytes` bytes.
    /// Throws memopt::Error on malformed input.
    virtual std::vector<std::uint8_t> decode(std::span<const std::uint8_t> coded,
                                             std::size_t line_bytes) const = 0;

    /// Stored size in bits of `line`; always equals encode(line).bit_count().
    /// The default encodes and measures. CompressedMemorySim prices every
    /// write-back through this call unless it keeps the blobs, so a codec
    /// on that path (DiffCodec) overrides it with a size-only pass.
    virtual std::size_t compressed_bits(std::span<const std::uint8_t> line) const;
};

/// Split a line into little-endian 32-bit words.
std::vector<std::uint32_t> line_words(std::span<const std::uint8_t> line);

/// Inverse of line_words.
std::vector<std::uint8_t> words_to_line(std::span<const std::uint32_t> words);

}  // namespace memopt
