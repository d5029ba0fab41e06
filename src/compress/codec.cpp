#include "compress/codec.hpp"

#include "support/assert.hpp"

namespace memopt {

void BitWriter::put_bit(bool bit) {
    const std::size_t byte_index = bits_ / 8;
    if (byte_index == bytes_.size()) bytes_.push_back(0);
    if (bit) bytes_[byte_index] |= static_cast<std::uint8_t>(1u << (bits_ % 8));
    ++bits_;
}

void BitWriter::put_bits(std::uint32_t value, unsigned count) {
    MEMOPT_ASSERT(count <= 32);
    // The masked value shifted to the current bit offset spans at most
    // five bytes; new bytes start zeroed, as put_bit would have pushed them.
    std::uint64_t rest = (static_cast<std::uint64_t>(value) &
                          ((std::uint64_t{1} << count) - 1))
                         << (bits_ % 8);
    std::size_t byte_index = bits_ / 8;
    bits_ += count;
    bytes_.resize((bits_ + 7) / 8, 0);
    for (; byte_index < bytes_.size(); ++byte_index, rest >>= 8)
        bytes_[byte_index] |= static_cast<std::uint8_t>(rest);
}

bool BitReader::get_bit() {
    require(pos_ < bytes_.size() * 8, "BitReader: read past end of stream");
    const bool bit = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1u;
    ++pos_;
    return bit;
}

std::uint32_t BitReader::get_bits(unsigned count) {
    MEMOPT_ASSERT(count <= 32);
    const std::size_t end = pos_ + count;
    if (end > bytes_.size() * 8) {
        // Same end state as a bit-by-bit read that stops at the end.
        pos_ = bytes_.size() * 8;
        throw Error("BitReader: read past end of stream");
    }
    std::uint64_t window = 0;
    const std::size_t first = pos_ / 8;
    for (std::size_t i = first; i < (end + 7) / 8; ++i)
        window |= static_cast<std::uint64_t>(bytes_[i]) << (8 * (i - first));
    const auto value = static_cast<std::uint32_t>((window >> (pos_ % 8)) &
                                                  ((std::uint64_t{1} << count) - 1));
    pos_ = end;
    return value;
}

std::size_t LineCodec::compressed_bits(std::span<const std::uint8_t> line) const {
    return encode(line).bit_count();
}

std::vector<std::uint32_t> line_words(std::span<const std::uint8_t> line) {
    require(line.size() % 4 == 0, "line size must be a multiple of 4 bytes");
    std::vector<std::uint32_t> words(line.size() / 4);
    for (std::size_t w = 0; w < words.size(); ++w) {
        words[w] = static_cast<std::uint32_t>(line[4 * w]) |
                   (static_cast<std::uint32_t>(line[4 * w + 1]) << 8) |
                   (static_cast<std::uint32_t>(line[4 * w + 2]) << 16) |
                   (static_cast<std::uint32_t>(line[4 * w + 3]) << 24);
    }
    return words;
}

std::vector<std::uint8_t> words_to_line(std::span<const std::uint32_t> words) {
    std::vector<std::uint8_t> line(words.size() * 4);
    for (std::size_t w = 0; w < words.size(); ++w) {
        line[4 * w] = static_cast<std::uint8_t>(words[w]);
        line[4 * w + 1] = static_cast<std::uint8_t>(words[w] >> 8);
        line[4 * w + 2] = static_cast<std::uint8_t>(words[w] >> 16);
        line[4 * w + 3] = static_cast<std::uint8_t>(words[w] >> 24);
    }
    return line;
}

}  // namespace memopt
