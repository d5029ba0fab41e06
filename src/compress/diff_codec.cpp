#include "compress/diff_codec.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace memopt {

namespace {

// Stream layout: 2 mode bits, then the payload of the chosen mode.
constexpr unsigned kModeRaw = 0;
constexpr unsigned kModeWordDiff = 1;
constexpr unsigned kModeByteDiff = 2;

// --- word-differential mode ---------------------------------------------

constexpr unsigned kTagZero = 0;
constexpr unsigned kTagByte = 1;
constexpr unsigned kTagHalf = 2;
constexpr unsigned kTagRaw = 3;

unsigned word_tag(std::uint32_t delta) {
    const auto sdelta = static_cast<std::int32_t>(delta);
    if (sdelta == 0) return kTagZero;
    if (sdelta >= -128 && sdelta <= 127) return kTagByte;
    if (sdelta >= -32768 && sdelta <= 32767) return kTagHalf;
    return kTagRaw;
}

unsigned word_payload_bits(unsigned tag) {
    switch (tag) {
        case kTagZero: return 0;
        case kTagByte: return 8;
        case kTagHalf: return 16;
        default: return 32;
    }
}

std::uint32_t load_word(std::span<const std::uint8_t> line, std::size_t w) {
    return static_cast<std::uint32_t>(line[4 * w]) |
           (static_cast<std::uint32_t>(line[4 * w + 1]) << 8) |
           (static_cast<std::uint32_t>(line[4 * w + 2]) << 16) |
           (static_cast<std::uint32_t>(line[4 * w + 3]) << 24);
}

// --- byte-differential mode ---------------------------------------------
// Per byte (after the first, stored raw): 2-bit tag — zero delta, signed
// nibble delta, or raw byte.

constexpr unsigned kByteTagZero = 0;
constexpr unsigned kByteTagNibble = 1;
constexpr unsigned kByteTagRaw = 2;

unsigned byte_tag(std::uint8_t delta) {
    const auto sdelta = static_cast<std::int8_t>(delta);
    if (sdelta == 0) return kByteTagZero;
    if (sdelta >= -8 && sdelta <= 7) return kByteTagNibble;
    return kByteTagRaw;
}

unsigned byte_payload_bits(unsigned tag) {
    switch (tag) {
        case kByteTagZero: return 0;
        case kByteTagNibble: return 4;
        default: return 8;
    }
}

// Payload bits (mode field excluded) of each layout of one line, computed
// from the line bytes without writing any bits.
struct LayoutBits {
    std::size_t raw = 0;
    std::size_t word = 0;
    std::size_t byte = 0;
};

LayoutBits layout_bits(std::span<const std::uint8_t> line) {
    require(line.size() % 4 == 0, "line size must be a multiple of 4 bytes");
    require(!line.empty(), "DiffCodec: empty line");
    LayoutBits bits;
    bits.raw = line.size() * 8;
    bits.word = 32;
    std::uint32_t prev = load_word(line, 0);
    for (std::size_t w = 1; w < line.size() / 4; ++w) {
        const std::uint32_t word = load_word(line, w);
        bits.word += 2 + word_payload_bits(word_tag(word - prev));
        prev = word;
    }
    bits.byte = 8;
    for (std::size_t b = 1; b < line.size(); ++b)
        bits.byte +=
            2 + byte_payload_bits(byte_tag(static_cast<std::uint8_t>(line[b] - line[b - 1])));
    return bits;
}

// The encoder's mode rule: the smallest layout. On a tie for the smallest,
// raw beats both differential layouts and word beats byte.
unsigned choose_mode(const LayoutBits& bits) {
    if (bits.word <= bits.byte && bits.word < bits.raw) return kModeWordDiff;
    if (bits.byte < bits.word && bits.byte < bits.raw) return kModeByteDiff;
    return kModeRaw;
}

}  // namespace

BitWriter DiffCodec::encode(std::span<const std::uint8_t> line) const {
    const LayoutBits bits = layout_bits(line);
    const unsigned mode = choose_mode(bits);
    const std::size_t num_words = line.size() / 4;

    BitWriter out;
    out.put_bits(mode, 2);
    if (mode == kModeWordDiff) {
        out.put_bits(load_word(line, 0), 32);
        for (std::size_t w = 1; w < num_words; ++w) {
            const std::uint32_t delta = load_word(line, w) - load_word(line, w - 1);
            const unsigned tag = word_tag(delta);
            out.put_bits(tag, 2);
            out.put_bits(delta, word_payload_bits(tag));
        }
        MEMOPT_ASSERT(out.bit_count() == 2 + bits.word);
    } else if (mode == kModeByteDiff) {
        out.put_bits(line[0], 8);
        for (std::size_t b = 1; b < line.size(); ++b) {
            const auto delta = static_cast<std::uint8_t>(line[b] - line[b - 1]);
            const unsigned tag = byte_tag(delta);
            out.put_bits(tag, 2);
            out.put_bits(delta, byte_payload_bits(tag));
        }
        MEMOPT_ASSERT(out.bit_count() == 2 + bits.byte);
    } else {
        for (std::size_t w = 0; w < num_words; ++w) out.put_bits(load_word(line, w), 32);
    }
    return out;
}

std::size_t DiffCodec::compressed_bits(std::span<const std::uint8_t> line) const {
    const LayoutBits bits = layout_bits(line);
    return 2 + std::min({bits.raw, bits.word, bits.byte});
}

std::vector<std::uint8_t> DiffCodec::decode(std::span<const std::uint8_t> coded,
                                            std::size_t line_bytes) const {
    require(line_bytes % 4 == 0 && line_bytes > 0 && line_bytes <= kMaxLineBytes,
            "DiffCodec: bad line size");
    const std::size_t num_words = line_bytes / 4;
    BitReader in(coded);
    const unsigned mode = in.get_bits(2);

    if (mode == kModeRaw) {
        std::vector<std::uint32_t> words;
        words.reserve(num_words);
        for (std::size_t w = 0; w < num_words; ++w) words.push_back(in.get_bits(32));
        return words_to_line(words);
    }

    if (mode == kModeWordDiff) {
        std::vector<std::uint32_t> words;
        words.reserve(num_words);
        words.push_back(in.get_bits(32));
        for (std::size_t w = 1; w < num_words; ++w) {
            const unsigned tag = in.get_bits(2);
            std::uint32_t delta = 0;
            switch (tag) {
                case kTagZero:
                    break;
                case kTagByte:
                    delta = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(static_cast<std::int8_t>(in.get_bits(8))));
                    break;
                case kTagHalf:
                    delta = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(static_cast<std::int16_t>(in.get_bits(16))));
                    break;
                default:
                    delta = in.get_bits(32);
                    break;
            }
            words.push_back(words.back() + delta);
        }
        return words_to_line(words);
    }

    require(mode == kModeByteDiff, "DiffCodec: corrupt mode field");
    std::vector<std::uint8_t> line;
    line.reserve(line_bytes);
    line.push_back(static_cast<std::uint8_t>(in.get_bits(8)));
    for (std::size_t b = 1; b < line_bytes; ++b) {
        const unsigned tag = in.get_bits(2);
        std::uint8_t delta = 0;
        switch (tag) {
            case kByteTagZero:
                break;
            case kByteTagNibble: {
                const std::uint32_t nibble = in.get_bits(4);
                // Sign-extend the 4-bit value.
                delta = static_cast<std::uint8_t>(
                    static_cast<std::int8_t>((nibble ^ 0x8u) - 0x8u));
                break;
            }
            default:
                delta = static_cast<std::uint8_t>(in.get_bits(8));
                break;
        }
        line.push_back(static_cast<std::uint8_t>(line.back() + delta));
    }
    return line;
}

}  // namespace memopt
