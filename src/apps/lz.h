// LZSS compressor/decompressor used by the gzip/gunzip workload programs.
//
// A real, deterministic, self-inverse byte-oriented LZ: a greedy parse that takes the
// match at the last position of each 4-byte value within a 32-KB window, emitted as
// flagged tokens. Repetitive C source compresses roughly 3:1, matching the paper's
// lcc archive (1.1 MB compressed). Blocks that do not compress are stored raw, so
// binaries never expand.
#ifndef EXO_APPS_LZ_H_
#define EXO_APPS_LZ_H_

#include <cstdint>
#include <span>
#include <vector>

namespace exo::apps {

// The stream is a u32 size header, then blocks of {u8 kind, u32 packed_len,
// u32 raw_len, packed_len payload bytes}. Kind 0 stores the block raw; kind 1
// holds a token stream.
std::vector<uint8_t> LzCompress(std::span<const uint8_t> input);
// Accepts only what LzCompress writes: every kind is 0 or 1, a stored block's
// raw_len equals its packed_len, the blocks' raw lengths add up exactly to the
// size header, and nothing follows the last block. Returns empty on any other
// input (and sets *ok=false if provided). It walks the block headers before it
// decodes and allocates the output once, sized from their raw lengths; a
// compressed block's may be at most 64 bytes per byte of its token stream (a
// 4-byte match token makes at most 255 bytes). So it allocates at most 64
// bytes per input byte, plus 32 bytes of copy slack, whatever the size header
// claims.
std::vector<uint8_t> LzDecompress(std::span<const uint8_t> input, bool* ok = nullptr);

// CPU cost of (de)compression, cycles per input byte (compression searches matches).
constexpr double kLzCompressCyclesPerByte = 60.0;
constexpr double kLzDecompressCyclesPerByte = 10.0;

}  // namespace exo::apps

#endif  // EXO_APPS_LZ_H_
