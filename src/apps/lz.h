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

std::vector<uint8_t> LzCompress(std::span<const uint8_t> input);
// Returns empty on malformed input (and sets *ok=false if provided). It walks
// the block headers before it decodes and allocates the output once, sized
// from them: a stored block's payload, or a compressed block's raw length,
// which may be at most 64 bytes per byte of its token stream (a 4-byte match
// token makes at most 255 bytes). So it allocates at most 64 bytes per input
// byte, plus 32 bytes of copy slack, whatever the size header claims.
std::vector<uint8_t> LzDecompress(std::span<const uint8_t> input, bool* ok = nullptr);

// CPU cost of (de)compression, cycles per input byte (compression searches matches).
constexpr double kLzCompressCyclesPerByte = 60.0;
constexpr double kLzDecompressCyclesPerByte = 10.0;

}  // namespace exo::apps

#endif  // EXO_APPS_LZ_H_
