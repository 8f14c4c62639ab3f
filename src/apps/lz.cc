#include "apps/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

namespace exo::apps {

namespace {

constexpr uint32_t kWindow = 32768;
constexpr uint32_t kMinMatch = 4;
constexpr uint32_t kMaxMatch = 255;
constexpr uint32_t kMaxLiteralRun = 127;
constexpr uint8_t kMatchToken = 0x80;
constexpr uint8_t kBlockCompressed = 1;
constexpr uint8_t kBlockStored = 0;
constexpr uint32_t kBlockSize = 65536;
constexpr size_t kBlockHeader = 9;  // u8 kind, u32 packed_len, u32 raw_len
// A compressed block makes at most kMaxMatch bytes per 4-byte match token.
constexpr uint64_t kMaxExpansion = 64;
// Match-table slots: twice the most positions one block can record.
constexpr uint32_t kTableSlots = 2 * kBlockSize;
constexpr uint16_t kEmptySlot = 0xFFFF;
// Copies move 16 bytes at a time, at least two chunks, so they may write up
// to 31 bytes past their end: every buffer they write into has kSlack bytes
// of room past its last byte.
constexpr size_t kChunk = 16;
constexpr size_t kSlack = 2 * kChunk;

void PutU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) | (static_cast<uint32_t>(in[3]) << 24);
}

uint32_t Load4(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t Load8(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

// Copies n bytes from src to dst in 16-byte chunks, at least two: writes and
// reads up to max(n + 15, 32) bytes. A chunk may read what an earlier chunk
// wrote, so dst may follow src by 16 bytes or more, but not by less.
void ChunkCopy(uint8_t* dst, const uint8_t* src, size_t n) {
  std::memcpy(dst, src, kChunk);
  std::memcpy(dst + kChunk, src + kChunk, kChunk);
  for (size_t k = 2 * kChunk; k < n; k += kChunk) {
    std::memcpy(dst + k, src + k, kChunk);
  }
}

// The length of the common prefix of a and b, at most max bytes.
uint32_t MatchLength(const uint8_t* a, const uint8_t* b, uint32_t max) {
  uint32_t len = 0;
  while (len + 8 <= max) {
    const uint64_t diff = Load8(a + len) ^ Load8(b + len);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                  : std::countl_zero(diff);
      return len + static_cast<uint32_t>(bits / 8);
    }
    len += 8;
  }
  while (len < max && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// The room an n-byte block's token stream needs. A match token takes 4 bytes
// and covers at least 4; a literal run takes one byte more than its literals,
// and literals between two matches need a new run only after 127. So the
// stream is at most n + n / 4 + 1 bytes, and copies may write kSlack bytes
// past it.
size_t StreamRoom(size_t n) { return n + n / 4 + 1 + kSlack; }

// Compresses the n-byte block at `in` into `out`, which has StreamRoom(n)
// bytes of room, and returns the token stream's length. Bytes up to
// `readable_end` may be read past the block. `table` holds kTableSlots
// entries.
size_t CompressBlock(const uint8_t* in, size_t n, const uint8_t* readable_end,
                     uint16_t* table, uint8_t* out) {
  // The match table maps each 4-byte value seen in this block to the last
  // position it was recorded at. It is open-addressed by the value's top 17
  // hash bits and probes linearly; a slot holds only a position, and it holds
  // `v` when the 4 bytes there equal `v`. Every recorded position p has
  // p + 4 <= kBlockSize, so kEmptySlot is never one, and at most 65,533
  // positions keep the table at most half full.
  std::fill_n(table, kTableSlots, kEmptySlot);
  auto slot_of = [&](uint32_t v) -> uint16_t& {
    uint32_t s = (v * 2654435761u) >> 15;
    while (table[s] != kEmptySlot && Load4(in + table[s]) != v) {
      s = (s + 1) & (kTableSlots - 1);
    }
    return table[s];
  };
  uint8_t* w = out;
  // Appends in[lit, end) as runs of at most kMaxLiteralRun literals.
  auto put_literals = [&](size_t lit, size_t end) {
    while (lit < end) {
      const size_t run = std::min<size_t>(end - lit, kMaxLiteralRun);
      *w++ = static_cast<uint8_t>(run);
      if (static_cast<size_t>(readable_end - (in + lit)) >= run + kSlack) {
        ChunkCopy(w, in + lit, run);
      } else {
        std::memcpy(w, in + lit, run);
      }
      w += run;
      lit += run;
    }
  };
  // The scan probes the table at each position it reaches that has 4 bytes
  // left and takes the match it finds there (the greedy parse); the pending
  // literals are in[lit, i).
  const size_t probe_end = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  size_t i = 0;
  size_t lit = 0;
  while (i < probe_end) {
    uint16_t& slot = slot_of(Load4(in + i));
    const uint32_t cand = slot;
    slot = static_cast<uint16_t>(i);
    if (cand == kEmptySlot || i - cand > kWindow) {
      ++i;
      continue;
    }
    // The slot's 4 bytes equal in[i, i + 4), and i + 4 <= n.
    const uint32_t max = static_cast<uint32_t>(std::min<size_t>(n - i, kMaxMatch));
    const uint32_t len = kMinMatch + MatchLength(in + cand + kMinMatch, in + i + kMinMatch,
                                                 max - kMinMatch);
    put_literals(lit, i);
    const uint32_t dist = static_cast<uint32_t>(i - cand);
    w[0] = kMatchToken;
    w[1] = static_cast<uint8_t>(len);
    w[2] = static_cast<uint8_t>(dist);
    w[3] = static_cast<uint8_t>(dist >> 8);
    w += 4;
    for (uint32_t k = 1; k < len && i + k + kMinMatch <= n; k += 3) {
      slot_of(Load4(in + i + k)) = static_cast<uint16_t>(i + k);
    }
    i += len;
    lit = i;
  }
  put_literals(lit, n);
  return static_cast<size_t>(w - out);
}

}  // namespace

std::vector<uint8_t> LzCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 64);
  out.resize(4);
  PutU32(out.data(), static_cast<uint32_t>(input.size()));
  const auto table = std::make_unique_for_overwrite<uint16_t[]>(kTableSlots);
  const uint8_t* const end = input.data() + input.size();
  for (size_t off = 0; off < input.size(); off += kBlockSize) {
    const size_t n = std::min<size_t>(kBlockSize, input.size() - off);
    const uint8_t* block = input.data() + off;
    const size_t head = out.size();
    out.resize(head + kBlockHeader + StreamRoom(n));
    uint8_t* const h = out.data() + head;
    size_t packed = CompressBlock(block, n, end, table.get(), h + kBlockHeader);
    // A block whose stream is not shorter than the block is stored raw.
    const bool stored = packed >= n;
    if (stored) {
      std::memcpy(h + kBlockHeader, block, n);
      packed = n;
    }
    h[0] = stored ? kBlockStored : kBlockCompressed;
    PutU32(h + 1, static_cast<uint32_t>(packed));
    PutU32(h + 5, static_cast<uint32_t>(n));
    out.resize(head + kBlockHeader + packed);
  }
  return out;
}

std::vector<uint8_t> LzDecompress(std::span<const uint8_t> input, bool* ok) {
  auto fail = [&] {
    if (ok != nullptr) {
      *ok = false;
    }
    return std::vector<uint8_t>{};
  };
  if (ok != nullptr) {
    *ok = true;
  }
  if (input.size() < 4) {
    return fail();
  }
  const uint8_t* const in = input.data();
  const uint64_t total = GetU32(in);
  // Walk the block headers first (the rules are in lz.h). A compressed block
  // must then make exactly raw_len bytes, so the output is sized before any
  // block is decoded.
  uint64_t size = 0;
  size_t blocks = 0;
  size_t pos = 4;
  for (; size < total; ++blocks) {
    if (pos + kBlockHeader > input.size()) {
      return fail();
    }
    const uint8_t kind = in[pos];
    const uint32_t packed_len = GetU32(in + pos + 1);
    const uint32_t raw_len = GetU32(in + pos + 5);
    pos += kBlockHeader;
    const bool stored_ok = kind == kBlockStored && raw_len == packed_len;
    const bool compressed_ok =
        kind == kBlockCompressed && raw_len <= kMaxExpansion * packed_len;
    if (!(stored_ok || compressed_ok) || pos + packed_len > input.size() ||
        raw_len > total - size) {
      return fail();
    }
    size += raw_len;
    pos += packed_len;
  }
  if (pos != input.size()) {
    return fail();
  }

  std::vector<uint8_t> out(size + kSlack);
  uint8_t* const base = out.data();
  uint8_t* o = base;
  const uint8_t* p = in + 4;
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t packed_len = GetU32(p + 1);
    const uint32_t raw_len = GetU32(p + 5);
    const bool stored = p[0] == kBlockStored;
    p += kBlockHeader;
    const uint8_t* const end = p + packed_len;
    if (stored) {
      std::memcpy(o, p, packed_len);
      o += packed_len;
      p = end;
      continue;
    }
    // Every token is checked against the block's end before it is copied, so
    // no copy writes past the output's slack.
    uint8_t* const block_end = o + raw_len;
    while (p < end) {
      const uint8_t tok = *p;
      if (tok == kMatchToken) {
        if (end - p < 4) {
          return fail();
        }
        const uint32_t len = p[1];
        const size_t dist = p[2] | (p[3] << 8);
        p += 4;
        if (dist == 0 || dist > static_cast<size_t>(o - base) ||
            len > static_cast<size_t>(block_end - o)) {
          return fail();
        }
        const uint8_t* src = o - dist;
        if (dist >= kChunk) {
          ChunkCopy(o, src, len);
        } else {
          for (uint32_t k = 0; k < len; ++k) {
            o[k] = src[k];
          }
        }
        o += len;
      } else if (tok >= 1 && tok <= kMaxLiteralRun) {
        if (end - p - 1 < tok || tok > block_end - o) {
          return fail();
        }
        if (static_cast<size_t>(in + input.size() - (p + 1)) >= tok + kSlack) {
          ChunkCopy(o, p + 1, tok);
        } else {
          std::memcpy(o, p + 1, tok);
        }
        o += tok;
        p += 1 + tok;
      } else {
        return fail();
      }
    }
    if (o != block_end) {
      return fail();
    }
  }
  out.resize(size);
  return out;
}

}  // namespace exo::apps
