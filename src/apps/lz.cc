#include "apps/lz.h"

#include <algorithm>
#include <cstring>

namespace exo::apps {

namespace {

constexpr uint32_t kWindow = 32768;
constexpr uint32_t kMinMatch = 4;
constexpr uint32_t kMaxMatch = 255;
constexpr uint8_t kBlockCompressed = 1;
constexpr uint8_t kBlockStored = 0;
constexpr uint32_t kBlockSize = 65536;
// Match-table slots: twice the most positions one block can record.
constexpr uint32_t kTableSlots = 2 * kBlockSize;
constexpr uint16_t kEmptySlot = 0xFFFF;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(std::span<const uint8_t> in, size_t off) {
  return static_cast<uint32_t>(in[off]) | (static_cast<uint32_t>(in[off + 1]) << 8) |
         (static_cast<uint32_t>(in[off + 2]) << 16) |
         (static_cast<uint32_t>(in[off + 3]) << 24);
}

uint32_t Load4(std::span<const uint8_t> in, size_t i) {
  uint32_t v;
  std::memcpy(&v, in.data() + i, 4);
  return v;
}

// Compresses one block; returns the token stream (without header). `table` is
// scratch space of kTableSlots entries.
std::vector<uint8_t> CompressBlock(std::span<const uint8_t> in, std::span<uint16_t> table) {
  std::vector<uint8_t> out;
  out.reserve(in.size());
  // The match table maps each 4-byte value seen in this block to the last
  // position it was recorded at. It is open-addressed by the value's top 17
  // hash bits and probes linearly; a slot holds only a position, and it holds
  // `v` when the 4 bytes there equal `v`. Every recorded position p has
  // p + 4 <= kBlockSize, so kEmptySlot is never one, and at most 65,533
  // positions keep the table at most half full.
  std::fill(table.begin(), table.end(), kEmptySlot);
  auto slot_of = [&](uint32_t v) -> uint16_t& {
    uint32_t s = (v * 2654435761u) >> 15;
    while (table[s] != kEmptySlot && Load4(in, table[s]) != v) {
      s = (s + 1) & (kTableSlots - 1);
    }
    return table[s];
  };
  size_t i = 0;
  std::vector<uint8_t> literals;
  auto flush_literals = [&] {
    size_t off = 0;
    while (off < literals.size()) {
      size_t n = std::min<size_t>(literals.size() - off, 127);
      out.push_back(static_cast<uint8_t>(n));  // 1..127: literal run
      out.insert(out.end(), literals.begin() + static_cast<long>(off),
                 literals.begin() + static_cast<long>(off + n));
      off += n;
    }
    literals.clear();
  };
  while (i < in.size()) {
    uint32_t best_len = 0;
    uint32_t best_dist = 0;
    if (i + kMinMatch <= in.size()) {
      uint16_t& slot = slot_of(Load4(in, i));
      if (slot != kEmptySlot) {
        uint32_t cand = slot;
        if (cand < i && i - cand <= kWindow) {
          uint32_t len = 0;
          uint32_t max = static_cast<uint32_t>(std::min<size_t>(in.size() - i, kMaxMatch));
          while (len < max && in[cand + len] == in[i + len]) {
            ++len;
          }
          if (len >= kMinMatch) {
            best_len = len;
            best_dist = static_cast<uint32_t>(i - cand);
          }
        }
      }
      slot = static_cast<uint16_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals();
      out.push_back(0x80);  // match token
      out.push_back(static_cast<uint8_t>(best_len));
      out.push_back(static_cast<uint8_t>(best_dist));
      out.push_back(static_cast<uint8_t>(best_dist >> 8));
      for (uint32_t k = 1; k < best_len && i + k + kMinMatch <= in.size(); k += 3) {
        slot_of(Load4(in, i + k)) = static_cast<uint16_t>(i + k);
      }
      i += best_len;
    } else {
      literals.push_back(in[i]);
      ++i;
    }
  }
  flush_literals();
  return out;
}

}  // namespace

std::vector<uint8_t> LzCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 64);
  PutU32(out, static_cast<uint32_t>(input.size()));
  std::vector<uint16_t> table(kTableSlots);
  for (size_t off = 0; off < input.size(); off += kBlockSize) {
    size_t n = std::min<size_t>(kBlockSize, input.size() - off);
    auto block = input.subspan(off, n);
    auto packed = CompressBlock(block, table);
    if (packed.size() < n) {
      out.push_back(kBlockCompressed);
      PutU32(out, static_cast<uint32_t>(packed.size()));
      PutU32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), packed.begin(), packed.end());
    } else {
      out.push_back(kBlockStored);
      PutU32(out, static_cast<uint32_t>(n));
      PutU32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), block.begin(), block.end());
    }
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
  uint32_t total = GetU32(input, 0);
  std::vector<uint8_t> out;
  out.reserve(total);
  size_t pos = 4;
  while (out.size() < total) {
    if (pos + 9 > input.size()) {
      return fail();
    }
    uint8_t kind = input[pos];
    uint32_t packed_len = GetU32(input, pos + 1);
    uint32_t raw_len = GetU32(input, pos + 5);
    pos += 9;
    if (pos + packed_len > input.size()) {
      return fail();
    }
    if (kind == kBlockStored) {
      out.insert(out.end(), input.begin() + static_cast<long>(pos),
                 input.begin() + static_cast<long>(pos + packed_len));
      pos += packed_len;
      continue;
    }
    size_t end = pos + packed_len;
    size_t produced0 = out.size();
    while (pos < end) {
      uint8_t tok = input[pos];
      if (tok == 0x80) {
        if (pos + 4 > end) {
          return fail();
        }
        uint32_t len = input[pos + 1];
        uint32_t dist = input[pos + 2] | (input[pos + 3] << 8);
        pos += 4;
        if (dist == 0 || dist > out.size()) {
          return fail();
        }
        size_t start = out.size() - dist;
        for (uint32_t k = 0; k < len; ++k) {
          out.push_back(out[start + k]);
        }
      } else if (tok >= 1 && tok <= 127) {
        if (pos + 1 + tok > end) {
          return fail();
        }
        out.insert(out.end(), input.begin() + static_cast<long>(pos + 1),
                   input.begin() + static_cast<long>(pos + 1 + tok));
        pos += 1 + tok;
      } else {
        return fail();
      }
    }
    if (out.size() - produced0 != raw_len) {
      return fail();
    }
  }
  return out;
}

}  // namespace exo::apps
