#include "apps/unix_apps.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "apps/lz.h"

namespace exo::apps {

namespace {

// Opens `path`, reads it kIoChunk at a time into one buffer, hands each read to
// `scan` in file order, closes it, and returns the bytes read. A failed open or
// read returns its status (closing the file first); `scan` sees only bytes the
// file holds.
template <typename Scan>
Result<uint64_t> ScanFile(os::UnixEnv& env, const std::string& path, Scan&& scan) {
  auto fd = env.Open(path, false);
  if (!fd.ok()) {
    return fd.status();
  }
  const auto chunk = std::make_unique_for_overwrite<uint8_t[]>(kIoChunk);
  uint64_t size = 0;
  for (;;) {
    auto n = env.Read(*fd, std::span<uint8_t>(chunk.get(), kIoChunk));
    if (!n.ok()) {
      env.Close(*fd);
      return n.status();
    }
    if (*n == 0) {
      break;
    }
    scan(std::span<const uint8_t>(chunk.get(), *n));
    size += *n;
  }
  env.Close(*fd);
  return size;
}

Result<std::vector<uint8_t>> ReadWhole(os::UnixEnv& env, const std::string& path) {
  std::vector<uint8_t> out;
  const Result<uint64_t> size = ScanFile(env, path, [&out](std::span<const uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
  if (!size.ok()) {
    return size.status();
  }
  return out;
}

Status WriteWhole(os::UnixEnv& env, const std::string& path,
                  std::span<const uint8_t> data) {
  auto fd = env.Open(path, /*create=*/true);
  if (!fd.ok()) {
    return fd.status();
  }
  for (size_t off = 0; off < data.size(); off += kIoChunk) {
    auto n = env.Write(*fd, data.subspan(off, std::min(kIoChunk, data.size() - off)));
    if (!n.ok()) {
      env.Close(*fd);
      return n.status();
    }
  }
  return env.Close(*fd);
}

}  // namespace

Status Cp(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto in = env.Open(src, false);
  if (!in.ok()) {
    return in.status();
  }
  auto out = env.Open(dst, /*create=*/true);
  if (!out.ok()) {
    env.Close(*in);
    return out.status();
  }
  std::vector<uint8_t> chunk(kIoChunk);
  Status copied = Status::kOk;
  for (;;) {
    auto n = env.Read(*in, chunk);
    if (!n.ok() || *n == 0) {
      copied = n.status();  // kOk at end of file
      break;
    }
    auto w = env.Write(*out, std::span<const uint8_t>(chunk.data(), *n));
    if (!w.ok()) {
      copied = w.status();
      break;
    }
  }
  env.Close(*in);
  Status closed = env.Close(*out);
  return copied != Status::kOk ? copied : closed;
}

Status CpR(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  Status s = env.Mkdir(dst);
  if (s != Status::kOk && s != Status::kAlreadyExists) {
    return s;
  }
  auto entries = env.ReadDir(src);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string from = src + "/" + de.name;
    std::string to = dst + "/" + de.name;
    if (de.is_dir) {
      s = CpR(env, from, to);
    } else {
      s = Cp(env, from, to);
    }
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status Gzip(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto data = ReadWhole(env, src);
  if (!data.ok()) {
    return data.status();
  }
  env.Compute(static_cast<sim::Cycles>(static_cast<double>(data->size()) *
                                       kLzCompressCyclesPerByte));
  auto packed = LzCompress(*data);
  return WriteWhole(env, dst, packed);
}

Status Gunzip(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto data = ReadWhole(env, src);
  if (!data.ok()) {
    return data.status();
  }
  bool ok = true;
  auto raw = LzDecompress(*data, &ok);
  if (!ok) {
    return Status::kInvalidArgument;
  }
  env.Compute(static_cast<sim::Cycles>(static_cast<double>(raw.size()) *
                                       kLzDecompressCyclesPerByte));
  return WriteWhole(env, dst, raw);
}

namespace {

// pax archive record: u8 kind (0 end, 1 file, 2 dir), u16 path length, path bytes,
// u32 size, then data for files.
void PaxCollect(os::UnixEnv& env, const std::string& root, const std::string& rel,
                std::vector<uint8_t>& out, Status* err) {
  std::string abs = rel.empty() ? root : root + "/" + rel;
  auto entries = env.ReadDir(abs);
  if (!entries.ok()) {
    *err = entries.status();
    return;
  }
  // Deterministic order.
  std::sort(entries->begin(), entries->end(),
            [](const fs::DirEnt& a, const fs::DirEnt& b) { return a.name < b.name; });
  for (const auto& de : *entries) {
    std::string rpath = rel.empty() ? de.name : rel + "/" + de.name;
    out.push_back(de.is_dir ? 2 : 1);
    out.push_back(static_cast<uint8_t>(rpath.size()));
    out.push_back(static_cast<uint8_t>(rpath.size() >> 8));
    out.insert(out.end(), rpath.begin(), rpath.end());
    if (de.is_dir) {
      for (int i = 0; i < 4; ++i) {
        out.push_back(0);
      }
      PaxCollect(env, root, rpath, out, err);
      if (*err != Status::kOk) {
        return;
      }
    } else {
      auto data = ReadWhole(env, abs + "/" + de.name);
      if (!data.ok()) {
        *err = data.status();
        return;
      }
      uint32_t n = static_cast<uint32_t>(data->size());
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<uint8_t>(n >> (8 * i)));
      }
      out.insert(out.end(), data->begin(), data->end());
    }
  }
}

}  // namespace

Status PaxWrite(os::UnixEnv& env, const std::string& dir, const std::string& archive) {
  std::vector<uint8_t> out;
  Status err = Status::kOk;
  PaxCollect(env, dir, "", out, &err);
  if (err != Status::kOk) {
    return err;
  }
  out.push_back(0);  // end marker
  env.TouchData(out.size());  // header construction and buffering
  return WriteWhole(env, archive, out);
}

Status PaxRead(os::UnixEnv& env, const std::string& archive, const std::string& dstdir) {
  auto data = ReadWhole(env, archive);
  if (!data.ok()) {
    return data.status();
  }
  Status s = env.Mkdir(dstdir);
  if (s != Status::kOk && s != Status::kAlreadyExists) {
    return s;
  }
  const std::vector<uint8_t>& a = *data;
  size_t pos = 0;
  while (pos < a.size() && a[pos] != 0) {
    uint8_t kind = a[pos];
    if (pos + 3 > a.size()) {
      return Status::kInvalidArgument;
    }
    uint16_t plen = static_cast<uint16_t>(a[pos + 1] | (a[pos + 2] << 8));
    pos += 3;
    if (pos + plen + 4 > a.size()) {
      return Status::kInvalidArgument;
    }
    std::string rpath(reinterpret_cast<const char*>(a.data() + pos), plen);
    pos += plen;
    uint32_t size = 0;
    for (int i = 0; i < 4; ++i) {
      size |= static_cast<uint32_t>(a[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 4;
    if (kind == 2) {
      s = env.Mkdir(dstdir + "/" + rpath);
      if (s != Status::kOk && s != Status::kAlreadyExists) {
        return s;
      }
    } else {
      if (pos + size > a.size()) {
        return Status::kInvalidArgument;
      }
      s = WriteWhole(env, dstdir + "/" + rpath,
                     std::span<const uint8_t>(a.data() + pos, size));
      if (s != Status::kOk) {
        return s;
      }
      pos += size;
    }
  }
  return Status::kOk;
}

Result<int> DiffFile(os::UnixEnv& env, const std::string& a, const std::string& b) {
  auto da = ReadWhole(env, a);
  auto db = ReadWhole(env, b);
  if (!da.ok()) {
    return da.status();
  }
  if (!db.ok()) {
    return db.status();
  }
  env.TouchData(da->size() + db->size());
  return (*da == *db) ? 0 : 1;
}

Result<int> DiffTree(os::UnixEnv& env, const std::string& a, const std::string& b) {
  auto ea = env.ReadDir(a);
  if (!ea.ok()) {
    return ea.status();
  }
  int diffs = 0;
  for (const auto& de : *ea) {
    std::string pa = a + "/" + de.name;
    std::string pb = b + "/" + de.name;
    if (de.is_dir) {
      auto sub = DiffTree(env, pa, pb);
      if (!sub.ok()) {
        return sub;
      }
      diffs += *sub;
    } else {
      auto st = env.Stat(pb);
      if (!st.ok()) {
        ++diffs;
        continue;
      }
      auto d = DiffFile(env, pa, pb);
      if (!d.ok()) {
        return d;
      }
      diffs += *d;
    }
  }
  return diffs;
}

Status GccBuild(os::UnixEnv& env, const std::string& dir) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string path = dir + "/" + de.name;
    if (de.is_dir) {
      Status s = GccBuild(env, path);
      if (s != Status::kOk) {
        return s;
      }
      continue;
    }
    if (de.name.size() < 2 || de.name.substr(de.name.size() - 2) != ".c") {
      continue;
    }
    auto src = ReadWhole(env, path);
    if (!src.ok()) {
      return src.status();
    }
    // Parse + optimize + emit.
    env.Compute(static_cast<sim::Cycles>(static_cast<double>(src->size()) *
                                         kCompileCyclesPerByte));
    // Object file ~40% of source size, content derived from the source (so
    // shorter than it: every index is in range).
    std::vector<uint8_t> obj(src->size() * 2 / 5);
    for (size_t i = 0; i < obj.size(); ++i) {
      obj[i] = static_cast<uint8_t>((*src)[i] * 31 + i);
    }
    std::string opath = path.substr(0, path.size() - 2) + ".o";
    Status s = WriteWhole(env, opath, obj);
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status RmTree(os::UnixEnv& env, const std::string& path) {
  auto st = env.Stat(path);
  if (!st.ok()) {
    return st.status();
  }
  if (!st->is_dir) {
    return env.Unlink(path);
  }
  auto entries = env.ReadDir(path);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    Status s = RmTree(env, path + "/" + de.name);
    if (s != Status::kOk) {
      return s;
    }
  }
  return env.Unlink(path);
}

Status RmByExt(os::UnixEnv& env, const std::string& dir, const std::string& ext) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string path = dir + "/" + de.name;
    if (de.is_dir) {
      Status s = RmByExt(env, path, ext);
      if (s != Status::kOk) {
        return s;
      }
    } else if (de.name.size() >= ext.size() &&
               de.name.compare(de.name.size() - ext.size(), ext.size(), ext) == 0) {
      Status s = env.Unlink(path);
      if (s != Status::kOk) {
        return s;
      }
    }
  }
  return Status::kOk;
}

namespace {

// Newlines in `bytes`, eight at a time: a byte of w ^ "\n\n..." is zero exactly
// where w holds a newline, and the zero-byte test below sets that byte's top bit
// and no other. Each byte lane of `lanes` gains at most 1 per word, so it is
// folded into the total every 255 words, before a lane can overflow.
uint64_t CountNewlines(std::span<const uint8_t> bytes) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr uint64_t kEvenBytes = 0x00ff00ff00ff00ffULL;
  const uint8_t* p = bytes.data();
  const size_t words_end = bytes.size() - bytes.size() % 8;
  uint64_t lines = 0;
  size_t i = 0;
  while (i < words_end) {
    const size_t stop = std::min(words_end, i + 8 * 255);
    uint64_t lanes = 0;
    for (; i < stop; i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, p + i, 8);
      const uint64_t x = w ^ (kOnes * '\n');
      lanes += ~(((x & kLow7) + kLow7) | x | kLow7) >> 7;
    }
    // Up to 8 * 255 newlines: add the lanes in pairs into four 16-bit lanes,
    // then those four into the top one, where the total cannot wrap.
    const uint64_t pairs = (lanes & kEvenBytes) + ((lanes >> 8) & kEvenBytes);
    lines += (pairs * 0x0001000100010001ULL) >> 48;
  }
  for (; i < bytes.size(); ++i) {
    lines += p[i] == '\n' ? 1 : 0;
  }
  return lines;
}

// Counts every position of `text` where `pattern` (non-empty) starts, overlapping
// matches included: memchr finds each candidate first byte, one memcmp confirms it.
uint64_t CountMatches(std::span<const uint8_t> text, const std::string& pattern) {
  const size_t m = pattern.size();
  if (text.size() < m) {
    return 0;
  }
  uint64_t hits = 0;
  const uint8_t* p = text.data();
  const uint8_t* const last = text.data() + (text.size() - m);  // last possible start
  while (p <= last) {
    p = static_cast<const uint8_t*>(
        std::memchr(p, pattern[0], static_cast<size_t>(last - p) + 1));
    if (p == nullptr) {
      break;
    }
    hits += std::memcmp(p + 1, pattern.data() + 1, m - 1) == 0 ? 1 : 0;
    ++p;
  }
  return hits;
}

// 131^k mod 2^64 for k = 0..8.
constexpr std::array<uint64_t, 9> kPow131 = [] {
  std::array<uint64_t, 9> pow{};
  pow[0] = 1;
  for (size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * 131;
  }
  return pow;
}();

// Continues sum = sum * 131 + c over `bytes`. Eight steps of that recurrence fold
// into sum * 131^8 + c0 * 131^7 + ... + c7, which unsigned wrap-around keeps exact
// mod 2^64, so only one multiply per word waits on the previous word.
uint64_t Horner131(uint64_t sum, std::span<const uint8_t> bytes) {
  const uint8_t* d = bytes.data();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    sum = sum * kPow131[8] + d[i] * kPow131[7] + d[i + 1] * kPow131[6] +
          d[i + 2] * kPow131[5] + d[i + 3] * kPow131[4] + d[i + 4] * kPow131[3] +
          d[i + 5] * kPow131[2] + d[i + 6] * kPow131[1] + d[i + 7];
  }
  for (; i < bytes.size(); ++i) {
    sum = sum * 131 + d[i];
  }
  return sum;
}

}  // namespace

Result<uint64_t> Wc(os::UnixEnv& env, const std::string& path) {
  uint64_t lines = 0;
  const Result<uint64_t> size = ScanFile(env, path, [&lines](std::span<const uint8_t> bytes) {
    lines += CountNewlines(bytes);
  });
  if (!size.ok()) {
    return size.status();
  }
  env.TouchData(*size);
  return lines;
}

Result<uint64_t> Grep(os::UnixEnv& env, const std::string& pattern,
                      const std::string& path) {
  // `tail` keeps the last m-1 bytes read. A match that starts there and ends in
  // the next read is counted in `seam`, the tail followed by the next read's
  // first m-1 bytes: too few for a match to start past the tail.
  const size_t keep = pattern.empty() ? 0 : pattern.size() - 1;
  std::vector<uint8_t> tail;
  std::vector<uint8_t> seam;
  uint64_t hits = 0;
  const Result<uint64_t> size = ScanFile(env, path, [&](std::span<const uint8_t> bytes) {
    if (pattern.empty()) {
      return;
    }
    const size_t edge = std::min(keep, bytes.size());
    if (!tail.empty()) {
      seam.assign(tail.begin(), tail.end());
      seam.insert(seam.end(), bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(edge));
      hits += CountMatches(seam, pattern);
    }
    hits += CountMatches(bytes, pattern);
    tail.insert(tail.end(), bytes.end() - static_cast<ptrdiff_t>(edge), bytes.end());
    tail.erase(tail.begin(), tail.end() - static_cast<ptrdiff_t>(std::min(keep, tail.size())));
  });
  if (!size.ok()) {
    return size.status();
  }
  env.TouchData(*size * 2);  // pattern scan is heavier than wc
  return hits;
}

Result<uint64_t> Cksum(os::UnixEnv& env, const std::string& dir, int rounds) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  uint64_t sum = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& de : *entries) {
      if (de.is_dir) {
        continue;
      }
      const Result<uint64_t> size =
          ScanFile(env, dir + "/" + de.name,
                   [&sum](std::span<const uint8_t> bytes) { sum = Horner131(sum, bytes); });
      if (!size.ok()) {
        return size.status();
      }
      env.TouchData(*size);
    }
  }
  return sum;
}

// tsp and sor are cost-modeled: no figure reads their answers, so they only
// charge CPU. Each pass is its own Compute call because the kernel folds pending
// interrupt time into every charge; one merged call would move simulated time.
Result<sim::Cycles> Tsp(os::UnixEnv& env, int ncities, int iterations, uint64_t) {
  // One 2-opt pass is O(n^2) distance evaluations.
  const sim::Cycles pass = static_cast<sim::Cycles>(ncities) * ncities * 18;
  sim::Cycles charged = 0;
  for (int it = 0; it < iterations; ++it) {
    env.Compute(pass);
    charged += pass;
  }
  return charged;
}

Result<sim::Cycles> Sor(os::UnixEnv& env, int n, int iterations) {
  // One relaxation sweep updates each of the n^2 grid points.
  const sim::Cycles sweep = static_cast<sim::Cycles>(n) * n * 14;
  sim::Cycles charged = 0;
  for (int it = 0; it < iterations; ++it) {
    env.Compute(sweep);
    charged += sweep;
  }
  return charged;
}

}  // namespace exo::apps
