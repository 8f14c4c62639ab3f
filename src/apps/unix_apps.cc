#include "apps/unix_apps.h"

#include <algorithm>
#include <cstring>

#include "apps/lz.h"

namespace exo::apps {

namespace {

Result<std::vector<uint8_t>> ReadWhole(os::UnixEnv& env, const std::string& path) {
  auto fd = env.Open(path, false);
  if (!fd.ok()) {
    return fd.status();
  }
  std::vector<uint8_t> out;
  std::vector<uint8_t> chunk(kIoChunk);
  for (;;) {
    auto n = env.Read(*fd, chunk);
    if (!n.ok()) {
      env.Close(*fd);
      return n.status();
    }
    if (*n == 0) {
      break;
    }
    out.insert(out.end(), chunk.begin(), chunk.begin() + *n);
  }
  env.Close(*fd);
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

Result<uint64_t> Wc(os::UnixEnv& env, const std::string& path) {
  auto data = ReadWhole(env, path);
  if (!data.ok()) {
    return data.status();
  }
  env.TouchData(data->size());
  uint64_t lines = 0;
  for (uint8_t c : *data) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

Result<uint64_t> Grep(os::UnixEnv& env, const std::string& pattern,
                      const std::string& path) {
  auto data = ReadWhole(env, path);
  if (!data.ok()) {
    return data.status();
  }
  env.TouchData(data->size() * 2);  // pattern scan is heavier than wc
  uint64_t hits = 0;
  if (pattern.empty() || data->size() < pattern.size()) {
    return hits;
  }
  for (size_t i = 0; i + pattern.size() <= data->size(); ++i) {
    if (std::memcmp(data->data() + i, pattern.data(), pattern.size()) == 0) {
      ++hits;
    }
  }
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
      auto data = ReadWhole(env, dir + "/" + de.name);
      if (!data.ok()) {
        return data.status();
      }
      env.TouchData(data->size());
      for (uint8_t c : *data) {
        sum = sum * 131 + c;
      }
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
