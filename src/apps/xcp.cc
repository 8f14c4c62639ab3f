#include "apps/xcp.h"

#include <algorithm>
#include <map>

namespace exo::apps {

Result<XcpStats> Xcp(os::System& sys, os::UnixEnv& env,
                     const std::vector<std::string>& srcs, const std::string& dstdir) {
  if (sys.flavor() != os::Flavor::kXokExos || sys.xn() == nullptr || sys.cffs() == nullptr) {
    return Status::kNotSupported;
  }
  fs::Cffs& cffs = *sys.cffs();
  xn::Xn& xn = *sys.xn();
  auto& kernel = sys.kernel();
  XcpStats stats;

  Status mk = env.Mkdir(dstdir);
  if (mk != Status::kOk && mk != Status::kAlreadyExists) {
    return mk;
  }

  // Pass 1: enumerate every source block with its owning metadata block.
  struct SrcFile {
    uint64_t size = 0;
    std::vector<std::pair<hw::BlockId, hw::BlockId>> blocks;  // (block, parent)
  };
  std::vector<SrcFile> files;
  for (const auto& path : srcs) {
    auto h = cffs.Open(path, /*create=*/false, env.Uid());
    if (!h.ok()) {
      return h.status();
    }
    auto st = cffs.StatHandle(*h);
    if (!st.ok()) {
      return st.status();
    }
    SrcFile f;
    f.size = st->size;
    for (uint32_t i = 0; i < st->nblocks; ++i) {
      auto loc = cffs.BlockAt(*h, i);
      if (!loc.ok()) {
        return loc.status();
      }
      f.blocks.push_back(*loc);
      env.Compute(40);  // schedule construction
    }
    files.push_back(std::move(f));
  }

  // Pass 2: issue sorted asynchronous reads, grouped by owning metadata block (XN
  // proves ownership per parent); contiguous runs become single requests and the
  // disk merges across groups.
  std::map<hw::BlockId, std::vector<hw::BlockId>> by_parent;
  for (const auto& f : files) {
    for (auto [b, parent] : f.blocks) {
      if (xn.registry().Lookup(b) == nullptr) {
        by_parent[parent].push_back(b);
      }
    }
  }
  int outstanding = 0;
  Status first_err = Status::kOk;
  for (auto& [parent, blocks] : by_parent) {
    std::sort(blocks.begin(), blocks.end());
    std::vector<hw::FrameId> frames;
    frames.reserve(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      auto fr = kernel.SysFrameAlloc(0, xok::CapName{xok::kCapFs, 1});
      if (!fr.ok()) {
        return fr.status();
      }
      frames.push_back(*fr);
    }
    ++outstanding;
    Status s = xn.ReadAndInsert(parent, blocks, frames,
                                xn::Caps{xok::Capability::For({xok::kCapFs, 1})},
                                [&outstanding, &first_err](Status st) {
                                  if (st != Status::kOk) {
                                    first_err = st;
                                  }
                                  --outstanding;
                                });
    for (hw::FrameId fr : frames) {
      // Registry holds its own reference now; return ours through the kernel so
      // the caller env's ledger is debited.
      kernel.FrameUnref(fr, kernel.current_id());
    }
    if (s != Status::kOk) {
      return s;
    }
    ++stats.read_requests;
  }

  // Pass 3 (overlapped with the reads): create destination files at full size,
  // placed in one contiguous region so the writes are sequential.
  struct DstFile {
    uint64_t handle = 0;
    const SrcFile* src = nullptr;
  };
  std::vector<DstFile> dsts;
  hw::BlockId hint = hw::kInvalidBlock;
  for (const auto& path : srcs) {
    auto leaf_pos = path.rfind('/');
    std::string leaf = leaf_pos == std::string::npos ? path : path.substr(leaf_pos + 1);
    const SrcFile& src = files[dsts.size()];
    auto dh = cffs.CreateSized(dstdir + "/" + leaf, env.Uid(), src.size, hint);
    if (!dh.ok()) {
      return dh.status();
    }
    if (!src.blocks.empty()) {
      auto first = cffs.BlockAt(*dh, 0);
      if (first.ok()) {
        hint = first->first + static_cast<hw::BlockId>(src.blocks.size());
      }
    }
    dsts.push_back({*dh, &src});
  }

  // Wait for all reads to land (wakeup-predicate-style block on the registry).
  {
    xok::WakeupPredicate p;
    p.host = [&outstanding] { return outstanding == 0; };
    if (outstanding > 0) {
      kernel.SysSleep(std::move(p));
    }
  }
  if (first_err != Status::kOk) {
    return first_err;
  }

  // Pass 4: bind the source cache frames to the destination blocks (no copy!) and
  // flush them in one large schedule.
  std::vector<hw::BlockId> to_write;
  for (const auto& d : dsts) {
    for (uint32_t i = 0; i < d.src->blocks.size(); ++i) {
      auto dloc = cffs.BlockAt(d.handle, i);
      if (!dloc.ok()) {
        return dloc.status();
      }
      const xn::RegistryEntry* se = xn.registry().Lookup(d.src->blocks[i].first);
      EXO_CHECK(se != nullptr);
      Status s = xn.InsertMapping(dloc->first, dloc->second, se->frame, /*dirty=*/true,
                                  xn::Caps{xok::Capability::For({xok::kCapFs, 1})});
      if (s != Status::kOk) {
        return s;
      }
      to_write.push_back(dloc->first);
      ++stats.blocks_copied;
      env.Compute(40);
    }
  }
  std::sort(to_write.begin(), to_write.end());
  if (!to_write.empty()) {
    if (Status s = xn.Write(to_write, [](Status) {}); s != Status::kOk) {
      return s;
    }
  }
  return stats;
}

}  // namespace exo::apps
