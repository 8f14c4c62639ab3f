// Custom file system example: define a brand-new on-disk format and let XN protect
// it — no kernel changes, no privilege (the paper's central claim, Sec. 4).
//
// The format, "loglist", is a persistent append-only list: one root metadata block
// holding a count and up to 1019 data-block pointers. Its owns-udf is ~10
// instructions of UDF assembly. XN verifies every allocation against it, shares the
// disk with a C-FFS instance, and garbage-collects it correctly after a crash.
#include <cstdio>
#include <cstring>

#include "fs/cffs.h"
#include "fs/xn_backend.h"
#include "hw/machine.h"
#include "udf/assembler.h"
#include "xn/xn.h"

using namespace exo;

int main() {
  sim::Engine engine;
  hw::MachineConfig cfg;
  cfg.mem_frames = 4096;
  cfg.disks = {hw::DiskGeometry{.num_blocks = 16384}};
  hw::Machine machine(&engine, cfg);

  xn::Xn xn(&machine, &machine.disk());
  xn.Format();
  EXO_CHECK(xn.Attach() == Status::kOk);

  const fs::Blocker pump = fs::SpinEngine(engine);

  // A C-FFS lives on the same disk — two radically different file systems
  // multiplexing one device at block granularity.
  fs::XnBackend cffs_backend(&xn, {xok::Capability::For({xok::kCapFs, 1})}, pump, [&] {
    auto f = machine.mem().Alloc();
    return f.ok() ? *f : hw::kInvalidFrame;
  });
  fs::Cffs cffs(&cffs_backend, fs::CffsOptions{.fsid = 1});
  EXO_CHECK(cffs.Mkfs() == Status::kOk);
  auto h = cffs.Create("/neighbour.txt", 7);
  EXO_CHECK(h.ok());
  std::vector<uint8_t> note = {'h', 'i'};
  EXO_CHECK(cffs.Write(*h, 0, note, 7).ok());
  std::printf("C-FFS mounted and populated alongside us\n");

  // ---- Define the new format ----
  // owns-udf: count at offset 0; u32 pointers from offset 4; children are raw data.
  auto owns = udf::Assemble(R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta
      ldi r3, 4
      ldi r4, 1
      ldi r5, 0
      bz r2, done
    loop:
      ld4 r6, r3, 0, meta
      emit r6, r4, r5
      addi r3, r3, 4
      addi r2, r2, -1
      bnz r2, loop
    done:
      ret r0
  )");
  xn::Template t;
  t.name = "loglist-root";
  t.is_metadata = true;
  t.owns_udf = owns.program;
  auto tmpl = xn.InstallTemplate(t);
  std::printf("installed template '%s' -> id %u (owns-udf verified deterministic)\n",
              t.name.c_str(), *tmpl);

  auto root = xn.RegisterRoot("loglist", *tmpl, /*temporary=*/false);
  std::printf("registered persistent root at block %u\n", root->block);

  auto frame = machine.mem().Alloc();
  Status loaded = Status::kWouldBlock;
  EXO_CHECK(xn.LoadRoot("loglist", *frame, {}, [&](Status s) { loaded = s; }) == Status::kOk);
  pump([&] { return loaded != Status::kWouldBlock; });

  // Append three entries: allocate a data block via a verified metadata update.
  xn::Caps creds = {xok::Capability::Root()};
  std::vector<hw::BlockId> entries;
  for (uint32_t i = 0; i < 3; ++i) {
    auto b = xn.free_map().FindFreeRun(xn.free_map().first_data_block(), 1);
    entries.push_back(*b);
    xn::Mods mods;
    mods.push_back({0, {static_cast<uint8_t>(i + 1), 0, 0, 0}});            // count
    mods.push_back({4 + i * 4,
                    {static_cast<uint8_t>(*b), static_cast<uint8_t>(*b >> 8),
                     static_cast<uint8_t>(*b >> 16), static_cast<uint8_t>(*b >> 24)}});
    std::vector<udf::Extent> ext = {{*b, 1, xn::kDataTemplate}};
    Status s = xn.Alloc(root->block, mods, ext, creds);
    std::printf("append entry %u -> block %u: %s\n", i, *b, StatusName(s));
    EXO_CHECK(s == Status::kOk);

    // Put real bytes in it and flush, child before parent (XN enforces ordering).
    auto df = machine.mem().Alloc();
    std::snprintf(reinterpret_cast<char*>(machine.mem().Data(*df).data()), 64,
                  "log entry %u", i);
    EXO_CHECK(xn.InsertMapping(*b, root->block, *df, /*dirty=*/true, creds) == Status::kOk);
    bool done = false;
    EXO_CHECK(xn.Write(std::vector<hw::BlockId>{*b}, [&](Status) { done = true; }) ==
              Status::kOk);
    pump([&] { return done; });
  }
  bool root_done = false;
  EXO_CHECK(xn.Write(std::vector<hw::BlockId>{root->block}, [&](Status) {
              root_done = true;
            }) == Status::kOk);
  pump([&] { return root_done; });

  // A delta mismatch is caught: claim block X, point at block Y.
  auto bx = xn.free_map().FindFreeRun(xn.free_map().first_data_block(), 1);
  auto by = xn.free_map().FindFreeRun(*bx + 1, 1);
  xn::Mods evil;
  evil.push_back({0, {4, 0, 0, 0}});
  evil.push_back({16, {static_cast<uint8_t>(*by), static_cast<uint8_t>(*by >> 8), 0, 0}});
  std::vector<udf::Extent> claim = {{*bx, 1, xn::kDataTemplate}};
  const Status lie = xn.Alloc(root->block, evil, claim, creds);
  std::printf("lying allocation rejected: %s\n", StatusName(lie));
  EXO_CHECK(lie == Status::kBadMetadata);

  // Crash and recover: the reachability GC keeps exactly our blocks (and C-FFS's).
  xn.Crash();
  xn::Xn reborn(&machine, &machine.disk());
  EXO_CHECK(reborn.Attach() == Status::kOk);
  std::printf("after crash: recovered=%s, loglist root still registered=%s\n",
              reborn.recovered_after_crash() ? "yes" : "no",
              reborn.LookupRoot("loglist").ok() ? "yes" : "no");
  EXO_CHECK(reborn.recovered_after_crash() && reborn.LookupRoot("loglist").ok());
  for (hw::BlockId b : entries) {
    EXO_CHECK(reborn.free_map().IsAllocated(b));
  }
  std::printf("all %zu entry blocks still allocated; entry 0 reads \"%s\"\n", entries.size(),
              reinterpret_cast<const char*>(machine.disk().RawBlock(entries[0]).data()));
  return 0;
}
