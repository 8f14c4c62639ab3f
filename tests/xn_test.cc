// Tests for XN: templates, the buffer-cache registry, the UDF-verified alloc/dealloc
// protocol, ordered writes (taint tracking, will-free), and crash-recovery GC.
//
// The tests define a miniature libFS metadata format, "tnode": a block holding a u32
// child count at offset 0 followed by u32 child block pointers at offset 4. One
// template types children as raw data; a second types them as tnodes (for trees).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "hw/machine.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "udf/assembler.h"
#include "udf/vm.h"
#include "xn/registry.h"
#include "xn/types.h"
#include "xn/xn.h"

namespace exo::xn {
namespace {

using hw::BlockId;
using hw::FrameId;

udf::Program TnodeOwns(uint32_t child_type) {
  char src[512];
  std::snprintf(src, sizeof(src), R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta     ; count
      ldi r3, 4               ; pointer offset
      ldi r4, 1               ; extent length
      ldi r5, %u              ; child template type
      bz r2, done
    loop:
      ld4 r6, r3, 0, meta
      emit r6, r4, r5
      addi r3, r3, 4
      addi r2, r2, -1
      bnz r2, loop
    done:
      ret r0
  )", child_type);
  auto r = udf::Assemble(src);
  EXO_CHECK(r.ok);
  return r.program;
}

// Approves callers whose first credential is writable and rooted at name part 7.
udf::Program RequireCap7Acl() {
  auto r = udf::Assemble(R"(
      ldi r1, 0
      ld2 r2, r1, 0, cred     ; cap count
      bz r2, deny
      ldi r3, 2
      ld1 r4, r3, 0, cred     ; write flag of cap 0
      ld2 r5, r3, 3, cred     ; first name part of cap 0
      ldi r6, 7
      ceq r7, r5, r6
      and r8, r7, r4
      ret r8
    deny:
      ldi r0, 0
      ret r0
  )");
  EXO_CHECK(r.ok);
  return r.program;
}

udf::Program SizeUf() {
  auto r = udf::Assemble("ldi r1, 4096\nret r1\n");
  EXO_CHECK(r.ok);
  return r.program;
}

// A typed tnode: a u32 child count at offset 0, then (u32 pointer, u32 child
// template) pairs from offset 4, so the image itself says what each child is.
udf::Program TypedTnodeOwns() {
  auto r = udf::Assemble(R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta     ; count
      ldi r3, 4               ; entry offset
      ldi r4, 1               ; extent length
      bz r2, done
    loop:
      ld4 r5, r3, 0, meta     ; pointer
      ld4 r6, r3, 4, meta     ; child template type
      emit r5, r4, r6
      addi r3, r3, 8
      addi r2, r2, -1
      bnz r2, loop
    done:
      ret r0
  )");
  EXO_CHECK(r.ok);
  return r.program;
}

ByteMod U32Mod(uint32_t offset, uint32_t v) {
  ByteMod m;
  m.offset = offset;
  m.bytes = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
             static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
  return m;
}

Mods SetCount(uint32_t count) { return {U32Mod(0, count)}; }

ByteMod SetPtr(uint32_t index, BlockId b) { return U32Mod(4 + index * 4, b); }

class XnTest : public ::testing::Test {
 protected:
  XnTest()
      : machine_(&engine_, hw::MachineConfig{.mem_frames = 512,
                                             .disks = {hw::DiskGeometry{.num_blocks = 2048}}}),
        xn_(&machine_, &machine_.disk()) {
    xn_.Format();
    EXPECT_EQ(xn_.Attach(), Status::kOk);

    Template leaf;  // tnode whose children are raw data blocks
    leaf.name = "tnode-leaf";
    leaf.is_metadata = true;
    leaf.owns_udf = TnodeOwns(kDataTemplate);
    leaf.acl_uf = RequireCap7Acl();
    leaf.size_uf = SizeUf();
    auto lt = xn_.InstallTemplate(leaf);
    EXPECT_TRUE(lt.ok());
    leaf_tmpl_ = *lt;

    Template inner;  // tnode whose children are leaf tnodes
    inner.name = "tnode-inner";
    inner.is_metadata = true;
    inner.owns_udf = TnodeOwns(leaf_tmpl_);
    inner.acl_uf = RequireCap7Acl();
    inner.size_uf = SizeUf();
    auto it = xn_.InstallTemplate(inner);
    EXPECT_TRUE(it.ok());
    inner_tmpl_ = *it;

    good_creds_ = {xok::Capability::For({7, 1})};
    bad_creds_ = {xok::Capability::For({8, 1})};
  }

  FrameId NewFrame() {
    auto f = machine_.mem().Alloc();
    EXO_CHECK(f.ok());
    return *f;
  }

  // Creates a root, loads it, and returns its block.
  BlockId MakeRoot(const std::string& name, TemplateId tmpl, bool temporary = false) {
    auto r = xn_.RegisterRoot(name, tmpl, temporary);
    EXO_CHECK(r.ok());
    Status s = Status::kNotFound;
    EXO_CHECK_EQ(xn_.LoadRoot(name, NewFrame(), good_creds_, [&](Status st) { s = st; }),
                 Status::kOk);
    engine_.RunUntilIdle();
    EXO_CHECK_EQ(s, Status::kOk);
    return r->block;
  }

  // Allocates `n` data children under `meta` (a leaf tnode with `existing` children).
  std::vector<BlockId> AllocChildren(BlockId meta, uint32_t existing, uint32_t n,
                                     TemplateId type = kDataTemplate) {
    std::vector<BlockId> out;
    Mods mods = SetCount(existing + n);
    std::vector<udf::Extent> extents;
    BlockId hint = xn_.free_map().first_data_block();
    for (uint32_t i = 0; i < n; ++i) {
      auto b = xn_.free_map().FindFreeRun(hint, 1);
      EXO_CHECK(b.ok());
      hint = *b + 1;
      mods.push_back(SetPtr(existing + i, *b));
      extents.push_back({*b, 1, type});
      out.push_back(*b);
    }
    EXO_CHECK_EQ(xn_.Alloc(meta, mods, extents, good_creds_), Status::kOk);
    return out;
  }

  // Allocates `n` children under the empty tnode `meta`, storing and claiming
  // them in descending block order; returns them in that order.
  std::vector<BlockId> AllocDescending(BlockId meta, uint32_t n, TemplateId type) {
    std::vector<BlockId> out;
    BlockId hint = xn_.free_map().first_data_block();
    for (uint32_t i = 0; i < n; ++i) {
      auto b = xn_.free_map().FindFreeRun(hint, 1);
      EXO_CHECK(b.ok());
      hint = *b + 1;
      out.insert(out.begin(), *b);
    }
    Mods mods = SetCount(n);
    std::vector<udf::Extent> extents;
    for (uint32_t i = 0; i < n; ++i) {
      mods.push_back(SetPtr(i, out[i]));
      extents.push_back({out[i], 1, type});
    }
    EXO_CHECK_EQ(xn_.Alloc(meta, mods, extents, good_creds_), Status::kOk);
    return out;
  }

  // Installs a zeroed (so empty, initialized) dirty copy of tnode `b` under `parent`.
  void InsertEmptyTnode(BlockId b, BlockId parent) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0, 4096);
    EXO_CHECK_EQ(xn_.InsertMapping(b, parent, f, /*dirty=*/true, good_creds_), Status::kOk);
  }

  // The cached frame of registered block `b`. Tests write it directly to stage
  // an image that no XN call produced.
  std::span<uint8_t> CachedFrame(BlockId b) {
    return machine_.mem().Data(xn_.registry().Lookup(b)->frame);
  }

  // Stages the tnode image {count, pointers...} in `b`'s cached frame.
  void StageTnode(BlockId b, const std::vector<BlockId>& pointers) {
    std::span<uint8_t> image = CachedFrame(b);
    std::memset(image.data(), 0, image.size());
    const uint32_t count = static_cast<uint32_t>(pointers.size());
    std::memcpy(image.data(), &count, 4);
    for (size_t i = 0; i < pointers.size(); ++i) {
      std::memcpy(image.data() + 4 + 4 * i, &pointers[i], 4);
    }
  }

  // Calls InsertMapping of a block `parent` does not own twice on its current
  // image, which runs `parent`'s owns-udf (`owns`) and nothing else. Both calls
  // return `want`, charge the syscall plus one interpreted run over the image
  // and count one run; only the second is a memo hit.
  void ExpectRunThenReplay(BlockId parent, const udf::Program& owns, Status want) {
    udf::RunInput in;
    in.buffers[udf::kBufMeta] = CachedFrame(parent);
    const sim::CostModel& c = machine_.cost();
    const sim::Cycles charge = c.trap_round_trip + c.xok_syscall_check + c.udf_setup +
                               udf::Run(owns, in).insns * c.downloaded_insn;
    const FrameId f = NewFrame();
    for (uint64_t hits : {0u, 1u}) {
      const sim::Cycles t0 = engine_.now();
      const XnStats s0 = xn_.stats();
      EXPECT_EQ(xn_.InsertMapping(kUnowned, parent, f, /*dirty=*/true, good_creds_), want);
      EXPECT_EQ(engine_.now() - t0, charge);
      EXPECT_EQ(xn_.stats().udf_runs - s0.udf_runs, 1u);
      EXPECT_EQ(xn_.stats().owns_memo_hits - s0.owns_memo_hits, hits);
    }
  }

  // A block no staged image names.
  static constexpr BlockId kUnowned = 2000;

  Status FlushAll(std::vector<BlockId> blocks) {
    Status s = Status::kNotFound;
    Status submit = xn_.Write(blocks, [&](Status st) { s = st; });
    if (submit != Status::kOk) {
      return submit;
    }
    engine_.RunUntilIdle();
    return s;
  }

  sim::Engine engine_;
  hw::Machine machine_;
  Xn xn_;
  TemplateId leaf_tmpl_ = kInvalidTemplate;
  TemplateId inner_tmpl_ = kInvalidTemplate;
  Caps good_creds_;
  Caps bad_creds_;
};

TEST_F(XnTest, TemplatesPersistAcrossAttach) {
  xn_.Detach();
  Xn other(&machine_, &machine_.disk());
  EXPECT_EQ(other.Attach(), Status::kOk);
  EXPECT_FALSE(other.recovered_after_crash());
  auto t = other.LookupTemplate("tnode-leaf");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, leaf_tmpl_);
  const Template* tp = other.FindTemplate(*t);
  ASSERT_NE(tp, nullptr);
  EXPECT_TRUE(tp->is_metadata);
  EXPECT_EQ(tp->owns_udf.size(), TnodeOwns(kDataTemplate).size());
}

TEST_F(XnTest, TemplatesAreImmutableOnceInstalled) {
  Template again;
  again.name = "tnode-leaf";
  again.is_metadata = true;
  again.owns_udf = TnodeOwns(kDataTemplate);
  EXPECT_EQ(xn_.InstallTemplate(again).status(), Status::kAlreadyExists);
}

TEST_F(XnTest, NondeterministicOwnsUdfRejected) {
  auto bad = udf::Assemble("time r1\nemit r1, r1, r1\nret r0\n");
  ASSERT_TRUE(bad.ok);
  Template t;
  t.name = "evil";
  t.is_metadata = true;
  t.owns_udf = bad.program;
  EXPECT_EQ(xn_.InstallTemplate(t).status(), Status::kVerifierReject);
  // acl-uf, by contrast, may read the clock.
  Template ok;
  ok.name = "timed-acl";
  ok.is_metadata = true;
  ok.owns_udf = TnodeOwns(kDataTemplate);
  ok.acl_uf = bad.program;
  EXPECT_TRUE(xn_.InstallTemplate(ok).ok());
}

TEST_F(XnTest, RootRegistrationAllocatesAndPersists) {
  auto r = xn_.RegisterRoot("myfs", leaf_tmpl_, /*temporary=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(xn_.free_map().IsAllocated(r->block));
  EXPECT_EQ(xn_.RegisterRoot("myfs", leaf_tmpl_, false).status(), Status::kAlreadyExists);

  auto tmp = xn_.RegisterRoot("scratch", leaf_tmpl_, /*temporary=*/true);
  ASSERT_TRUE(tmp.ok());

  xn_.Detach();
  Xn other(&machine_, &machine_.disk());
  EXPECT_EQ(other.Attach(), Status::kOk);
  EXPECT_TRUE(other.LookupRoot("myfs").ok());
  // Temporary file systems do not survive (Sec. 4.3.2).
  EXPECT_EQ(other.LookupRoot("scratch").status(), Status::kNotFound);
}

TEST_F(XnTest, AllocatesExactlyClaimedBlocks) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  uint32_t free_before = xn_.free_map().free_count();
  auto kids = AllocChildren(root, 0, 3);
  EXPECT_EQ(xn_.free_map().free_count(), free_before - 3);
  for (BlockId b : kids) {
    EXPECT_TRUE(xn_.free_map().IsAllocated(b));
  }
  // The registry entry for the root is now dirty with count=3.
  auto bytes = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[0], 3);
}

TEST_F(XnTest, AllocRejectsDeltaMismatch) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto b1 = xn_.free_map().FindFreeRun(xn_.free_map().first_data_block(), 1);
  auto b2 = xn_.free_map().FindFreeRun(*b1 + 1, 1);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  // Claim we are allocating b2 but actually write a pointer to b1.
  Mods mods = SetCount(1);
  mods.push_back(SetPtr(0, *b1));
  std::vector<udf::Extent> claim = {{*b2, 1, kDataTemplate}};
  EXPECT_EQ(xn_.Alloc(root, mods, claim, good_creds_), Status::kBadMetadata);
  // Nothing was mutated by the failed attempt.
  EXPECT_FALSE(xn_.free_map().IsAllocated(*b1));
  EXPECT_FALSE(xn_.free_map().IsAllocated(*b2));
  auto bytes = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[0], 0);
}

TEST_F(XnTest, AllocRejectsAlreadyAllocatedBlock) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  // A second tree trying to claim the same block is refused by the free-map check.
  BlockId root2 = MakeRoot("fs2", leaf_tmpl_);
  Mods mods = SetCount(1);
  mods.push_back(SetPtr(0, kids[0]));
  std::vector<udf::Extent> claim = {{kids[0], 1, kDataTemplate}};
  EXPECT_EQ(xn_.Alloc(root2, mods, claim, good_creds_), Status::kOutOfResources);
}

TEST_F(XnTest, AclUfDeniesWrongCredentials) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto b = xn_.free_map().FindFreeRun(xn_.free_map().first_data_block(), 1);
  Mods mods = SetCount(1);
  mods.push_back(SetPtr(0, *b));
  std::vector<udf::Extent> claim = {{*b, 1, kDataTemplate}};
  EXPECT_EQ(xn_.Alloc(root, mods, claim, bad_creds_), Status::kPermissionDenied);
  EXPECT_EQ(xn_.Alloc(root, mods, claim, good_creds_), Status::kOk);
}

TEST_F(XnTest, ModifyMustPreserveOwnership) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  AllocChildren(root, 0, 1);
  // Rewriting unused tail bytes is fine.
  ByteMod scribble;
  scribble.offset = 2000;
  scribble.bytes = {1, 2, 3};
  EXPECT_EQ(xn_.Modify(root, {scribble}, good_creds_), Status::kOk);
  // Bumping the count (which would claim another pointer) is not a Modify.
  EXPECT_EQ(xn_.Modify(root, SetCount(2), good_creds_), Status::kBadMetadata);
}

TEST_F(XnTest, WriteRefusedWhileChildUninitialized) {
  BlockId root = MakeRoot("fs", inner_tmpl_);
  auto kids = AllocChildren(root, 0, 1, leaf_tmpl_);  // metadata child: uninitialized

  EXPECT_EQ(FlushAll({root}), Status::kTainted);

  // Give the child a mapping and initialize it, then flush child before parent.
  EXPECT_EQ(xn_.InsertMapping(kids[0], root, NewFrame(), /*dirty=*/true, good_creds_),
            Status::kOk);
  std::memset(machine_.mem().Data(xn_.registry().Lookup(kids[0])->frame).data(), 0, 4096);
  EXPECT_EQ(FlushAll({kids[0]}), Status::kOk);
  EXPECT_EQ(FlushAll({root}), Status::kOk);
  EXPECT_GE(xn_.stats().taint_rejections, 1u);
}

TEST_F(XnTest, TemporaryTreeSkipsOrderingRules) {
  BlockId root = MakeRoot("tmpfs", inner_tmpl_, /*temporary=*/true);
  AllocChildren(root, 0, 1, leaf_tmpl_);
  // Parent write with an uninitialized child is fine on a temporary file system.
  EXPECT_EQ(FlushAll({root}), Status::kOk);
}

TEST_F(XnTest, DataRoundTripsThroughDisk) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 2);

  // Write data into the children via direct installs.
  for (size_t i = 0; i < kids.size(); ++i) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0x30 + static_cast<int>(i), 4096);
    ASSERT_EQ(xn_.InsertMapping(kids[i], root, f, /*dirty=*/true, good_creds_), Status::kOk);
  }
  ASSERT_EQ(FlushAll({kids[0], kids[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  // Drop the cached children and read them back through the parent.
  ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);
  ASSERT_EQ(xn_.RemoveMapping(kids[1]), Status::kOk);
  std::vector<FrameId> frames = {NewFrame(), NewFrame()};
  Status done = Status::kNotFound;
  ASSERT_EQ(xn_.ReadAndInsert(root, kids, frames, good_creds_,
                              [&](Status s) { done = s; }),
            Status::kOk);
  engine_.RunUntilIdle();
  ASSERT_EQ(done, Status::kOk);
  EXPECT_EQ(machine_.mem().Data(frames[0])[10], 0x30);
  EXPECT_EQ(machine_.mem().Data(frames[1])[10], 0x31);
}

TEST_F(XnTest, ContiguousFlushGathersIntoFewRequests) {
  // A flush of N contiguous dirty blocks must reach the disk as a scatter-gather
  // run, not N single-block submissions: at most two requests (the head block
  // dispatches immediately off an idle disk; the rest ride as one gathered tail).
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 8);
  for (size_t i = 1; i < kids.size(); ++i) {
    ASSERT_EQ(kids[i], kids[i - 1] + 1);  // fresh format: allocation is contiguous
  }
  for (size_t i = 0; i < kids.size(); ++i) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0x60 + static_cast<int>(i), 4096);
    ASSERT_EQ(xn_.InsertMapping(kids[i], root, f, /*dirty=*/true, good_creds_), Status::kOk);
  }
  const uint64_t requests0 = machine_.disk().stats().requests;
  ASSERT_EQ(FlushAll(kids), Status::kOk);
  EXPECT_LE(machine_.disk().stats().requests - requests0, 2u);
  for (size_t i = 0; i < kids.size(); ++i) {
    EXPECT_EQ(machine_.disk().RawBlock(kids[i])[5], 0x60 + static_cast<int>(i));
  }
}

TEST_F(XnTest, ReadAndInsertDeniedForForeignBlocks) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  AllocChildren(root, 0, 1);
  BlockId root2 = MakeRoot("fs2", leaf_tmpl_);
  auto kids2 = AllocChildren(root2, 0, 1);

  std::vector<FrameId> frames = {NewFrame()};
  // root does not own root2's child.
  EXPECT_EQ(xn_.ReadAndInsert(root, kids2, frames, good_creds_, {}),
            Status::kPermissionDenied);
  // And good blocks with bad credentials fail the acl-uf.
  auto kids = AllocChildren(root, 1, 1);
  EXPECT_EQ(xn_.ReadAndInsert(root, kids, frames, bad_creds_, {}),
            Status::kPermissionDenied);
}

TEST_F(XnTest, InsertMappingRequiresWriteAccess) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  EXPECT_EQ(xn_.InsertMapping(kids[0], root, NewFrame(), true, bad_creds_),
            Status::kPermissionDenied);
}

TEST_F(XnTest, DeallocDefersReuseUntilParentWritten) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  ASSERT_EQ(FlushAll({root}), Status::kOk);  // pointer to kid now on disk

  // Dealloc: remove pointer, count back to 0.
  Mods mods = SetCount(0);
  std::vector<udf::Extent> extents = {{kids[0], 1, kDataTemplate}};
  ASSERT_EQ(xn_.Dealloc(root, mods, extents, good_creds_), Status::kOk);

  // The block must NOT be reusable yet: its pointer is still on disk (rule 1).
  EXPECT_TRUE(xn_.free_map().IsAllocated(kids[0]));
  EXPECT_GE(xn_.stats().will_free_deferrals, 1u);

  // After the parent's new image (without the pointer) reaches disk, it frees.
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  EXPECT_FALSE(xn_.free_map().IsAllocated(kids[0]));
}

TEST_F(XnTest, DeallocOfNeverWrittenPointerFreesImmediately) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);  // parent never flushed
  Mods mods = SetCount(0);
  std::vector<udf::Extent> extents = {{kids[0], 1, kDataTemplate}};
  ASSERT_EQ(xn_.Dealloc(root, mods, extents, good_creds_), Status::kOk);
  EXPECT_FALSE(xn_.free_map().IsAllocated(kids[0]));
}

TEST_F(XnTest, LockedEntriesCannotBeWritten) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  AllocChildren(root, 0, 1);
  ASSERT_EQ(xn_.Lock(root, /*owner=*/5), Status::kOk);
  EXPECT_EQ(xn_.Lock(root, /*owner=*/6), Status::kBusy);
  EXPECT_EQ(xn_.Write(std::vector<BlockId>{root}, {}), Status::kBusy);
  EXPECT_EQ(xn_.Unlock(root, 6), Status::kPermissionDenied);
  ASSERT_EQ(xn_.Unlock(root, 5), Status::kOk);
  EXPECT_EQ(FlushAll({root}), Status::kOk);
}

TEST_F(XnTest, RawReadThenBindToParent) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  FrameId f = NewFrame();
  std::memset(machine_.mem().Data(f).data(), 0x5c, 4096);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, f, true, good_creds_), Status::kOk);
  ASSERT_EQ(FlushAll({kids[0]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);

  // Speculatively read the block before naming its parent.
  Status s = Status::kNotFound;
  ASSERT_EQ(xn_.RawRead(kids[0], NewFrame(), [&](Status st) { s = st; }), Status::kOk);
  engine_.RunUntilIdle();
  ASSERT_EQ(s, Status::kOk);
  EXPECT_EQ(xn_.registry().Lookup(kids[0])->tmpl, kInvalidTemplate);

  ASSERT_EQ(xn_.BindToParent(root, kids[0], good_creds_), Status::kOk);
  EXPECT_EQ(xn_.registry().Lookup(kids[0])->tmpl, kDataTemplate);
}

TEST_F(XnTest, RecycleOldestReturnsLruCleanBuffer) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 3);
  for (BlockId b : kids) {
    ASSERT_EQ(xn_.InsertMapping(b, root, NewFrame(), true, good_creds_), Status::kOk);
  }
  ASSERT_EQ(FlushAll({kids[0], kids[1], kids[2]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  // kids[0] has the oldest stamp among clean entries... but root was installed first.
  // Lock the root so the recycler must pick the oldest child.
  ASSERT_EQ(xn_.Lock(root, /*owner=*/5), Status::kOk);
  auto f = xn_.RecycleOldest();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(xn_.registry().Lookup(kids[0]), nullptr);
}

TEST_F(XnTest, CrashRecoveryRebuildsFreeMap) {
  BlockId root = MakeRoot("fs", inner_tmpl_);
  auto leaves = AllocChildren(root, 0, 2, leaf_tmpl_);
  // Initialize both leaves; give leaf 0 one data child.
  for (BlockId l : leaves) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0, 4096);
    ASSERT_EQ(xn_.InsertMapping(l, root, f, true, good_creds_), Status::kOk);
  }
  auto data = AllocChildren(leaves[0], 0, 1);
  FrameId df = NewFrame();
  std::memset(machine_.mem().Data(df).data(), 0xd7, 4096);
  ASSERT_EQ(xn_.InsertMapping(data[0], leaves[0], df, true, good_creds_), Status::kOk);

  // Flush bottom-up so everything is on disk.
  ASSERT_EQ(FlushAll({data[0]}), Status::kOk);
  ASSERT_EQ(FlushAll({leaves[0], leaves[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  // Allocate one more data block but crash before ANY of it reaches disk.
  auto lost = AllocChildren(leaves[1], 0, 1);
  EXPECT_TRUE(xn_.free_map().IsAllocated(lost[0]));

  xn_.Crash();
  Xn reborn(&machine_, &machine_.disk());
  ASSERT_EQ(reborn.Attach(), Status::kOk);
  EXPECT_TRUE(reborn.recovered_after_crash());

  // Reachable blocks stay allocated; the lost allocation was garbage-collected.
  EXPECT_TRUE(reborn.free_map().IsAllocated(root));
  EXPECT_TRUE(reborn.free_map().IsAllocated(leaves[0]));
  EXPECT_TRUE(reborn.free_map().IsAllocated(leaves[1]));
  EXPECT_TRUE(reborn.free_map().IsAllocated(data[0]));
  EXPECT_FALSE(reborn.free_map().IsAllocated(lost[0]));
  // And the data content survived.
  EXPECT_EQ(machine_.disk().RawBlock(data[0])[100], 0xd7);
}

// Crash with metadata that is dirty in core but unflushed, plus a dealloc still on
// the will-free list. The recovered free map must equal what an independent
// traversal of the raw on-disk images computes — not what the pre-crash volatile
// state believed.
TEST_F(XnTest, CrashWithDirtyMetadataMatchesScratchTraversal) {
  BlockId root = MakeRoot("fs", inner_tmpl_);
  auto leaves = AllocChildren(root, 0, 2, leaf_tmpl_);
  for (BlockId l : leaves) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0, 4096);
    ASSERT_EQ(xn_.InsertMapping(l, root, f, true, good_creds_), Status::kOk);
  }
  auto data = AllocChildren(leaves[0], 0, 2);
  for (BlockId d : data) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0xab, 4096);
    ASSERT_EQ(xn_.InsertMapping(d, leaves[0], f, true, good_creds_), Status::kOk);
  }
  ASSERT_EQ(FlushAll({data[0], data[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({leaves[0], leaves[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  // Dirty-but-unflushed growth: three data blocks under leaves[1] whose pointers
  // exist only in the in-core copy of the leaf.
  auto lost = AllocChildren(leaves[1], 0, 3);
  for (BlockId b : lost) {
    EXPECT_TRUE(xn_.free_map().IsAllocated(b));
  }
  // Dealloc data[1] but never flush leaves[0]: its on-disk pointer survives, so the
  // block sits on the will-free list when the crash hits. Recovery must resurrect it
  // (the on-disk tree still reaches it).
  Mods drop = SetCount(1);
  std::vector<udf::Extent> freed = {{data[1], 1, kDataTemplate}};
  ASSERT_EQ(xn_.Dealloc(leaves[0], drop, freed, good_creds_), Status::kOk);
  EXPECT_TRUE(xn_.free_map().IsAllocated(data[1]));  // deferred: pointer still on disk

  xn_.Crash();
  Xn reborn(&machine_, &machine_.disk());
  ASSERT_EQ(reborn.Attach(), Status::kOk);
  EXPECT_TRUE(reborn.recovered_after_crash());

  // Independent reachability pass over the raw disk: parse the tnode format by hand
  // starting from the persistent root, never consulting XN's free map.
  auto u32_at = [&](BlockId b, size_t off) {
    auto img = machine_.disk().RawBlock(b);
    return static_cast<uint32_t>(img[off]) | static_cast<uint32_t>(img[off + 1]) << 8 |
           static_cast<uint32_t>(img[off + 2]) << 16 |
           static_cast<uint32_t>(img[off + 3]) << 24;
  };
  std::set<BlockId> reachable;
  auto ri = reborn.LookupRoot("fs");
  ASSERT_TRUE(ri.ok());
  reachable.insert(ri->block);
  uint32_t nleaves = u32_at(ri->block, 0);
  for (uint32_t i = 0; i < nleaves; ++i) {
    BlockId leaf = u32_at(ri->block, 4 + i * 4);
    reachable.insert(leaf);
    uint32_t ndata = u32_at(leaf, 0);
    for (uint32_t j = 0; j < ndata; ++j) {
      reachable.insert(u32_at(leaf, 4 + j * 4));
    }
  }

  // The rebuilt free map must agree block-for-block with the scratch traversal
  // across the whole data region.
  for (BlockId b = reborn.free_map().first_data_block(); b < reborn.free_map().num_blocks(); ++b) {
    EXPECT_EQ(reborn.free_map().IsAllocated(b), reachable.count(b) != 0) << "block " << b;
  }
  // Spot checks: the unflushed allocations were collected, the deferred dealloc was
  // resurrected because its parent's on-disk image still points at it.
  for (BlockId b : lost) {
    EXPECT_FALSE(reborn.free_map().IsAllocated(b));
  }
  EXPECT_TRUE(reborn.free_map().IsAllocated(data[1]));
}

// ---- Ownership-set rules ----
//
// An owns-udf may emit its blocks in any order (C-FFS's directory owns-udf
// emits slot by slot), each block at most once, and a block keeps its type for
// as long as its parent owns it.

TEST_F(XnTest, DescendingPointersResolveEveryChild) {
  BlockId root = MakeRoot("fs", inner_tmpl_);
  // A block the root does not own, numbered below every block it does.
  const BlockId foreign = AllocChildren(MakeRoot("other", leaf_tmpl_), 0, 1)[0];
  auto kids = AllocDescending(root, 5, leaf_tmpl_);
  ASSERT_LT(foreign, kids.back());
  EXPECT_EQ(xn_.InsertMapping(foreign, root, NewFrame(), /*dirty=*/true, good_creds_),
            Status::kPermissionDenied);
  for (BlockId k : kids) {
    InsertEmptyTnode(k, root);
    EXPECT_EQ(xn_.registry().Lookup(k)->tmpl, leaf_tmpl_);
  }
  ASSERT_EQ(FlushAll(kids), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  for (BlockId k : kids) {
    ASSERT_EQ(xn_.RemoveMapping(k), Status::kOk);
  }
  std::vector<FrameId> frames;
  for (size_t i = 0; i < kids.size(); ++i) {
    frames.push_back(NewFrame());
  }
  EXPECT_EQ(xn_.ReadAndInsert(root, std::vector<BlockId>{foreign},
                              std::vector<FrameId>{frames[0]}, good_creds_, {}),
            Status::kPermissionDenied);
  Status read = Status::kNotFound;
  ASSERT_EQ(xn_.ReadAndInsert(root, kids, frames, good_creds_, [&](Status s) { read = s; }),
            Status::kOk);
  engine_.RunUntilIdle();
  ASSERT_EQ(read, Status::kOk);
  for (BlockId k : kids) {
    EXPECT_EQ(xn_.registry().Lookup(k)->tmpl, leaf_tmpl_);
  }

  std::vector<BlockId> unbound = kids;
  unbound.push_back(foreign);
  for (BlockId k : unbound) {
    if (xn_.registry().Lookup(k) != nullptr) {
      ASSERT_EQ(xn_.RemoveMapping(k), Status::kOk);
    }
    Status raw = Status::kNotFound;
    ASSERT_EQ(xn_.RawRead(k, NewFrame(), [&](Status s) { raw = s; }), Status::kOk);
    engine_.RunUntilIdle();
    ASSERT_EQ(raw, Status::kOk);
  }
  for (BlockId k : kids) {
    ASSERT_EQ(xn_.BindToParent(root, k, good_creds_), Status::kOk);
    EXPECT_EQ(xn_.registry().Lookup(k)->tmpl, leaf_tmpl_);
  }
  EXPECT_EQ(xn_.BindToParent(root, foreign, good_creds_), Status::kPermissionDenied);
}

TEST_F(XnTest, RecoveryMarksEveryChildOfDescendingTnodes) {
  BlockId root = MakeRoot("fs", inner_tmpl_);
  auto leaves = AllocDescending(root, 4, leaf_tmpl_);
  for (BlockId l : leaves) {
    InsertEmptyTnode(l, root);
  }
  auto data = AllocDescending(leaves[1], 3, kDataTemplate);
  ASSERT_EQ(FlushAll(leaves), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  xn_.Crash();
  Xn reborn(&machine_, &machine_.disk());
  ASSERT_EQ(reborn.Attach(), Status::kOk);
  EXPECT_TRUE(reborn.recovered_after_crash());
  EXPECT_TRUE(reborn.free_map().IsAllocated(root));
  for (BlockId b : leaves) {
    EXPECT_TRUE(reborn.free_map().IsAllocated(b)) << "leaf " << b;
  }
  for (BlockId b : data) {
    EXPECT_TRUE(reborn.free_map().IsAllocated(b)) << "data " << b;
  }
  // Those are all the reachable blocks: everything else in the data region is free.
  const FreeMap& free_map = reborn.free_map();
  EXPECT_EQ(free_map.free_count(), free_map.num_blocks() - free_map.first_data_block() - 1 -
                                       leaves.size() - data.size());
}

// On disk, a tnode that names a block twice is malformed: recovery does not
// follow its pointers, so its children go back to the free map.
TEST_F(XnTest, RecoveryIgnoresATnodeNamingABlockTwice) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 2);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  auto image = machine_.disk().MutableBlock(root);
  std::memcpy(image.data() + 8, image.data() + 4, 4);  // pointer 1 := pointer 0

  xn_.Crash();
  Xn reborn(&machine_, &machine_.disk());
  ASSERT_EQ(reborn.Attach(), Status::kOk);
  EXPECT_TRUE(reborn.free_map().IsAllocated(root));
  EXPECT_FALSE(reborn.free_map().IsAllocated(kids[0]));
  EXPECT_FALSE(reborn.free_map().IsAllocated(kids[1]));
}

TEST_F(XnTest, AfterImageNamingABlockTwiceIsRejected) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  auto image = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(image.ok());

  Mods modify_twice = SetCount(2);
  modify_twice.push_back(SetPtr(1, kids[0]));
  EXPECT_EQ(xn_.Modify(root, modify_twice, good_creds_), Status::kBadMetadata);

  auto fresh = xn_.free_map().FindFreeRun(kids[0] + 1, 1);
  ASSERT_TRUE(fresh.ok());
  Mods alloc_twice = SetCount(3);
  alloc_twice.push_back(SetPtr(1, *fresh));
  alloc_twice.push_back(SetPtr(2, *fresh));
  std::vector<udf::Extent> claim = {{*fresh, 1, kDataTemplate}};
  EXPECT_EQ(xn_.Alloc(root, alloc_twice, claim, good_creds_), Status::kBadMetadata);

  EXPECT_FALSE(xn_.free_map().IsAllocated(*fresh));
  auto after = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *image);
}

TEST_F(XnTest, RetypingAnOwnedBlockInPlaceIsRejected) {
  Template typed;
  typed.name = "tnode-typed";
  typed.is_metadata = true;
  typed.owns_udf = TypedTnodeOwns();
  typed.acl_uf = RequireCap7Acl();
  auto tt = xn_.InstallTemplate(typed);
  ASSERT_TRUE(tt.ok());
  BlockId root = MakeRoot("fs", *tt);
  auto child = xn_.free_map().FindFreeRun(xn_.free_map().first_data_block(), 1);
  ASSERT_TRUE(child.ok());
  Mods mods = SetCount(1);
  mods.push_back(U32Mod(4, *child));
  mods.push_back(U32Mod(8, kDataTemplate));
  std::vector<udf::Extent> claim = {{*child, 1, kDataTemplate}};
  ASSERT_EQ(xn_.Alloc(root, mods, claim, good_creds_), Status::kOk);
  auto image = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(image.ok());

  // Same block, now claimed as a leaf tnode: not an ownership-preserving Modify.
  EXPECT_EQ(xn_.Modify(root, {U32Mod(8, leaf_tmpl_)}, good_creds_), Status::kBadMetadata);
  auto after = xn_.ReadCached(root, good_creds_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *image);
}

// A request naming one block twice is malformed; the first failing block in
// request order decides between "not free" and "malformed".
TEST_F(XnTest, RequestNamingABlockTwiceIsRejectedInRequestOrder) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  const BlockId b = AllocChildren(root, 0, 1)[0];  // not free
  auto a = xn_.free_map().FindFreeRun(b + 1, 1);
  ASSERT_TRUE(a.ok());
  Mods mods = SetCount(2);
  mods.push_back(SetPtr(1, *a));
  const udf::Extent ea{*a, 1, kDataTemplate};
  const udf::Extent eb{b, 1, kDataTemplate};
  using Extents = std::vector<udf::Extent>;

  EXPECT_EQ(xn_.Alloc(root, mods, Extents{ea, ea}, good_creds_), Status::kInvalidArgument);
  EXPECT_EQ(xn_.Alloc(root, mods, Extents{eb, ea, ea}, good_creds_), Status::kOutOfResources);
  EXPECT_EQ(xn_.Alloc(root, mods, Extents{ea, ea, eb}, good_creds_), Status::kInvalidArgument);
  EXPECT_FALSE(xn_.free_map().IsAllocated(*a));
  EXPECT_EQ(xn_.Dealloc(root, SetCount(0), Extents{eb, eb}, good_creds_),
            Status::kInvalidArgument);
  EXPECT_TRUE(xn_.free_map().IsAllocated(b));

  EXPECT_EQ(xn_.Alloc(root, mods, Extents{ea}, good_creds_), Status::kOk);
}

// Extents that claim more blocks than the disk holds must repeat a block or
// name one past its end, so XN refuses them before expanding a single block:
// a count of 0xFFFFFFFF would otherwise mean four billion set entries.
TEST_F(XnTest, ExtentsClaimingMoreBlocksThanTheDiskAreRefused) {
  auto greedy = udf::Assemble(R"(
      ldi r1, 0
      ldi r2, -1              ; count 0xFFFFFFFF
      emit r1, r2, r1
      ret r0
  )");
  ASSERT_TRUE(greedy.ok);
  Template t;
  t.name = "greedy";
  t.is_metadata = true;
  t.owns_udf = greedy.program;
  auto tid = xn_.InstallTemplate(t);
  ASSERT_TRUE(tid.ok());
  BlockId greedy_root = MakeRoot("greedy", *tid);
  auto image = xn_.ReadCached(greedy_root, good_creds_);
  ASSERT_TRUE(image.ok());
  ByteMod scribble;
  scribble.offset = 2000;
  scribble.bytes = {1, 2, 3};
  EXPECT_EQ(xn_.Modify(greedy_root, {scribble}, good_creds_), Status::kBadMetadata);
  auto after = xn_.ReadCached(greedy_root, good_creds_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *image);

  BlockId root = MakeRoot("fs", leaf_tmpl_);
  std::vector<udf::Extent> everything = {
      {xn_.free_map().first_data_block(), 0xFFFFFFFFu, kDataTemplate}};
  EXPECT_EQ(xn_.Dealloc(root, SetCount(0), everything, good_creds_), Status::kInvalidArgument);
}

// ---- The owns-udf memo ----
//
// XN replays an owns-udf run when a recent run saw the same template and image
// bytes. A replay must be indistinguishable from interpreting: the same result
// and charge, and one more udf_runs.

TEST_F(XnTest, ReplayedOwnsRunChargesAndCountsLikeTheFirst) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  StageTnode(root, {1500, 1501, 1502});
  ExpectRunThenReplay(root, TnodeOwns(kDataTemplate), Status::kPermissionDenied);
}

// Failed runs replay too: a fault, duplicate blocks, and extents claiming more
// blocks than the disk holds are each refused again at the same charge.
TEST_F(XnTest, FailedOwnsRunsReplayTheirStatusAndCharge) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  StageTnode(root, {1500});
  const uint32_t past_the_end = 2000;  // pointer 1023 would lie past the block
  std::memcpy(CachedFrame(root).data(), &past_the_end, 4);
  ExpectRunThenReplay(root, TnodeOwns(kDataTemplate), Status::kBadMetadata);
  StageTnode(root, {1500, 1501, 1500});
  ExpectRunThenReplay(root, TnodeOwns(kDataTemplate), Status::kBadMetadata);

  auto greedy = udf::Assemble(R"(
      ldi r1, 0
      ldi r2, -1              ; count 0xFFFFFFFF
      emit r1, r2, r1
      ret r0
  )");
  ASSERT_TRUE(greedy.ok);
  Template t;
  t.name = "greedy";
  t.is_metadata = true;
  t.owns_udf = greedy.program;
  auto tid = xn_.InstallTemplate(t);
  ASSERT_TRUE(tid.ok());
  ExpectRunThenReplay(MakeRoot("greedy", *tid), greedy.program, Status::kBadMetadata);
}

// The memo is keyed on the image bytes, not the frame: every change to the
// parent's image is seen, whether it drops a child or keeps ownership.
TEST_F(XnTest, ChangedParentImageIsNeverServedAStaleResult) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 3);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, NewFrame(), /*dirty=*/true, good_creds_),
            Status::kOk);

  ASSERT_EQ(xn_.Dealloc(root, SetCount(2), std::vector<udf::Extent>{{kids[2], 1, kDataTemplate}},
                        good_creds_),
            Status::kOk);
  EXPECT_EQ(xn_.InsertMapping(kids[2], root, NewFrame(), true, good_creds_),
            Status::kPermissionDenied);

  // Swapping the two pointers keeps ownership, so it is a Modify.
  ASSERT_EQ(xn_.Modify(root, {SetPtr(0, kids[1]), SetPtr(1, kids[0])}, good_creds_), Status::kOk);
  EXPECT_EQ(xn_.InsertMapping(kids[2], root, NewFrame(), true, good_creds_),
            Status::kPermissionDenied);
  EXPECT_EQ(xn_.InsertMapping(kids[1], root, NewFrame(), true, good_creds_), Status::kOk);

  ASSERT_EQ(xn_.Alloc(root, {U32Mod(0, 3), SetPtr(2, kids[2])},
                      std::vector<udf::Extent>{{kids[2], 1, kDataTemplate}}, good_creds_),
            Status::kOk);
  EXPECT_EQ(xn_.InsertMapping(kids[2], root, NewFrame(), true, good_creds_), Status::kOk);
}

// The key is every byte of the image: a full tnode whose last pointer
// changed is a new run.
TEST_F(XnTest, ImagesDifferingOnlyInTheirLastBytesGetTheirOwnResults) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  std::vector<BlockId> pointers;
  for (BlockId b = 100; pointers.size() < (hw::kBlockSize - 4) / 4 - 1; ++b) {
    pointers.push_back(b);
  }
  pointers.push_back(1500);  // the block's last four bytes
  StageTnode(root, pointers);
  ASSERT_EQ(xn_.InsertMapping(1500, root, NewFrame(), /*dirty=*/false, good_creds_), Status::kOk);
  pointers.back() = 1501;
  StageTnode(root, pointers);
  EXPECT_EQ(xn_.InsertMapping(1500, root, NewFrame(), /*dirty=*/false, good_creds_),
            Status::kPermissionDenied);
}

TEST_F(XnTest, TemplatesWithEqualImagesGetTheirOwnResults) {
  BlockId leaf_root = MakeRoot("leaf", leaf_tmpl_);
  BlockId inner_root = MakeRoot("inner", inner_tmpl_);
  const BlockId child = 1500;
  StageTnode(leaf_root, {child});
  StageTnode(inner_root, {child});
  ASSERT_TRUE(std::ranges::equal(CachedFrame(leaf_root), CachedFrame(inner_root)));

  ASSERT_EQ(xn_.InsertMapping(child, leaf_root, NewFrame(), /*dirty=*/false, good_creds_),
            Status::kOk);
  EXPECT_EQ(xn_.registry().Lookup(child)->tmpl, kDataTemplate);
  ASSERT_EQ(xn_.RemoveMapping(child), Status::kOk);
  ASSERT_EQ(xn_.InsertMapping(child, inner_root, NewFrame(), /*dirty=*/false, good_creds_),
            Status::kOk);
  EXPECT_EQ(xn_.registry().Lookup(child)->tmpl, leaf_tmpl_);
}

// A template id names one program only within one catalogue: after another
// Xn reformats the disk and installs a different program under the same id,
// reattaching must run the new program.
TEST_F(XnTest, ReattachRunsTheProgramTheReloadedCatalogueNames) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  const BlockId child = 1500;
  StageTnode(root, {child});
  ASSERT_EQ(xn_.InsertMapping(child, root, NewFrame(), /*dirty=*/false, good_creds_),
            Status::kOk);
  ASSERT_EQ(xn_.RemoveMapping(child), Status::kOk);
  xn_.Detach();

  {
    Xn other(&machine_, &machine_.disk());
    other.Format();
    ASSERT_EQ(other.Attach(), Status::kOk);
    auto owns_nothing = udf::Assemble("ret r0\n");
    ASSERT_TRUE(owns_nothing.ok);
    Template t;
    t.name = "owns-nothing";
    t.is_metadata = true;
    t.owns_udf = owns_nothing.program;
    auto id = other.InstallTemplate(t);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, leaf_tmpl_);
    ASSERT_TRUE(other.RegisterRoot("fs", *id, /*temporary=*/false).ok());
    other.Detach();
  }

  // The reloaded root, staged with the image the old program ran on.
  ASSERT_EQ(xn_.Attach(), Status::kOk);
  Status loaded = Status::kNotFound;
  ASSERT_EQ(xn_.LoadRoot("fs", NewFrame(), good_creds_, [&](Status s) { loaded = s; }),
            Status::kOk);
  engine_.RunUntilIdle();
  ASSERT_EQ(loaded, Status::kOk);
  root = xn_.LookupRoot("fs")->block;
  StageTnode(root, {child});
  EXPECT_EQ(xn_.InsertMapping(child, root, NewFrame(), /*dirty=*/false, good_creds_),
            Status::kPermissionDenied);
}

// A disk completion that fires while an owns-udf run is charged runs another
// owns-udf and reorders the memo; neither run may get the other's result.
TEST_F(XnTest, DiskCompletionInsideAnOwnsChargeKeepsBothResults) {
  BlockId x = MakeRoot("x", leaf_tmpl_);
  auto x_kids = AllocChildren(x, 0, 2);
  BlockId y = MakeRoot("y", leaf_tmpl_);
  auto y_kids = AllocChildren(y, 0, 1);

  bool written = false;
  ASSERT_EQ(xn_.Write(std::vector<BlockId>{x}, [&](Status s) { written = s == Status::kOk; }),
            Status::kOk);
  // Stop just short of the write's completion, so that it fires inside the
  // charge of InsertMapping's owns-udf run, right after the syscall's charge.
  const sim::CostModel& c = machine_.cost();
  engine_.RunUntil(engine_.NextEventTime() - c.trap_round_trip - c.xok_syscall_check - 1);
  ASSERT_FALSE(written);
  EXPECT_EQ(xn_.InsertMapping(y_kids[0], y, NewFrame(), /*dirty=*/true, good_creds_),
            Status::kOk);
  ASSERT_TRUE(written);

  EXPECT_EQ(xn_.InsertMapping(x_kids[0], x, NewFrame(), true, good_creds_), Status::kOk);
  EXPECT_EQ(xn_.InsertMapping(x_kids[1], y, NewFrame(), true, good_creds_),
            Status::kPermissionDenied);
  EXPECT_EQ(xn_.InsertMapping(y_kids[0], x, NewFrame(), true, good_creds_),
            Status::kPermissionDenied);
  // The completion's run recorded x's on-disk pointers: dropping one defers
  // the block's reuse until x is written again.
  ASSERT_EQ(xn_.Dealloc(x, SetCount(1), std::vector<udf::Extent>{{x_kids[1], 1, kDataTemplate}},
                        good_creds_),
            Status::kOk);
  EXPECT_TRUE(xn_.free_map().IsAllocated(x_kids[1]));
}

// Catalogue blocks are disk bytes: Attach verifies every program in them, as
// InstallTemplate did, before anything runs one.
TEST_F(XnTest, AttachRefusesACatalogueProgramTheVerifierRejects) {
  ASSERT_TRUE(xn_.RegisterRoot("fs", leaf_tmpl_, /*temporary=*/false).ok());
  xn_.Detach();
  // Catalogue block 1 holds a u32 template count, then the first template: a
  // u32 id, its name (u32 length, bytes), a u8 metadata flag, and its owns-udf
  // (u32 length, then per instruction op, rd, rs and rt bytes and an i32).
  const size_t first_rd = 4 + 4 + 4 + std::string("tnode-leaf").size() + 1 + 4 + 1;
  auto catalogue = machine_.disk().MutableBlock(1);
  ASSERT_EQ(catalogue[first_rd], 1);  // ldi r1, 0
  catalogue[first_rd] = 200;          // no such register

  Xn other(&machine_, &machine_.disk());
  EXPECT_EQ(other.Attach(), Status::kBadMetadata);
  EXPECT_FALSE(other.attached());
  EXPECT_EQ(other.LookupTemplate("tnode-leaf").status(), Status::kNotFound);
}

// An entry that does not parse (a program longer than udf::kMaxProgramLength,
// a name running past the catalogue) leaves the catalogue unreadable, so
// Attach loads nothing and runs no recovery: recovering without a template or
// root would free every block under it.
TEST_F(XnTest, AttachRefusesACatalogueThatDoesNotParse) {
  ASSERT_TRUE(xn_.RegisterRoot("fs", leaf_tmpl_, /*temporary=*/false).ok());
  xn_.Crash();  // the superblock still says mounted: an attach would recover
  // Catalogue block 1 holds a u32 template count, then the first template: a
  // u32 id, its name (u32 length, bytes), a u8 metadata flag, and its
  // owns-udf's u32 length. The root catalogue follows the eight template
  // blocks: a u32 root count, then the first root's name length.
  struct Case {
    BlockId block;
    size_t offset;
    uint32_t length;
  };
  const Case cases[] = {
      {1, 4 + 4 + 4 + std::string("tnode-leaf").size() + 1, 5000},
      {1 + 8, 4, 1u << 20},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.block);
    auto block = machine_.disk().MutableBlock(c.block);
    const std::vector<uint8_t> saved(block.begin(), block.end());
    std::memcpy(block.data() + c.offset, &c.length, 4);

    Xn other(&machine_, &machine_.disk());
    EXPECT_EQ(other.Attach(), Status::kBadMetadata);
    EXPECT_FALSE(other.attached());
    EXPECT_FALSE(other.recovered_after_crash());
    EXPECT_EQ(other.LookupTemplate("tnode-leaf").status(), Status::kNotFound);
    EXPECT_EQ(other.LookupRoot("fs").status(), Status::kNotFound);
    std::copy(saved.begin(), saved.end(), block.begin());
  }
  Xn restored(&machine_, &machine_.disk());
  EXPECT_EQ(restored.Attach(), Status::kOk);
  EXPECT_TRUE(restored.LookupRoot("fs").ok());
}

// Attach and Format start from the disk alone, so the registry of the session
// before them goes, each entry's frame returned: between a Detach and the next
// Attach another Xn may reformat or rewrite the disk.
TEST_F(XnTest, AttachAndFormatStartFromAnEmptyRegistry) {
  const BlockId root = MakeRoot("fs", leaf_tmpl_);
  const FrameId frame = xn_.registry().Lookup(root)->frame;
  ASSERT_EQ(machine_.mem().refcount(frame), 2u);  // this test's and the registry's
  xn_.Detach();
  {
    Xn other(&machine_, &machine_.disk());
    other.Format();
    ASSERT_EQ(other.Attach(), Status::kOk);
    other.Detach();
  }
  ASSERT_EQ(xn_.Attach(), Status::kOk);
  EXPECT_FALSE(xn_.free_map().IsAllocated(root));
  EXPECT_EQ(xn_.registry().size(), 0u);
  EXPECT_EQ(machine_.mem().refcount(frame), 1u);

  Template t;
  t.name = "tnode";
  t.is_metadata = true;
  t.owns_udf = TnodeOwns(kDataTemplate);
  auto id = xn_.InstallTemplate(t);
  ASSERT_TRUE(id.ok());
  const FrameId again = xn_.registry().Lookup(MakeRoot("again", *id))->frame;
  xn_.Format();
  EXPECT_EQ(xn_.registry().size(), 0u);
  EXPECT_EQ(machine_.mem().refcount(again), 1u);
}

// ---- End-to-end integrity: scrub, read-repair, quarantine, recovery fsck ----
//
// Arming the integrity sidecar mid-session stamps the current media as the
// trusted baseline; every DMA write after that re-stamps. These tests corrupt
// the media directly through MutableBlock (never Restamp) to model silent faults.

TEST_F(XnTest, ScrubRepairsRotFromCleanResidentCopy) {
  machine_.disk().EnableIntegrity();
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 2);
  for (size_t i = 0; i < kids.size(); ++i) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0x41 + static_cast<int>(i), 4096);
    ASSERT_EQ(xn_.InsertMapping(kids[i], root, f, /*dirty=*/true, good_creds_), Status::kOk);
  }
  ASSERT_EQ(FlushAll({kids[0], kids[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  // Rot kids[0] on the platter; its clean resident cache copy stays authoritative.
  machine_.disk().MutableBlock(kids[0])[7] ^= 0x40;
  ASSERT_EQ(machine_.disk().CheckBlock(kids[0]), hw::BlockIntegrity::kBadChecksum);

  EXPECT_GT(xn_.ScrubStep(xn_.free_map().num_blocks()), 0u);
  EXPECT_EQ(xn_.stats().repairs, 1u);
  EXPECT_FALSE(xn_.IsQuarantined(kids[0]));
  EXPECT_EQ(machine_.disk().CheckBlock(kids[0]), hw::BlockIntegrity::kOk);
  EXPECT_EQ(machine_.disk().RawBlock(kids[0])[7], 0x41);
  EXPECT_GE(machine_.counters().Get("scrub.blocks_scanned"), 3u);
  EXPECT_EQ(machine_.counters().Get("scrub.repaired"), 1u);
  EXPECT_EQ(machine_.counters().Get("disk.repaired"), 1u);

  // Same fault again, this time found by the scheduled idle scrubber.
  machine_.disk().MutableBlock(kids[1])[9] ^= 0x01;
  xn_.StartScrubber(/*interval=*/1000, /*budget=*/xn_.free_map().num_blocks(), /*steps=*/4);
  engine_.RunUntilIdle();
  EXPECT_EQ(xn_.stats().repairs, 2u);
  EXPECT_EQ(machine_.disk().CheckBlock(kids[1]), hw::BlockIntegrity::kOk);
  EXPECT_EQ(machine_.disk().RawBlock(kids[1])[9], 0x42);
}

TEST_F(XnTest, ScrubQuarantinesWithoutCleanCopyUntilRewritten) {
  machine_.disk().EnableIntegrity();
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  FrameId f = NewFrame();
  std::memset(machine_.mem().Data(f).data(), 0x77, 4096);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, f, /*dirty=*/true, good_creds_), Status::kOk);
  ASSERT_EQ(FlushAll({kids[0]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);  // no trustworthy copy remains

  machine_.disk().MutableBlock(kids[0])[100] ^= 0xff;
  (void)xn_.ScrubStep(xn_.free_map().num_blocks());
  EXPECT_TRUE(xn_.IsQuarantined(kids[0]));
  EXPECT_EQ(machine_.counters().Get("scrub.quarantined"), 1u);
  EXPECT_EQ(xn_.TryRepair(kids[0]), Status::kCorrupted);

  // The read path refuses known-bad media at submit: repair or rewrite first.
  std::vector<FrameId> rframes = {NewFrame()};
  EXPECT_EQ(xn_.ReadAndInsert(root, kids, rframes, good_creds_, {}), Status::kCorrupted);
  EXPECT_GE(xn_.stats().corrupt_detections, 1u);

  // An acked rewrite of fresh content lifts the quarantine.
  if (xn_.registry().Lookup(kids[0]) != nullptr) {
    ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);
  }
  FrameId nf = NewFrame();
  std::memset(machine_.mem().Data(nf).data(), 0x78, 4096);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, nf, /*dirty=*/true, good_creds_), Status::kOk);
  ASSERT_EQ(FlushAll({kids[0]}), Status::kOk);
  EXPECT_FALSE(xn_.IsQuarantined(kids[0]));
  EXPECT_EQ(machine_.disk().CheckBlock(kids[0]), hw::BlockIntegrity::kOk);
}

TEST_F(XnTest, LostWriteCaughtOnReReadByExpectedCrc) {
  machine_.disk().EnableIntegrity();
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  FrameId f = NewFrame();
  std::memset(machine_.mem().Data(f).data(), 0x11, 4096);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, f, /*dirty=*/true, good_creds_), Status::kOk);
  ASSERT_EQ(FlushAll({kids[0]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);

  // Rewrite the block, but the media silently drops the first write after the
  // injector arms: the ack (and expected_crc_) say 0x22, the platter says 0x11
  // under a perfectly self-consistent stale tag.
  sim::FaultPlan plan;
  plan.script = sim::ParseFaultSchedule("w@1");
  sim::FaultInjector faults(plan);
  machine_.disk().SetFaultInjector(&faults);
  FrameId nf = NewFrame();
  std::memset(machine_.mem().Data(nf).data(), 0x22, 4096);
  ASSERT_EQ(xn_.InsertMapping(kids[0], root, nf, /*dirty=*/true, good_creds_), Status::kOk);
  ASSERT_EQ(FlushAll({kids[0]}), Status::kOk);  // acked kOk, never landed
  machine_.disk().SetFaultInjector(nullptr);
  ASSERT_EQ(faults.stats().disk_lost_writes, 1u);
  ASSERT_EQ(machine_.disk().RawBlock(kids[0])[5], 0x11);
  ASSERT_EQ(machine_.disk().CheckBlock(kids[0]), hw::BlockIntegrity::kOk);  // the residual window

  // The tag alone cannot see it; the in-session expected-CRC cross-check can.
  ASSERT_EQ(xn_.RemoveMapping(kids[0]), Status::kOk);
  Status read = Status::kOk;
  std::vector<FrameId> rframes = {NewFrame()};
  ASSERT_EQ(xn_.ReadAndInsert(root, kids, rframes, good_creds_,
                              [&](Status s) { read = s; }),
            Status::kOk);
  engine_.RunUntilIdle();
  EXPECT_EQ(read, Status::kCorrupted);
  EXPECT_TRUE(xn_.IsQuarantined(kids[0]));
  EXPECT_GE(xn_.stats().corrupt_detections, 1u);
}

TEST_F(XnTest, RecoveryFsckQuarantinesCorruptMetadataAndCollectsItsSubtree) {
  machine_.disk().EnableIntegrity();
  BlockId root = MakeRoot("fs", inner_tmpl_);
  auto leaves = AllocChildren(root, 0, 2, leaf_tmpl_);
  for (BlockId l : leaves) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0, 4096);
    ASSERT_EQ(xn_.InsertMapping(l, root, f, true, good_creds_), Status::kOk);
  }
  auto d0 = AllocChildren(leaves[0], 0, 1);
  auto d1 = AllocChildren(leaves[1], 0, 1);
  for (BlockId d : {d0[0], d1[0]}) {
    FrameId f = NewFrame();
    std::memset(machine_.mem().Data(f).data(), 0xe1, 4096);
    ASSERT_EQ(xn_.InsertMapping(d, d == d0[0] ? leaves[0] : leaves[1], f, true, good_creds_),
              Status::kOk);
  }
  ASSERT_EQ(FlushAll({d0[0], d1[0]}), Status::kOk);
  ASSERT_EQ(FlushAll({leaves[0], leaves[1]}), Status::kOk);
  ASSERT_EQ(FlushAll({root}), Status::kOk);

  xn_.Crash();
  // Rot leaves[1] while the machine is down: its child pointers are now garbage.
  machine_.disk().MutableBlock(leaves[1])[2] ^= 0x04;

  Xn reborn(&machine_, &machine_.disk());
  const uint64_t fsck_before = machine_.counters().Get("xn.integrity_blocks_scanned");
  ASSERT_EQ(reborn.Attach(), Status::kOk);
  EXPECT_TRUE(reborn.recovered_after_crash());
  // The pre-traversal fsck covered the whole disk and flagged the rotted block.
  EXPECT_GE(machine_.counters().Get("xn.integrity_blocks_scanned") - fsck_before,
            static_cast<uint64_t>(reborn.free_map().num_blocks()));
  EXPECT_TRUE(reborn.IsQuarantined(leaves[1]));

  // The quarantined block stays allocated (its parent references it) but was
  // never parsed: its subtree is collected, the clean sibling's is intact.
  EXPECT_TRUE(reborn.free_map().IsAllocated(root));
  EXPECT_TRUE(reborn.free_map().IsAllocated(leaves[0]));
  EXPECT_TRUE(reborn.free_map().IsAllocated(leaves[1]));
  EXPECT_TRUE(reborn.free_map().IsAllocated(d0[0]));
  EXPECT_FALSE(reborn.free_map().IsAllocated(d1[0]));
}

TEST_F(XnTest, CleanDetachSkipsRecovery) {
  BlockId root = MakeRoot("fs", leaf_tmpl_);
  auto kids = AllocChildren(root, 0, 1);
  ASSERT_EQ(FlushAll({root}), Status::kOk);
  xn_.Detach();

  Xn other(&machine_, &machine_.disk());
  ASSERT_EQ(other.Attach(), Status::kOk);
  EXPECT_FALSE(other.recovered_after_crash());
  EXPECT_TRUE(other.free_map().IsAllocated(kids[0]));  // free map loaded, not rebuilt
}

TEST_F(XnTest, FreeMapExposedWithoutSyscalls) {
  uint64_t before = machine_.counters().Get("xok.syscalls");
  (void)xn_.free_map().free_count();
  (void)xn_.free_map().IsAllocated(100);
  (void)xn_.free_map().FindFreeRun(xn_.free_map().first_data_block(), 4);
  EXPECT_EQ(machine_.counters().Get("xok.syscalls"), before);
}

// The free map XN and the kernel backend both own: first fit from the hint,
// one wrap to the first data block, checked transitions and exact counts.
TEST(FreeMapTest, PlacementWrapExhaustionAndCounts) {
  FreeMap map;
  map.Reset(/*num_blocks=*/64, /*first_data=*/4);
  EXPECT_EQ(map.free_count(), 60u);
  EXPECT_TRUE(map.IsAllocated(3));  // system blocks are never free
  EXPECT_EQ(*map.FindFreeRun(0, 1), 4u);
  EXPECT_EQ(*map.FindFreeRun(20, 4), 20u);  // placement honours the hint
  for (BlockId b = 20; b < 24; ++b) {
    map.Allocate(b);
  }
  EXPECT_EQ(map.free_count(), 56u);
  EXPECT_EQ(*map.FindFreeRun(18, 4), 24u);  // first fit at or after the hint
  EXPECT_EQ(*map.FindFreeRun(62, 4), 4u);   // too close to the end: wraps once
  EXPECT_EQ(map.FindFreeRun(4, 0).status(), Status::kInvalidArgument);
  EXPECT_DEATH(map.Allocate(20), "");  // already allocated
  EXPECT_DEATH(map.Release(2), "");    // a system block

  for (BlockId b = 4; b < 64; ++b) {
    if (map.IsFree(b)) {
      map.Allocate(b);
    }
  }
  EXPECT_EQ(map.free_count(), 0u);
  EXPECT_EQ(map.FindFreeRun(4, 1).status(), Status::kOutOfResources);
  map.Release(40);
  map.Release(41);
  EXPECT_EQ(map.free_count(), 2u);
  EXPECT_EQ(*map.FindFreeRun(50, 2), 40u);  // found after the wrap
  EXPECT_EQ(map.FindFreeRun(4, 3).status(), Status::kOutOfResources);
  EXPECT_DEATH(map.Release(40), "");  // already free

  // Recovery's marking is unchecked and counts only blocks it finds free.
  map.MarkReachable(2);
  map.MarkReachable(40);
  map.MarkReachable(40);
  EXPECT_EQ(map.free_count(), 1u);
  EXPECT_TRUE(map.IsAllocated(40));
}

// Property sweep: allocate-and-free of N blocks always restores the free count.
class AllocFreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocFreeProperty, FreeCountRestored) {
  sim::Engine engine;
  hw::Machine machine(&engine,
                      hw::MachineConfig{.mem_frames = 512,
                                        .disks = {hw::DiskGeometry{.num_blocks = 2048}}});
  Xn xn(&machine, &machine.disk());
  xn.Format();
  ASSERT_EQ(xn.Attach(), Status::kOk);
  Template leaf;
  leaf.name = "t";
  leaf.is_metadata = true;
  leaf.owns_udf = TnodeOwns(kDataTemplate);
  ASSERT_TRUE(xn.InstallTemplate(leaf).ok());
  auto root = xn.RegisterRoot("fs", 1, false);
  ASSERT_TRUE(root.ok());
  auto f = machine.mem().Alloc();
  Status ls = Status::kNotFound;
  ASSERT_EQ(xn.LoadRoot("fs", *f, {}, [&](Status s) { ls = s; }), Status::kOk);
  engine.RunUntilIdle();
  ASSERT_EQ(ls, Status::kOk);

  const uint32_t n = static_cast<uint32_t>(GetParam());
  const uint32_t before = xn.free_map().free_count();

  Mods mods = SetCount(n);
  std::vector<udf::Extent> extents;
  BlockId hint = xn.free_map().first_data_block();
  for (uint32_t i = 0; i < n; ++i) {
    auto b = xn.free_map().FindFreeRun(hint, 1);
    ASSERT_TRUE(b.ok());
    hint = *b + 1;
    mods.push_back(SetPtr(i, *b));
    extents.push_back({*b, 1, kDataTemplate});
  }
  ASSERT_EQ(xn.Alloc(root->block, mods, extents, {}), Status::kOk);
  EXPECT_EQ(xn.free_map().free_count(), before - n);

  ASSERT_EQ(xn.Dealloc(root->block, SetCount(0), extents, {}), Status::kOk);
  EXPECT_EQ(xn.free_map().free_count(), before);  // never flushed: immediate reuse
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllocFreeProperty, ::testing::Values(1, 2, 7, 64, 500));

}  // namespace
}  // namespace exo::xn
