#include "exos/system.h"

#include <cstring>

#include "udf/assembler.h"

namespace exo::os {

namespace {

// Pipe cost constants, calibrated against Table 2 (13/30/34 us one-way for 1 byte).
constexpr sim::Cycles kExosPipeOp = 350;   // libOS pipe bookkeeping per operation
constexpr sim::Cycles kBsdPipeOp = 2150;   // in-kernel pipe path beyond the trap

// Fork cost model (Sec. 6.2: ExOS fork ~6 ms, OpenBSD < 1 ms for a typical process).
// Xok environments cannot share page tables, so ExOS rebuilds the child's address
// space through (batched) system calls and bookkeeping per page.
constexpr sim::Cycles kExosForkFixed = 100'000;
constexpr sim::Cycles kExosForkPerPage = 2'500;
constexpr sim::Cycles kBsdForkFixed = 50'000;
constexpr sim::Cycles kBsdForkPerPage = 400;

// OpenBSD's small non-unified buffer cache, in blocks: ~6.4 MB of the 64 MB
// machine (FreeBSD and the exokernel use a unified cache).
constexpr uint32_t kBsdCacheBlocks = 1600;

// The wakeup predicate installed on every protected-pipe read (Table 2): wake when
// the byte count (u32 at offset 0) is nonzero or the write side closed (byte 4).
const udf::Program& PipePredicate() {
  static const udf::Program prog = [] {
    auto r = udf::Assemble(R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta
      ld1 r3, r1, 4, meta
      or r4, r2, r3
      ret r4
    )");
    EXO_CHECK(r.ok);
    return r.program;
  }();
  return prog;
}

}  // namespace

const char* FlavorName(Flavor f) {
  switch (f) {
    case Flavor::kXokExos:
      return "Xok/ExOS";
    case Flavor::kOpenBsdCffs:
      return "OpenBSD/C-FFS";
    case Flavor::kOpenBsd:
      return "OpenBSD";
    case Flavor::kFreeBsd:
      return "FreeBSD";
  }
  return "?";
}

System::System(hw::Machine* machine, Flavor flavor, const SystemOptions& options)
    : machine_(machine), flavor_(flavor), options_(options) {
  bsd_syscall_counter_ = machine_->counters().Handle("bsd.syscalls");
  kernel_ = std::make_unique<xok::XokKernel>(machine_);
  // Default program images (sizes shaped after 1997 BSD userland binaries; ExOS
  // binaries are comparable because the libOS is a shared library, Sec. 5.2.2).
  programs_["sh"] = {60, 64};
  programs_["cp"] = {40, 64};
  programs_["rm"] = {30, 48};
  programs_["gzip"] = {80, 128};
  programs_["gunzip"] = {80, 128};
  programs_["pax"] = {120, 96};
  programs_["diff"] = {100, 128};
  programs_["gcc"] = {1200, 512};
  programs_["wc"] = {30, 48};
  programs_["grep"] = {60, 64};
  programs_["cksum"] = {30, 48};
  programs_["tsp"] = {40, 200};
  programs_["sor"] = {40, 400};
  programs_["bench"] = {40, 64};
}

System::~System() = default;

const ProgramImage& System::Image(const std::string& name) const {
  auto it = programs_.find(name);
  if (it != programs_.end()) {
    return it->second;
  }
  static const ProgramImage kDefault;
  return kDefault;
}

fs::Blocker System::MakeBlocker() {
  return [this, spin = fs::SpinEngine(machine_->engine())](const std::function<bool()>& ready) {
    if (kernel_->current() == nullptr) {
      spin(ready);  // boot/host context
    } else if (!ready()) {
      xok::WakeupPredicate p;
      p.host = ready;
      kernel_->SysSleep(std::move(p));
    }
  };
}

namespace {

// Default ExOS revocation compliance (Sec. 3.4/3.5): when the kernel asks for
// frames back, shed directly-held frame references until under the requested
// ceiling. Cached frames are a performance hint, not correctness state, so a
// well-behaved libOS can always comply.
void InstallRevocationHandler(xok::XokKernel* kernel, xok::EnvId id) {
  xok::Env& e = kernel->env(id);
  e.on_revoke = [kernel, &e](const xok::RevocationRequest& req) {
    if (req.resource != xok::RevokeResource::kFrames) {
      return;  // regions/filters carry libOS state; those requests need app logic
    }
    while (e.usage.frames > req.allowed && !e.frame_refs.empty()) {
      hw::FrameId f = e.frame_refs.begin()->first;
      if (kernel->SysFrameFree(f, xok::kCredAny) != Status::kOk) {
        break;
      }
    }
  };
}

}  // namespace

Status System::Boot() {
  const bool exo = flavor_ == Flavor::kXokExos;
  if (exo && !options_.disable_xn) {
    xn_ = std::make_unique<xn::Xn>(machine_, &machine_->disk());
    // XN's registry references route back through the kernel's accounting so
    // frame guards retire with the last reference.
    xn_->SetFrameRelease([this](hw::FrameId f) { kernel_->FrameUnref(f); });
    xn_->Format();
    Status s = xn_->Attach();
    if (s != Status::kOk) {
      return s;
    }
    backend_ = std::make_unique<fs::XnBackend>(
        xn_.get(), xn::Caps{xok::Capability::For({xok::kCapFs, 1})}, MakeBlocker(), [this] {
          // Shared allocation: buffer-cache frames belong to the registry, not
          // the env that happened to fault them in.
          auto f = kernel_->SysFrameAlloc(0, xok::CapName{xok::kCapFs, 1}, /*shared=*/true);
          return f.ok() ? *f : hw::kInvalidFrame;
        });
  } else {
    fs::KernelBackendOptions ko;
    if (flavor_ == Flavor::kFreeBsd || exo) {
      ko.max_cache_blocks = 0;  // unified buffer cache
    } else {
      ko.max_cache_blocks = kBsdCacheBlocks;  // OpenBSD's small cache
    }
    backend_ =
        std::make_unique<fs::KernelBackend>(machine_, &machine_->disk(), MakeBlocker(), ko);
  }

  Status s = Status::kOk;
  if (exo || flavor_ == Flavor::kOpenBsdCffs) {
    auto cffs = std::make_unique<fs::Cffs>(backend_.get());
    cffs_ = cffs.get();
    s = cffs->Mkfs();
    fs_ = std::move(cffs);
  } else {
    auto ffs = std::make_unique<fs::Ffs>(backend_.get());
    s = ffs->Mkfs();
    fs_ = std::move(ffs);
  }
  if (s != Status::kOk) {
    return s;
  }
  fs::FileSys& f = *fs_;

  // Install /bin with realistically sized binaries (exec demand-loads them through
  // the buffer cache, so first exec of a program pays disk time).
  s = f.Mkdir("/bin", 0);
  if (s != Status::kOk) {
    return s;
  }
  std::vector<uint8_t> chunk(hw::kBlockSize);
  for (const auto& [name, img] : programs_) {
    auto h = f.Open("/bin/" + name, /*create=*/true, 0);
    if (!h.ok()) {
      return h.status();
    }
    uint64_t size = static_cast<uint64_t>(img.text_kb) * 1024;
    for (uint64_t off = 0; off < size; off += chunk.size()) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(off + i);
      }
      uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(chunk.size(), size - off));
      auto w = f.Write(*h, off, std::span<const uint8_t>(chunk.data(), n), 0);
      if (!w.ok()) {
        return w.status();
      }
    }
  }
  s = f.Sync();
  if (s != Status::kOk) {
    return s;
  }
  machine_->counters().Reset();  // measurement starts after boot
  return Status::kOk;
}

void System::TouchSharedState() {
  if (flavor_ == Flavor::kXokExos && options_.protected_shared_state &&
      kernel_->current() != nullptr) {
    kernel_->SysNull(3);
  }
}

uint64_t System::syscall_count() const {
  if (flavor_ == Flavor::kXokExos) {
    return machine_->counters().Get("xok.syscalls");
  }
  return machine_->counters().Get("bsd.syscalls");
}

int System::SpawnInit(const std::string& program, std::function<void(UnixEnv&)> body) {
  int pid = NextPid();
  auto proc = std::make_unique<Proc>(this, pid, xok::kInvalidEnv, 7, program);
  Proc* raw = proc.get();
  procs_.push_back(std::move(proc));
  xok::EnvId env = kernel_->CreateEnv(
      xok::kInvalidEnv, {xok::Capability::Root()},
      [this, raw, program, body = std::move(body)] {
        body(*raw);
        proc_records_.push_back({program, kernel_->env(raw->env()).spawned_at,
                                 machine_->engine().now()});
      });
  raw->SetEnv(env);
  InstallRevocationHandler(kernel_.get(), env);
  pid_to_env_[pid] = env;
  return pid;
}

void System::Run() { kernel_->Run(); }

// ---- Proc ----

Proc::Proc(System* sys, int pid, xok::EnvId env, uint16_t uid, std::string program)
    : sys_(sys), pid_(pid), env_(env), uid_(uid), program_(std::move(program)) {}

void Proc::ChargeCall() {
  const auto& c = sys_->machine_->cost();
  if (IsExos()) {
    // The "syscall" is a procedure call into the libOS linked with the process.
    sys_->kernel_->ChargeCpu(c.libos_procedure_call);
  } else {
    sys_->kernel_->ChargeCpu(c.trap_round_trip + c.unix_syscall_dispatch);
    ++*sys_->bsd_syscall_counter_;
  }
}

int Proc::GetPid() {
  ChargeCall();
  sys_->kernel_->ChargeCpu(sys_->machine_->cost().getpid_body);
  return pid_;
}

Result<int> Proc::Open(const std::string& path, bool create) {
  ChargeCall();
  auto h = sys_->fs().Open(path, create, uid_);
  if (!h.ok()) {
    return h.status();
  }
  sys_->TouchSharedState();
  int fd = sys_->next_fd_++;
  sys_->fds_[fd] = {System::FdEntry::Kind::kFile, *h, 0, path, 0};
  return fd;
}

Status Proc::Close(int fd) {
  ChargeCall();
  auto it = sys_->fds_.find(fd);
  if (it == sys_->fds_.end()) {
    return Status::kNotFound;
  }
  sys_->TouchSharedState();
  if (it->second.kind != System::FdEntry::Kind::kFile) {
    auto pit = sys_->pipes_.find(it->second.pipe);
    if (pit != sys_->pipes_.end()) {
      System::PipeState& p = *pit->second;
      if (it->second.kind == System::FdEntry::Kind::kPipeWrite) {
        p.write_closed = true;
        if (p.region_shadow.size() >= 5) {
          p.region_shadow[4] = 1;  // predicate window: writer gone
        }
      } else {
        p.read_closed = true;
      }
    }
  }
  sys_->fds_.erase(it);
  return Status::kOk;
}

Result<uint32_t> Proc::Read(int fd, std::span<uint8_t> out) {
  ChargeCall();
  auto it = sys_->fds_.find(fd);
  if (it == sys_->fds_.end()) {
    return Status::kNotFound;
  }
  System::FdEntry& e = it->second;
  if (e.kind == System::FdEntry::Kind::kPipeRead) {
    return PipeRead(*sys_->pipes_.at(e.pipe), out);
  }
  if (e.kind != System::FdEntry::Kind::kFile) {
    return Status::kInvalidArgument;
  }
  auto n = sys_->fs().Read(e.handle, e.offset, out);
  if (!n.ok()) {
    return n;
  }
  sys_->TouchSharedState();  // the shared fd table's offset field is written
  e.offset += *n;
  return n;
}

Result<uint32_t> Proc::Write(int fd, std::span<const uint8_t> data) {
  ChargeCall();
  auto it = sys_->fds_.find(fd);
  if (it == sys_->fds_.end()) {
    return Status::kNotFound;
  }
  System::FdEntry& e = it->second;
  if (e.kind == System::FdEntry::Kind::kPipeWrite) {
    return PipeWrite(*sys_->pipes_.at(e.pipe), data);
  }
  if (e.kind != System::FdEntry::Kind::kFile) {
    return Status::kInvalidArgument;
  }
  auto n = sys_->fs().Write(e.handle, e.offset, data, uid_);
  if (!n.ok()) {
    return n;
  }
  sys_->TouchSharedState();
  e.offset += *n;
  return n;
}

Result<uint64_t> Proc::Seek(int fd, uint64_t off) {
  ChargeCall();
  auto it = sys_->fds_.find(fd);
  if (it == sys_->fds_.end()) {
    return Status::kNotFound;
  }
  sys_->TouchSharedState();
  it->second.offset = off;
  return off;
}

Result<fs::FileStat> Proc::Stat(const std::string& path) {
  ChargeCall();
  return sys_->fs().StatPath(path);
}

Result<fs::FileStat> Proc::FStat(int fd) {
  ChargeCall();
  auto it = sys_->fds_.find(fd);
  if (it == sys_->fds_.end()) {
    return Status::kNotFound;
  }
  return sys_->fs().StatHandle(it->second.handle);
}

Result<std::vector<fs::DirEnt>> Proc::ReadDir(const std::string& path) {
  ChargeCall();
  return sys_->fs().ReadDir(path);
}

Status Proc::Mkdir(const std::string& path) {
  ChargeCall();
  return sys_->fs().Mkdir(path, uid_);
}

Status Proc::Unlink(const std::string& path) {
  ChargeCall();
  return sys_->fs().Unlink(path, uid_);
}

Status Proc::Rename(const std::string& from, const std::string& to) {
  ChargeCall();
  return sys_->fs().Rename(from, to, uid_);
}

Status Proc::Sync() {
  ChargeCall();
  return sys_->fs().Sync();
}

Result<std::pair<int, int>> Proc::Pipe() {
  ChargeCall();
  sys_->TouchSharedState();
  auto p = std::make_unique<System::PipeState>();
  p->id = sys_->next_pipe_++;
  p->protected_mode = IsExos() && sys_->options_.protected_pipes;
  if (p->protected_mode) {
    // Pipe data lives in a software region; the first 8 bytes mirror (count, flags)
    // for the wakeup predicate's exposed window.
    auto r = sys_->kernel_->SysRegionCreate(p->capacity + 8, {}, 0);
    if (!r.ok()) {
      return r.status();
    }
    p->region = *r;
    p->region_shadow.assign(8, 0);
  }
  int pipe_id = p->id;
  sys_->pipes_[pipe_id] = std::move(p);
  int rfd = sys_->next_fd_++;
  int wfd = sys_->next_fd_++;
  sys_->fds_[rfd] = {System::FdEntry::Kind::kPipeRead, 0, 0, "", pipe_id};
  sys_->fds_[wfd] = {System::FdEntry::Kind::kPipeWrite, 0, 0, "", pipe_id};
  return std::make_pair(rfd, wfd);
}

Result<uint32_t> Proc::PipeRead(System::PipeState& p, std::span<uint8_t> out) {
  auto* kernel = sys_->kernel_.get();
  const auto& cost = sys_->machine_->cost();
  for (;;) {
    if (p.protected_mode) {
      // Table 2's "Protection" variant installs a wakeup predicate on every read —
      // gratuitously, even when data is already available.
      xok::WakeupPredicate pred;
      pred.program = PipePredicate();
      pred.live_window = &p.region_shadow;
      kernel->SysSleep(std::move(pred));
    }
    if (p.bytes == 0) {
      if (p.write_closed) {
        return 0u;  // EOF
      }
      System::PipeState* pp = &p;
      xok::WakeupPredicate pred;
      if (p.protected_mode) {
        pred.program = PipePredicate();
        pred.live_window = &p.region_shadow;
      } else {
        pred.host = [pp] { return pp->bytes > 0 || pp->write_closed; };
      }
      kernel->SysSleep(std::move(pred));
      continue;
    }
    uint32_t n = static_cast<uint32_t>(std::min<size_t>(out.size(), p.bytes));
    if (p.protected_mode) {
      // Kernel-mediated copy out of the software region (charges trap + copy).
      Status s = kernel->SysRegionRead(p.region, 8, out.subspan(0, n), 0);
      if (s != Status::kOk) {
        return s;
      }
      kernel->ChargeCpu(kExosPipeOp);
      // The data content mirror lives in buf (ring bookkeeping is libOS-private).
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = p.buf.front();
        p.buf.pop_front();
      }
    } else {
      kernel->ChargeCpu((IsExos() ? kExosPipeOp : kBsdPipeOp) + cost.CopyCost(n));
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = p.buf.front();
        p.buf.pop_front();
      }
    }
    p.bytes -= n;
    if (p.protected_mode) {
      std::memcpy(p.region_shadow.data(), &p.bytes, 4);
    }
    return n;
  }
}

Result<uint32_t> Proc::PipeWrite(System::PipeState& p, std::span<const uint8_t> data) {
  auto* kernel = sys_->kernel_.get();
  const auto& cost = sys_->machine_->cost();
  if (p.read_closed) {
    return Status::kInvalidArgument;  // EPIPE
  }
  size_t done = 0;
  while (done < data.size()) {
    if (p.bytes == p.capacity) {
      System::PipeState* pp = &p;
      xok::WakeupPredicate pred;
      pred.host = [pp] { return pp->bytes < pp->capacity || pp->read_closed; };
      kernel->SysSleep(std::move(pred));
      if (p.read_closed) {
        return Status::kInvalidArgument;
      }
      continue;
    }
    const bool was_empty = p.bytes == 0;
    uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(data.size() - done, p.capacity - p.bytes));
    if (p.protected_mode) {
      Status s = kernel->SysRegionWrite(p.region, 8, data.subspan(done, n), 0);
      if (s != Status::kOk) {
        return s;
      }
      kernel->ChargeCpu(kExosPipeOp);
    } else {
      kernel->ChargeCpu((IsExos() ? kExosPipeOp : kBsdPipeOp) + cost.CopyCost(n));
    }
    for (uint32_t i = 0; i < n; ++i) {
      p.buf.push_back(data[done + i]);
    }
    p.bytes += n;
    if (p.protected_mode) {
      std::memcpy(p.region_shadow.data(), &p.bytes, 4);
    }
    done += n;
    // ExOS pipes hand the rest of the slice to the other party when it has work to
    // do (directed yield, Sec. 5.2.1). On BSD the kernel merely wakes the sleeper.
    if (IsExos() && was_empty) {
      kernel->SysYield(xok::kInvalidEnv);
    }
  }
  return static_cast<uint32_t>(data.size());
}

Result<int> Proc::DoFork(const std::string& program, std::function<void(UnixEnv&)> body) {
  // fork(): duplicate the (current) address space.
  auto* kernel = sys_->kernel_.get();
  const ProgramImage& img = sys_->Image(program_);
  if (IsExos()) {
    kernel->ChargeCpu(kExosForkFixed + static_cast<sim::Cycles>(img.pages()) * kExosForkPerPage);
  } else {
    kernel->ChargeCpu(kBsdForkFixed + static_cast<sim::Cycles>(img.pages()) * kBsdForkPerPage);
  }
  sys_->TouchSharedState();  // process map + table updates

  int pid = sys_->NextPid();
  auto child = std::make_unique<Proc>(sys_, pid, xok::kInvalidEnv, uid_, program);
  Proc* raw = child.get();
  sys_->procs_.push_back(std::move(child));
  xok::EnvId child_env = kernel->CreateEnv(
      env_, {xok::Capability::Root()}, [this, raw, program, body = std::move(body)] {
        body(*raw);
        sys_->proc_records_.push_back({program, sys_->kernel_->env(raw->env()).spawned_at,
                                       sys_->machine_->engine().now()});
      });
  raw->SetEnv(child_env);
  InstallRevocationHandler(kernel, child_env);
  sys_->pid_to_env_[pid] = child_env;
  return pid;
}

Result<int> Proc::Fork(std::function<void(UnixEnv&)> body) {
  ChargeCall();
  return DoFork(program_, std::move(body));
}

Result<int> Proc::Spawn(const std::string& program, std::function<void(UnixEnv&)> body) {
  ChargeCall();
  auto* kernel = sys_->kernel_.get();
  const ProgramImage& img = sys_->Image(program);

  // exec(): demand-load the binary through the buffer cache and map its pages.
  auto h = sys_->fs().Open("/bin/" + program, false, 0);
  if (h.ok()) {
    auto st = sys_->fs().StatHandle(*h);
    if (st.ok()) {
      std::vector<uint8_t> page(hw::kBlockSize);
      for (uint64_t off = 0; off < st->size; off += page.size()) {
        auto n = sys_->fs().Read(*h, off, page);
        if (!n.ok() || *n == 0) {
          break;
        }
      }
    }
    const auto& c = sys_->machine_->cost();
    kernel->ChargeCpu(static_cast<sim::Cycles>(img.pages()) *
                      (IsExos() ? c.pte_update_batched : c.pte_update_kernel));
  }

  return DoFork(program, std::move(body));
}

Result<int> Proc::Wait(int pid) {
  ChargeCall();
  auto it = sys_->pid_to_env_.find(pid);
  if (it == sys_->pid_to_env_.end()) {
    return Status::kNotFound;
  }
  auto r = sys_->kernel_->SysWait(it->second);
  if (r.ok()) {
    sys_->TouchSharedState();  // reaping updates the shared process table
    sys_->pid_to_env_.erase(it);
  }
  return r;
}

Result<int> Proc::WaitAny() {
  ChargeCall();
  // Collect this process's live children.
  std::vector<int> children;
  for (const auto& [pid, envid] : sys_->pid_to_env_) {
    if (sys_->kernel_->EnvExists(envid) && sys_->kernel_->env(envid).parent == env_) {
      children.push_back(pid);
    }
  }
  if (children.empty()) {
    return Status::kNotFound;
  }
  auto find_zombie = [this, children]() -> int {
    for (int pid : children) {
      auto it = sys_->pid_to_env_.find(pid);
      if (it != sys_->pid_to_env_.end() && sys_->kernel_->EnvExists(it->second) &&
          sys_->kernel_->env(it->second).state == xok::EnvState::kZombie) {
        return pid;
      }
    }
    return -1;
  };
  if (find_zombie() < 0) {
    xok::WakeupPredicate p;
    p.host = [find_zombie] { return find_zombie() >= 0; };
    sys_->kernel_->SysSleep(std::move(p));
  }
  int pid = find_zombie();
  EXO_CHECK_GE(pid, 0);
  auto r = sys_->kernel_->SysWait(sys_->pid_to_env_.at(pid));
  if (!r.ok()) {
    return r.status();
  }
  sys_->TouchSharedState();
  sys_->pid_to_env_.erase(pid);
  return pid;
}

void Proc::Compute(sim::Cycles cycles) { sys_->kernel_->ChargeCpu(cycles); }

void Proc::TouchData(uint64_t bytes) {
  sys_->kernel_->ChargeCpu(sys_->machine_->cost().CompareCost(bytes));
}

sim::Cycles Proc::Now() const { return sys_->machine_->engine().now(); }

void Proc::Yield() { sys_->kernel_->SysYield(); }

}  // namespace exo::os
