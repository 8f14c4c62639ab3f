// System: one booted operating system on one simulated machine.
//
// Four flavors reproduce the paper's comparison matrix (Sec. 6):
//   kXokExos     — Xok exokernel + ExOS libOS + C-FFS-over-XN (libFS).
//   kOpenBsdCffs — monolithic kernel, C-FFS in the kernel, small fixed buffer cache.
//   kOpenBsd     — monolithic kernel, FFS (sync metadata), small fixed buffer cache.
//   kFreeBsd     — monolithic kernel, FFS, unified buffer cache.
//
// All flavors share the scheduling substrate (environments on fibers, stride-scheduled
// slices — both kernels schedule the same way); what differs is everything the paper
// varies: where the file system runs and how it is protected, per-syscall overhead,
// pipe implementations, fork cost, and buffer-cache policy.
//
// ExOS specifics implemented here per Sec. 5.2.1:
//   - the file-descriptor table and process map live in shared state; in protected
//     mode every write to them is preceded by three system calls (the Sec. 6.3
//     accounting of not-yet-protected abstractions);
//   - pipes come in the two Table 2 variants: shared-memory (trusting) and
//     software-region-based with a downloaded wakeup predicate on every read;
//   - fork charges what rebuilding the child's address space through batched
//     page-table syscalls costs (Xok environments cannot share page tables, which
//     is why ExOS fork costs ~6 ms, Sec. 6.2).
#ifndef EXO_EXOS_SYSTEM_H_
#define EXO_EXOS_SYSTEM_H_

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "exos/unix_env.h"
#include "fs/cffs.h"
#include "fs/ffs.h"
#include "fs/fs_api.h"
#include "fs/kernel_backend.h"
#include "fs/xn_backend.h"
#include "hw/machine.h"
#include "xn/xn.h"
#include "xok/kernel.h"

namespace exo::os {

enum class Flavor { kXokExos, kOpenBsdCffs, kOpenBsd, kFreeBsd };

const char* FlavorName(Flavor f);

struct SystemOptions {
  // ExOS: charge 3 syscalls before each shared-state write (Sec. 6.3); on by
  // default so base measurements estimate a fully protected ExOS, as in the paper.
  bool protected_shared_state = true;
  // ExOS pipes: software regions + wakeup predicate per read (Table 2 "Protection")
  // versus shared memory (Table 2 "Shared memory").
  bool protected_pipes = false;
  // Skip XN entirely (Sec. 6.3 measures the workload "without XN or the extra
  // system calls"): C-FFS then runs on a trusted kernel backend even under ExOS.
  bool disable_xn = false;
};

// Program metadata driving exec (binary size => demand-load and map costs) and fork
// (address-space size => COW setup costs).
struct ProgramImage {
  uint32_t text_kb = 40;
  uint32_t data_kb = 64;
  uint32_t pages() const { return (text_kb + data_kb) / 4 + 16; }  // +stack
};

class Proc;

class System {
 public:
  System(hw::Machine* machine, Flavor flavor, const SystemOptions& options = {});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Formats the disk, mounts the flavor's file system, installs /bin binaries.
  Status Boot();

  // Spawns a top-level process (no parent); body runs when Run() schedules it.
  int SpawnInit(const std::string& program, std::function<void(UnixEnv&)> body);
  // Drives the machine until every process has exited.
  void Run();

  // Process completion times for the global-performance figures (Sec. 8).
  struct ProcRecord {
    std::string program;
    sim::Cycles spawned_at = 0;
    sim::Cycles exited_at = 0;
  };
  const std::vector<ProcRecord>& proc_records() const { return proc_records_; }

  fs::FileSys& fs() { return *fs_; }
  xok::XokKernel& kernel() { return *kernel_; }
  hw::Machine& machine() { return *machine_; }
  Flavor flavor() const { return flavor_; }
  const SystemOptions& options() const { return options_; }
  xn::Xn* xn() { return xn_.get(); }
  fs::Cffs* cffs() { return cffs_; }

  // Registered program images (exec cost model).
  const ProgramImage& Image(const std::string& name) const;

  uint64_t syscall_count() const;

 private:
  friend class Proc;

  struct PipeState {
    bool protected_mode = false;
    std::deque<uint8_t> buf;              // shared-memory variant
    xok::RegionId region = 0;             // protected variant: data ring
    std::vector<uint8_t> region_shadow;   // exposed window the predicate reads
    uint32_t capacity = 16384;
    uint32_t bytes = 0;  // current fill (mirrored into region_shadow[0..3])
    bool read_closed = false;
    bool write_closed = false;
    int id = 0;
  };

  struct FdEntry {
    enum class Kind : uint8_t { kFile, kPipeRead, kPipeWrite } kind = Kind::kFile;
    uint64_t handle = 0;  // FileSys handle
    uint64_t offset = 0;
    std::string path;
    int pipe = 0;
  };

  // Charged before every write to not-yet-protected shared ExOS state (Sec. 6.3).
  void TouchSharedState();
  fs::Blocker MakeBlocker();
  int NextPid() { return next_pid_++; }

  hw::Machine* machine_;
  Flavor flavor_;
  SystemOptions options_;
  uint64_t* bsd_syscall_counter_;  // cached slot: Proc::ChargeCall is hot

  std::unique_ptr<xok::XokKernel> kernel_;
  std::unique_ptr<xn::Xn> xn_;
  std::unique_ptr<fs::FsBackend> backend_;
  std::unique_ptr<fs::FileSys> fs_;
  fs::Cffs* cffs_ = nullptr;  // fs_ when it is C-FFS (XCP reaches the layout)

  // Shared ExOS state (fd table, process map, pipes). On a real ExOS these live in
  // shared memory / software regions; writes are charged via TouchSharedState.
  std::map<int, FdEntry> fds_;
  int next_fd_ = 3;
  std::map<int, std::unique_ptr<PipeState>> pipes_;
  int next_pipe_ = 1;
  std::map<int, xok::EnvId> pid_to_env_;
  int next_pid_ = 1;

  std::map<std::string, ProgramImage> programs_;
  std::vector<ProcRecord> proc_records_;
  std::vector<std::unique_ptr<Proc>> procs_;
};

// One process's view of the system: ExOS instance linked into the process, or the
// user side of the BSD syscall interface.
class Proc : public UnixEnv {
 public:
  Proc(System* sys, int pid, xok::EnvId env, uint16_t uid, std::string program);

  int GetPid() override;
  uint16_t Uid() const override { return uid_; }
  Result<int> Open(const std::string& path, bool create) override;
  Status Close(int fd) override;
  Result<uint32_t> Read(int fd, std::span<uint8_t> out) override;
  Result<uint32_t> Write(int fd, std::span<const uint8_t> data) override;
  Result<uint64_t> Seek(int fd, uint64_t off) override;
  Result<fs::FileStat> Stat(const std::string& path) override;
  Result<fs::FileStat> FStat(int fd) override;
  Result<std::vector<fs::DirEnt>> ReadDir(const std::string& path) override;
  Status Mkdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Sync() override;
  Result<std::pair<int, int>> Pipe() override;
  Result<int> Spawn(const std::string& program, std::function<void(UnixEnv&)> body) override;
  Result<int> Fork(std::function<void(UnixEnv&)> body) override;
  Result<int> Wait(int pid) override;
  Result<int> WaitAny() override;
  void Compute(sim::Cycles cycles) override;
  void TouchData(uint64_t bytes) override;
  sim::Cycles Now() const override;
  void Yield() override;

  xok::EnvId env() const { return env_; }
  void SetEnv(xok::EnvId env) { env_ = env; }

 private:
  // Per-call overhead: a libOS procedure call on ExOS, a kernel crossing on BSD.
  void ChargeCall();
  Result<int> DoFork(const std::string& program, std::function<void(UnixEnv&)> body);
  bool IsExos() const { return sys_->flavor_ == Flavor::kXokExos; }

  Result<uint32_t> PipeRead(System::PipeState& p, std::span<uint8_t> out);
  Result<uint32_t> PipeWrite(System::PipeState& p, std::span<const uint8_t> data);

  System* sys_;
  int pid_;
  xok::EnvId env_;
  uint16_t uid_;
  std::string program_;
};

}  // namespace exo::os

#endif  // EXO_EXOS_SYSTEM_H_
