// Quickstart: boot a complete exokernel system (Xok + XN + C-FFS + ExOS), run a
// couple of processes, and watch the exposed kernel state.
//
//   $ ./examples/quickstart
//
// The simulated machine matches the paper's testbed: a 200-MHz Pentium Pro with
// 64 MB of RAM and a Quantum-Atlas-like SCSI disk. Everything below runs in
// simulated time; the printed timings are what the 1997 hardware would have done.
#include <cstdio>

#include "apps/unix_apps.h"
#include "exos/system.h"

using namespace exo;

int main() {
  // One simulated machine, one event engine.
  sim::Engine engine;
  hw::MachineConfig cfg;
  cfg.mem_frames = 16384;                                   // 64 MB
  cfg.disks = {hw::DiskGeometry{.num_blocks = 64 * 256}};   // 64 MB disk
  hw::Machine machine(&engine, cfg);

  // Boot the exokernel flavor: Xok + XN (UDF-verified storage) + ExOS + C-FFS.
  os::System sys(&machine, os::Flavor::kXokExos);
  if (sys.Boot() != Status::kOk) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }
  std::printf("booted %s: %u free disk blocks, %u free frames\n",
              os::FlavorName(sys.flavor()), sys.fs().backend().free_map().free_count(),
              machine.mem().free_frames());

  // Run an init process that writes a file, spawns a child to read it back, and
  // talks to the child over a pipe.
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    const char* text = "hello from the exokernel\n";
    auto fd = env.Open("/hello.txt", /*create=*/true);
    env.Write(*fd, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text),
                                            strlen(text)));
    env.Close(*fd);

    auto pipe = env.Pipe();
    auto child = env.Spawn("wc", [&](os::UnixEnv& c) {
      auto lines = apps::Wc(c, "/hello.txt");
      std::printf("[child pid %d] /hello.txt has %llu line(s)\n", c.GetPid(),
                  static_cast<unsigned long long>(*lines));
      uint8_t byte = static_cast<uint8_t>(*lines);
      c.Write(pipe->second, std::span<const uint8_t>(&byte, 1));
    });
    uint8_t result = 0;
    env.Read(pipe->first, std::span<uint8_t>(&result, 1));
    env.Wait(*child);
    std::printf("[parent] child reported %u line(s) over the pipe\n", result);

    // Exposed kernel state costs nothing to read (the exokernel way).
    std::printf("[parent] %zu blocks in the buffer-cache registry, clock %.3f ms\n",
                sys.xn()->registry().size(),
                static_cast<double>(env.Now()) / 200'000.0);
  });
  sys.Run();

  std::printf("done at simulated t=%.3f ms; %llu system calls\n",
              engine.now_seconds() * 1e3,
              static_cast<unsigned long long>(sys.syscall_count()));
  return 0;
}
