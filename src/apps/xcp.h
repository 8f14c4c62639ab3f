// XCP: the "zero-touch" file copier (Sec. 7.2).
//
// XCP exploits the exokernel's low-level disk interface:
//   1. it enumerates and sorts the disk blocks of all source files and issues large
//      asynchronous reads in one schedule (the disk driver merges concurrent
//      schedules);
//   2. it creates the destination files at their full size, overlapping inode and
//      block allocation with the reads;
//   3. as reads complete it constructs large writes *reusing the very same cache
//      frames* — the data is DMAed into and out of the buffer cache by the disk
//      controller and the CPU never touches it.
//
// Only the exokernel configuration can run XCP: it needs C-FFS's layout calls
// (BlockAt, CreateSized) and direct XN registry access, which the kernel-resident
// file systems do not expose.
#ifndef EXO_APPS_XCP_H_
#define EXO_APPS_XCP_H_

#include <string>
#include <vector>

#include "exos/system.h"

namespace exo::apps {

struct XcpStats {
  uint64_t blocks_copied = 0;
  uint64_t read_requests = 0;
};

// Copies each srcs[i] to dstdir/<leaf> and returns once its write schedule is
// submitted: an unprivileged daemon may flush unowned dirty blocks (Sec. 4.3.3),
// so the program need not wait. Must run inside a process on an
// exokernel-flavor System.
Result<XcpStats> Xcp(os::System& sys, os::UnixEnv& env, const std::vector<std::string>& srcs,
                     const std::string& dstdir);

}  // namespace exo::apps

#endif  // EXO_APPS_XCP_H_
