// The unmodified UNIX applications of Sections 6 and 8, written once against
// UnixEnv: cp, gzip/gunzip (real LZSS), pax (real archive format), diff, gcc (cost-
// modeled compile over real file I/O), rm, wc, grep, cksum, and the CPU-bound tsp
// and sor jobs (cost-modeled: only their cycles reach any figure). Each function is
// one program run (what a shell would exec).
#ifndef EXO_APPS_UNIX_APPS_H_
#define EXO_APPS_UNIX_APPS_H_

#include <cstddef>
#include <string>

#include "exos/unix_env.h"

namespace exo::apps {

// The size of every read and write these programs make.
constexpr size_t kIoChunk = 64 * 1024;

// cp src dst (single file).
Status Cp(os::UnixEnv& env, const std::string& src, const std::string& dst);
// cp -r srcdir dstdir.
Status CpR(os::UnixEnv& env, const std::string& src, const std::string& dst);
// gzip src > dst (LZSS; charges compression CPU).
Status Gzip(os::UnixEnv& env, const std::string& src, const std::string& dst);
Status Gunzip(os::UnixEnv& env, const std::string& src, const std::string& dst);
// pax -w dir > archive  /  pax -r archive under dstdir.
Status PaxWrite(os::UnixEnv& env, const std::string& dir, const std::string& archive);
Status PaxRead(os::UnixEnv& env, const std::string& archive, const std::string& dstdir);
// diff -r a b; returns number of differing/missing files.
Result<int> DiffTree(os::UnixEnv& env, const std::string& a, const std::string& b);
Result<int> DiffFile(os::UnixEnv& env, const std::string& a, const std::string& b);
// gcc: compile every .c under dir, writing .o files beside the sources.
Status GccBuild(os::UnixEnv& env, const std::string& dir);
// rm -r of a subtree (or one file).
Status RmTree(os::UnixEnv& env, const std::string& path);
// Delete only files matching an extension (rm *.o).
Status RmByExt(os::UnixEnv& env, const std::string& dir, const std::string& ext);
// wc, grep and cksum stream each file: they scan every kIoChunk read in place as
// it arrives, then charge one TouchData for the file after closing it.
// wc over one file; returns line count.
Result<uint64_t> Wc(os::UnixEnv& env, const std::string& path);
// grep pattern file; returns the number of positions where `pattern` starts,
// overlapping matches and matches that straddle two reads included (0 for an
// empty pattern). Charges TouchData of twice the file size.
Result<uint64_t> Grep(os::UnixEnv& env, const std::string& pattern, const std::string& path);
// cksum over the files of `dir` in directory order, `rounds` times (CPU-heavy on
// cached data): sum = sum * 131 + byte mod 2^64, chained across files and rounds.
Result<uint64_t> Cksum(os::UnixEnv& env, const std::string& dir, int rounds);
// Travelling salesman: `iterations` 2-opt passes over `ncities` cities, each
// charged as ncities^2 * 18 cycles of CPU. Returns the cycles charged. The seed
// does not change the cost.
Result<sim::Cycles> Tsp(os::UnixEnv& env, int ncities, int iterations, uint64_t seed);
// Successive over-relaxation: `iterations` sweeps of an n x n grid, each charged
// as n^2 * 14 cycles of CPU. Returns the cycles charged.
Result<sim::Cycles> Sor(os::UnixEnv& env, int n, int iterations);

// Per-byte compile cost for the gcc model (parse+optimize+emit on a 200-MHz PPro
// compiles a few thousand lines/s — roughly 300 cycles per source byte).
constexpr double kCompileCyclesPerByte = 900.0;

}  // namespace exo::apps

#endif  // EXO_APPS_UNIX_APPS_H_
