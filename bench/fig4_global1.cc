// Figure 4: global performance with the first application pool — a mix of I/O- and
// CPU-intensive programs on which Xok/ExOS and FreeBSD run roughly equivalently in
// isolation (pax -w, grep, cksum, tsp, sor, wc, gcc, gzip, gunzip). number/number is
// total jobs / maximum concurrency. Paper: the exokernel achieves performance
// roughly comparable to FreeBSD despite being untuned for global performance.
#include "bench/global_common.h"

int main(int argc, char** argv) {
  using namespace exo;
  using namespace exo::bench;

  const TraceOptions trace_opts = ParseTraceArgs(argc, argv);
  auto setup_shared = [](os::UnixEnv& env, int) { MakeSharedInputs(env, false); };
  constexpr int kCksumRounds = 40;
  const SharedAnswers want = ExpectedAnswers(kCksumRounds);

  std::vector<GlobalJob> pool = {
      {"pax",
       [](os::UnixEnv& e, int i) {
         EXO_CHECK_EQ(apps::PaxWrite(e, "/shared/t", "/job" + std::to_string(i) + "/t.pax"),
                      Status::kOk);
       },
       setup_shared},
      {"grep",
       [&want](os::UnixEnv& e, int) {
         for (int r = 0; r < 6; ++r) {
           EXO_CHECK_EQ(*apps::Grep(e, "symbol", "/shared/big.txt"), want.grep_symbol);
         }
       },
       setup_shared},
      {"cksum",
       [&want](os::UnixEnv& e, int) {
         EXO_CHECK_EQ(*apps::Cksum(e, "/shared/t", kCksumRounds), want.cksum);
       },
       setup_shared},
      {"tsp", [](os::UnixEnv& e, int) { EXO_CHECK(apps::Tsp(e, 500, 30, 7).ok()); }, {}},
      {"sor", [](os::UnixEnv& e, int) { EXO_CHECK(apps::Sor(e, 300, 60).ok()); }, {}},
      {"wc",
       [&want](os::UnixEnv& e, int) {
         for (int r = 0; r < 8; ++r) {
           EXO_CHECK_EQ(*apps::Wc(e, "/shared/big.txt"), want.wc_lines);
         }
       },
       setup_shared},
      {"gcc",
       [](os::UnixEnv& e, int i) {
         std::string dir = "/job" + std::to_string(i) + "/t";
         EXO_CHECK_EQ(apps::CpR(e, "/shared/t", dir), Status::kOk);
         EXO_CHECK_EQ(apps::GccBuild(e, dir), Status::kOk);
       },
       setup_shared},
      {"gzip",
       [](os::UnixEnv& e, int i) {
         EXO_CHECK_EQ(apps::Gzip(e, "/shared/big.txt",
                                 "/job" + std::to_string(i) + "/big.gz"),
                      Status::kOk);
       },
       setup_shared},
      {"gunzip",
       [](os::UnixEnv& e, int i) {
         std::string gz = "/job" + std::to_string(i) + "/in.gz";
         EXO_CHECK_EQ(apps::Gzip(e, "/shared/big.txt", gz), Status::kOk);
         EXO_CHECK_EQ(apps::Gunzip(e, gz, "/job" + std::to_string(i) + "/out.txt"),
                      Status::kOk);
       },
       setup_shared},
  };

  PrintGlobalTable("Figure 4: global performance, application pool 1 (seconds)", pool, 11,
                   trace_opts);
  std::printf("\npaper: Xok/ExOS achieves throughput and latency roughly comparable to\n");
  std::printf("FreeBSD across all concurrency levels, despite decentralized management\n");
  return 0;
}
