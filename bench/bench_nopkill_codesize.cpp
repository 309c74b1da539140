//===- bench/bench_nopkill_codesize.cpp - E17: Nop Killer code size -----------===//
//
// Paper Sec. III-E-j: removing all alignment NOPs changed performance only
// within noise on most benchmarks but "resulted in a code size improvement
// of about 1%."
//
// This bench runs entirely through the public facade (mao/Mao.h): parse,
// optimize, and assemble are the same calls an external embedder makes.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "workload/Workload.h"

using namespace maobench;

namespace {

uint64_t textBytes(mao::api::Session &Session, mao::api::Program &Program) {
  mao::api::AssembledBytes Bytes;
  if (mao::api::Status S = Session.assemble(Program, Bytes); !S.Ok) {
    std::fprintf(stderr, "assemble failed: %s\n", S.Message.c_str());
    std::exit(1);
  }
  uint64_t Total = 0;
  for (const auto &[Section, Data] : Bytes)
    if (Section.rfind(".text", 0) == 0)
      Total += Data.size();
  return Total;
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("nopkill_codesize");
  printHeader("E17: NOPKILL code-size effect (paper: ~1% smaller, perf in "
              "the noise)");
  mao::api::Session Session;

  double TotalBase = 0, TotalKilled = 0;
  std::printf("%-14s %10s %10s %8s\n", "benchmark", "bytes", "killed",
              "saving");
  for (const mao::WorkloadSpec &Spec : mao::spec2000IntProfiles()) {
    std::string Asm = mao::generateWorkloadAssembly(Spec);
    mao::api::Program Base = parseOrDie(Session, Asm);
    mao::api::Program Killed = parseOrDie(Session, Asm);
    applyPasses(Session, Killed, "NOPKILL");
    uint64_t B0 = textBytes(Session, Base);
    uint64_t B1 = textBytes(Session, Killed);
    TotalBase += static_cast<double>(B0);
    TotalKilled += static_cast<double>(B1);
    std::printf("%-14s %10llu %10llu %+7.2f%%\n", Spec.Name.c_str(),
                (unsigned long long)B0, (unsigned long long)B1,
                100.0 * (static_cast<double>(B0) - static_cast<double>(B1)) /
                    static_cast<double>(B0));
  }
  std::printf("\nsuite total: %.0f -> %.0f bytes, %.2f%% smaller "
              "(paper: ~1%%)\n",
              TotalBase, TotalKilled,
              100.0 * (TotalBase - TotalKilled) / TotalBase);
  Report.set("suite_bytes_base", TotalBase);
  Report.set("suite_bytes_killed", TotalKilled);
  Report.set("saving_pct", 100.0 * (TotalBase - TotalKilled) / TotalBase);
  return Report.write(benchJsonPath(argc, argv, Report.name())) ? 0 : 1;
}
