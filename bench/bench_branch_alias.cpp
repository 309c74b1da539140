//===- bench/bench_branch_alias.cpp - E6: branch-predictor aliasing -----------===//
//
// Paper Sec. III-C-g: two short-running loops place their back branches in
// the same PC>>5 predictor bucket; the constantly-confused shared counter
// mispredicts chronically. "Moving the second branch instruction down via
// NOP insertion ... speeds up a full image manipulation benchmark by 3%."
// The BRALIGN pass automates the separation.
//
// This bench runs entirely through the public facade (mao/Mao.h): parse,
// optimize, and measure are the same calls an external embedder makes.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

using namespace maobench;

namespace {

/// Two short loops re-entered from an outer loop, plus enough surrounding
/// "image manipulation" work that the aliasing costs a few percent overall.
std::string imageBenchmark(unsigned NeutralIters) {
  std::string S;
  S += "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n";
  S += "bench_main:\n";
  S += "\tpushq %rbp\n\tmovq %rsp, %rbp\n";
  // Surrounding latency-bound work.
  S += "\tmovl $" + std::to_string(NeutralIters) + ", %ecx\n";
  S += ".LWORK:\n";
  S += "\timull $3, %eax, %eax\n";
  S += "\timull $5, %eax, %eax\n";
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LWORK\n";
  // The paper's two-deep nest: two short-running loops (iteration counts
  // 1 and 2) whose back branches land in the same 32-byte bucket. Their
  // taken patterns conflict — the shared 2-bit counter mispredicts on
  // nearly every branch until BRALIGN moves the second one out.
  S += "\tmovl $800, %r15d\n";
  S += "\t.p2align 5\n";
  S += ".LOUTER:\n";
  S += "\tmovl $1, %ecx\n";
  S += ".LI1:\n";
  S += "\taddl $1, %eax\n";
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LI1\n"; // Iteration count 1: never taken.
  S += "\tmovl $2, %ecx\n";
  S += ".LI2:\n";
  S += "\taddl $1, %edx\n";
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LI2\n"; // Iteration count 2: alternates taken/not-taken.
  S += "\tsubl $1, %r15d\n";
  S += "\tjne .LOUTER\n";
  S += ".LDONE:\n";
  S += "\tmovl $0, %eax\n\tleave\n\tret\n";
  S += "\t.size bench_main, .-bench_main\n";
  return S;
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("branch_alias");
  printHeader("E6: branch-predictor aliasing by PC>>5 and the BRALIGN "
              "pass (Core-2 model)");
  mao::api::Session Session;

  mao::api::Program Before = parseOrDie(Session, imageBenchmark(200000));
  mao::api::Program After = parseOrDie(Session, imageBenchmark(200000));
  unsigned Fixes = applyPasses(Session, After, "BRALIGN");

  mao::api::MeasureSummary P0 = measure(Session, Before, "core2");
  mao::api::MeasureSummary P1 = measure(Session, After, "core2");
  std::printf("BRALIGN separated %u colliding branch pair(s)\n", Fixes);
  std::printf("mispredicts: before %llu, after %llu\n",
              (unsigned long long)P0.BranchMispredicts,
              (unsigned long long)P1.BranchMispredicts);
  printRow("image benchmark", 3.00, percentGain(P0.Cycles, P1.Cycles));
  Report.set("separated_pairs", Fixes);
  Report.set("mispredicts_before", static_cast<double>(P0.BranchMispredicts));
  Report.set("mispredicts_after", static_cast<double>(P1.BranchMispredicts));
  Report.set("gain_pct", percentGain(P0.Cycles, P1.Cycles));
  return Report.write(benchJsonPath(argc, argv, Report.name())) ? 0 : 1;
}
