//===- bench/bench_tune.cpp - E19: simulator-guided autotuning ----------------===//
//
// The `mao --tune` search (src/tune) on three kernels where a fixed
// heuristic pipeline is not optimal:
//
//  - fig1:  the Fig. 1 181.mcf loop without its strategic NOP — the win
//           is a directed NOP insertion the default pipeline cannot place.
//  - lsd:   the Figs. 4/5 decode-line-split loop — the win is a joint
//           alignment/padding choice beyond LSDOPT's fixed parameters.
//  - alias: the 252.eon bucket-sensitive pair — the default pipeline
//           DEGRADES this code (LOOP16 padding aliases two branches); the
//           tuner's win is disabling the harmful pass.
//
// For each kernel the bench reports baseline, default-pipeline, and tuned
// cycles plus the search statistics. Runs through the public facade.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <chrono>

using namespace maobench;

namespace {

std::string fig1Kernel() {
  return "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
         "bench_main:\n"
         "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
         "\tmovq $0x300000, %rdi\n\tmovq $0x340000, %rsi\n"
         "\txorq %r8, %r8\n\tmovl $600, %r9d\n\txorl %r10d, %r10d\n"
         "\t.p2align 5\n\tnop12\n"
         ".L3:\n"
         "\tmovsbl 1(%rdi,%r8,4), %edx\n\tmovsbl (%rdi,%r8,4), %eax\n"
         "\taddl %eax, %edx\n\tmovl %edx, (%rsi,%r8,4)\n"
         "\taddq $1, %r8\n\tcmpl $1, %r10d\n\tje .LEXIT\n"
         ".L5:\n"
         "\tmovsbl 1(%rdi,%r8,4), %edx\n\tmovsbl (%rdi,%r8,4), %eax\n"
         "\taddl %eax, %edx\n\tmovl %edx, (%rsi,%r8,4)\n"
         "\taddq $1, %r8\n\tcmpl %r8d, %r9d\n\tjg .L3\n"
         ".LEXIT:\n\tmovl $0, %eax\n\tleave\n\tret\n"
         "\t.size bench_main, .-bench_main\n";
}

std::string lsdKernel() {
  return "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
         "bench_main:\n"
         "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
         "\tmovl $600, %r10d\n\tmovl $0, %r8d\n"
         "\tmovl $1, %ecx\n\tmovl $2, %edx\n"
         "\t.p2align 4\n\tnop15\n"
         ".L0:\n\tcmpl %ecx, %edx\n\tjne .L1\n"
         "\taddl $3, %r9d\n\tjmp .L1\n"
         ".L1:\n\taddl $7, %r9d\n\tmovl %ecx, %edx\n"
         "\taddl $1, %esi\n\taddl $2, %edi\n\taddl $3, %r11d\n"
         "\taddl $4, %esi\n\taddl $5, %edi\n\taddl $6, %r11d\n"
         "\taddl $7, %esi\n\tjmp .L2\n"
         ".L2:\n\taddl $1, %r10d\n\taddl $9, %r8d\n\taddl $1, %esi\n"
         "\tsubl $2, %r10d\n\tjne .L0\n"
         "\tmovl $0, %eax\n\tleave\n\tret\n"
         "\t.size bench_main, .-bench_main\n";
}

std::string aliasKernel() {
  return "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n"
         "bench_main:\n"
         "\tpushq %rbp\n\tmovq %rsp, %rbp\n"
         "\txorl %eax, %eax\n\txorl %ebx, %ebx\n"
         "\tmovl $7, %r14d\n\tmovl $400, %r15d\n"
         "\t.p2align 5\n\tnop6\n"
         ".LOuter:\n\tmovl $2, %ecx\n"
         ".LSplit:\n\taddl $1, %eax\n\tsubl $1, %ecx\n\tjne .LSplit\n"
         "\tmovl $8, %ecx\n"
         ".LInner:\n\taddl $1, %ebx\n\tsubl $1, %ecx\n\tjne .LInner\n"
         "\tcmpl $0, %r14d\n\tje .LNever\n"
         "\tnop15\n\tnop11\n"
         "\tsubl $1, %r15d\n\tjne .LOuter\n\tjmp .LDone\n"
         ".LNever:\n\taddl $7, %eax\n\tjmp .LDone\n"
         ".LDone:\n\tmovl $0, %eax\n\tleave\n\tret\n"
         "\t.size bench_main, .-bench_main\n";
}

void tuneOne(mao::api::Session &Session, BenchReport &Report,
             const std::string &Label, const std::string &Asm) {
  mao::api::Program Program = parseOrDie(Session, Asm);
  mao::api::TuneRequest Request;
  Request.Budget = "medium";
  Request.Jobs = 0; // All hardware threads; the result is seed-determined.
  mao::api::TuneSummary Tune;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  if (mao::api::Status S = Session.tune(Program, Request, Tune); !S.Ok) {
    std::fprintf(stderr, "bench: tune failed: %s\n", S.Message.c_str());
    std::exit(1);
  }
  const double Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  std::printf("%-6s baseline %7llu  default %7llu  tuned %7llu cycles  "
              "(%+.2f%% vs default; %u evals, %llu cache hits)\n",
              Label.c_str(), (unsigned long long)Tune.BaselineCycles,
              (unsigned long long)Tune.DefaultCycles,
              (unsigned long long)Tune.TunedCycles,
              percentGain(Tune.DefaultCycles, Tune.TunedCycles),
              Tune.Evaluations, (unsigned long long)Tune.ScoreCacheHits);
  std::printf("       winner: --mao-passes=%s\n", Tune.TunedPipeline.c_str());
  Report.set(Label + "_gain_vs_default_pct",
             percentGain(Tune.DefaultCycles, Tune.TunedCycles));
  Report.set(Label + "_evaluations", Tune.Evaluations);
  Report.set(Label + "_candidates_per_s",
             Seconds > 0 ? Tune.Evaluations / Seconds : 0.0);
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("tune");
  printHeader("E19: simulator-guided autotuning (mao --tune, Core-2 model, "
              "seed 1, medium budget)");
  mao::api::Session Session;
  tuneOne(Session, Report, "fig1", fig1Kernel());
  tuneOne(Session, Report, "lsd", lsdKernel());
  tuneOne(Session, Report, "alias", aliasKernel());
  return Report.write(benchJsonPath(argc, argv, Report.name())) ? 0 : 1;
}
