//===- bench/bench_relaxation.cpp - E2: repeated relaxation -------------------===//
//
// Paper Sec. II: the relaxation example (a 2-byte jmp growing to 5 bytes
// when a NOP pushes its target out of rel8 range) and the claim that, with
// a built-in limit of 100 iterations, "in practice almost every relaxation
// succeeds in a few iterations, and it never fails". This harness
// reproduces the example byte-for-byte, measures what one alignment pad
// costs a maintained layout at two corpus scales, and profiles repeated
// relaxation over the synthetic SPEC corpus with google-benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "analysis/Relaxer.h"
#include "support/Stats.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace maobench;

namespace {

std::string relaxExample(bool WithNop) {
  // Byte-exact reconstruction of the paper's example: the jmp at offset
  // 0xb has displacement 0x7f to the cmpl at 0x8c — the last value that
  // still fits rel8. The inserted nop pushes the target to 0x90 and the
  // branch must grow to the 5-byte e9 form.
  std::string S = "\t.text\n\t.type main, @function\nmain:\n";
  S += "\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl $5, -4(%rbp)\n";
  S += "\tjmp .LTAIL\n.LBODY:\n";
  for (int I = 0; I < 15; ++I)
    S += "\taddl $1, -4(%rbp)\n\tsubl $1, -4(%rbp)\n";
  S += "\tnop7\n"; // pad the body to exactly 127 bytes
  if (WithNop)
    S += "\tnop\n"; // the paper's single-byte insertion before cmpl
  S += ".LTAIL:\n\tcmpl $0, -4(%rbp)\n\tjne .LBODY\n\tret\n";
  S += "\t.size main, .-main\n";
  return S;
}

void BM_RelaxSyntheticCorpus(benchmark::State &State) {
  WorkloadSpec Spec = googleCorpusProfile(0.02);
  std::string Asm = generateWorkloadAssembly(Spec);
  MaoUnit Unit = parseOrDie(Asm);
  uint64_t MaxIters = 0;
  for (auto _ : State) {
    RelaxationResult R = relaxUnit(Unit);
    if (!R.Converged)
      State.SkipWithError("relaxation did not converge");
    MaxIters = std::max(MaxIters, static_cast<uint64_t>(R.Iterations));
    benchmark::DoNotOptimize(R);
  }
  State.counters["iterations"] = static_cast<double>(MaxIters);
}
BENCHMARK(BM_RelaxSyntheticCorpus)->Unit(benchmark::kMillisecond);

/// The alignment passes' access pattern: one maintained layout, a NOP pad
/// in front of a loop head (a label a later branch jumps back to, where
/// LOOP16 pads), a relax, repeated; pads cycle over the unit's loop heads.
/// A pad costs the re-addressing of everything it moves, up to the first
/// slot whose address does not move, plus the branches within rel8 reach.
void padSweep(double Scale, BenchReport &Report) {
  constexpr unsigned Pads = 64;
  MaoUnit Unit =
      parseOrDie(generateWorkloadAssembly(googleCorpusProfile(Scale)));
  std::vector<EntryIter> Heads;
  std::unordered_set<std::string_view> Seen, Taken;
  for (const MaoEntry &E : Unit.entries()) {
    if (E.isLabel()) {
      Seen.insert(E.labelName());
      continue;
    }
    if (!E.isInstruction() || !E.instruction().isBranch() ||
        E.instruction().hasIndirectTarget())
      continue;
    const std::string &Target = E.instruction().branchTarget()->Sym;
    if (Seen.count(Target) && Taken.insert(Target).second)
      Heads.push_back(Unit.labelMap().at(Target));
  }
  if (Heads.empty()) {
    std::printf("pad sweep at scale %.2f: no loop heads\n", Scale);
    return;
  }

  UnitLayout Layout(Unit);
  Layout.relax();
  StatCounter &Walked = StatsRegistry::instance().counter("relax.slots_walked");
  StatCounter &Incremental =
      StatsRegistry::instance().counter("relax.incremental");
  const uint64_t Walked0 = Walked.value();
  const uint64_t Incremental0 = Incremental.value();
  const auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Pads; ++I) {
    Layout.insertBefore(Heads[I % Heads.size()],
                        MaoEntry::makeInstruction(makeNop(1 + I % 15)));
    Layout.relax();
  }
  const double PerPadUs = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - Start)
                              .count() /
                          Pads;
  const double PerPadSlots = double(Walked.value() - Walked0) / Pads;
  const double Served = double(Incremental.value() - Incremental0) / Pads;
  std::printf("pad sweep at scale %.2f (%zu entries, %zu loop heads): "
              "%.1f us and %.0f slots walked per pad, %.0f%% served by the "
              "dirty span\n",
              Scale, Unit.entries().size(), Heads.size(), PerPadUs,
              PerPadSlots, 100 * Served);
  const std::string Key =
      "pad_sweep_" + std::to_string(static_cast<int>(Scale * 100)) + "pct_";
  Report.set(Key + "us_per_pad", PerPadUs);
  Report.set(Key + "slots_per_pad", PerPadSlots);
  Report.set(Key + "incremental_share", Served);
  Report.set(Key + "entries", static_cast<double>(Unit.entries().size()));
}

} // namespace

int main(int argc, char **argv) {
  printHeader("E2: repeated relaxation (paper Sec. II example)");
  BenchReport Report("relaxation");

  // The paper's example: find the jmp before and after NOP insertion.
  for (bool WithNop : {false, true}) {
    MaoUnit Unit = parseOrDie(relaxExample(WithNop));
    RelaxationResult R = relaxUnit(Unit);
    for (const MaoEntry &E : Unit.entries())
      if (E.isInstruction() && E.instruction().isUncondJump()) {
        std::printf("%-12s jmp at 0x%llx encodes in %u bytes "
                    "(relaxation: %u iterations, converged: %s)\n",
                    WithNop ? "with nop:" : "without nop:",
                    (unsigned long long)E.Address, E.Size, R.Iterations,
                    R.Converged ? "yes" : "no");
        Report.set(WithNop ? "jmp_bytes_with_nop" : "jmp_bytes_without_nop",
                   E.Size);
        Report.set(WithNop ? "iterations_with_nop" : "iterations_without_nop",
                   R.Iterations);
      }
  }
  std::printf("paper: the branch at offset 0xb grows from 2 bytes (eb 7f) "
              "to 5 bytes (e9 ...)\nwhen a single one-byte nop moves its "
              "target out of rel8 range.\n\n");

  for (double Scale : {0.05, 0.2})
    padSweep(Scale, Report);
  std::printf("\n");

  return runCapturedBenchmarks(argc, argv, Report);
}
