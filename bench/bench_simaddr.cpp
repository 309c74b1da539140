//===- bench/bench_simaddr.cpp - E8: address-recovery multiplication ----------===//
//
// Paper Sec. III-E-m: for the RACEZ sampling-based race detector, forward
// and backward instruction simulation from each PMU sample (which carries
// the register file) recovers additional effective addresses, multiplying
// the sampled-address count "by factors ranging from 4.1 to 6.3".
//
// This harness emulates the paper's workloads, samples every Nth memory
// instruction (with its true pre-execution register file, exactly what the
// PMU delivers), applies simulateAddresses, and reports the factor.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "analysis/CFG.h"
#include "passes/SimAddr.h"
#include "sim/Emulator.h"

using namespace maobench;

namespace {

double factorForBenchmark(const std::string &Name, unsigned SamplePeriod) {
  const WorkloadSpec *Spec = findBenchmarkProfile(Name);
  std::string Asm = generateWorkloadAssembly(*Spec);
  MaoUnit Unit = parseOrDie(Asm);

  // Build per-function CFGs and an entry -> (block, index) index.
  struct Site {
    const CFG *Graph;
    unsigned Block;
    size_t Index;
  };
  std::vector<std::unique_ptr<CFG>> Graphs;
  std::unordered_map<const MaoEntry *, Site> Sites;
  for (MaoFunction &Fn : Unit.functions()) {
    Graphs.push_back(std::make_unique<CFG>(CFG::build(Fn)));
    const CFG &G = *Graphs.back();
    for (const BasicBlock &BB : G.blocks())
      for (size_t I = 0; I < BB.Insns.size(); ++I)
        Sites[&*BB.Insns[I]] = {&G, BB.Index, I};
  }

  // Emulate, sampling every Nth instruction that has a memory operand.
  uint64_t Sampled = 0, Recovered = 0, Countdown = SamplePeriod;
  Emulator Em(Unit);
  Emulator::Config Cfg;
  Cfg.MaxSteps = 20'000'000;
  Cfg.OnStep = [&](const MaoEntry &Entry, const MachineState &State) {
    const Instruction &Insn = Entry.instruction();
    if (!Insn.memOperand() || Insn.isOpaque())
      return true;
    if (--Countdown > 0)
      return true;
    Countdown = SamplePeriod;
    auto SiteIt = Sites.find(&Entry);
    if (SiteIt == Sites.end())
      return true;
    RegSnapshot Snapshot;
    for (unsigned R = 0; R < NumGprSupers; ++R)
      Snapshot.Gpr[R] = static_cast<int64_t>(State.Gpr[R]);
    // RACEZ-style bounded simulation window around the sample.
    auto Addresses = simulateAddresses(
        SiteIt->second.Graph->blocks()[SiteIt->second.Block],
        SiteIt->second.Index, Snapshot, /*Window=*/8);
    bool SampleCounted = false;
    for (const RecoveredAddress &A : Addresses)
      SampleCounted |= A.FromSample;
    if (!SampleCounted)
      return true;
    ++Sampled;
    Recovered += Addresses.size();
    return true;
  };
  EmulationResult R = Em.run("bench_main", MachineState(), Cfg);
  if (R.Reason != StopReason::Returned || Sampled == 0)
    return 0.0;
  return static_cast<double>(Recovered) / static_cast<double>(Sampled);
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("simaddr");
  printHeader("E8: forward/backward simulation address recovery "
              "(paper: 4.1x - 6.3x)");
  for (const char *Name : {"181.mcf", "252.eon", "300.twolf", "176.gcc"}) {
    double Factor = factorForBenchmark(Name, 7);
    std::printf("%-12s sampled addresses multiplied by %.1fx\n", Name,
                Factor);
    Report.set(std::string(Name) + "_factor_x", Factor);
  }
  return Report.write(benchJsonPath(argc, argv, Report.name())) ? 0 : 1;
}
