//===- uarch/Runner.cpp - Emulator-to-uarch measurement pipeline --------------==//

#include "uarch/Runner.h"

#include "analysis/Relaxer.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timeline.h"

using namespace mao;

namespace {

/// Effective data address of \p Insn's memory operand under the
/// pre-execution machine state; nullopt for symbolic/RIP-relative
/// references and non-memory instructions.
std::optional<uint64_t> dataAddress(const Instruction &Insn,
                                    const MachineState &S) {
  const Operand *Mem = Insn.memOperand();
  if (!Mem)
    return std::nullopt;
  // An indirect branch target memory operand is a code reference, but its
  // load still touches the data side; treat it like any other access.
  const MemRef &M = Mem->Mem;
  if (Mem->hasSymDisp() || M.isRipRelative())
    return std::nullopt;
  uint64_t A = static_cast<uint64_t>(Mem->Imm);
  if (M.Base != Reg::None)
    A += S.gprValue(gprWithWidth(superReg(M.Base), Width::Q));
  if (M.Index != Reg::None)
    A += S.gprValue(gprWithWidth(superReg(M.Index), Width::Q)) * M.Scale;
  return A;
}

} // namespace

ErrorOr<MeasureResult> mao::measureFunction(MaoUnit &Unit,
                                            const std::string &Function,
                                            const MeasureOptions &Options) {
  TimelineSpan Span("sim", "measure:" + Function);
  RelaxationResult Relax = relaxUnit(Unit);
  if (!Relax.Converged)
    return MaoStatus::error("relaxation did not converge");

  Emulator Em(Unit);
  for (const MeasureOptions::MemInit &Init : Options.Memory)
    Em.store(Init.Address, Init.Value, Init.Bytes);

  UarchSimulator Sim(Options.Config);
  Emulator::Config Cfg;
  Cfg.MaxSteps = Options.MaxSteps;
  Cfg.OnStep = [&](const MaoEntry &Entry, const MachineState &S) {
    TraceEvent Event;
    Event.Entry = &Entry;
    Event.Address = Entry.Address;
    Event.Size = Entry.Size;
    Event.MemAddr = dataAddress(Entry.instruction(), S);
    Sim.consume(Event);
    return true;
  };

  MeasureResult Result;
  Result.Emulation = Em.run(Function, Options.Initial, Cfg);
  if (Result.Emulation.Reason != StopReason::Returned)
    return MaoStatus::error("emulation did not complete: " +
                            Result.Emulation.Message);
  Result.Pmu = Sim.finish();
  StatsRegistry &Stats = StatsRegistry::instance();
  Stats.counter("uarch.runs").add();
  Stats.histogram("uarch.run_cycles").record(Result.Pmu.CpuCycles);
  Result.Pmu.exportTo(Stats);
  return Result;
}

ErrorOr<uint64_t> mao::scoreFunctionCycles(MaoUnit &Unit,
                                           const std::string &Function,
                                           const MeasureOptions &Options) {
  ErrorOr<MeasureResult> R = measureFunction(Unit, Function, Options);
  if (!R.ok())
    return MaoStatus::error(R.message());
  return R->Pmu.CpuCycles;
}

std::vector<BatchScore> mao::scoreBatch(const std::vector<MaoUnit *> &Units,
                                        const std::string &Function,
                                        const MeasureOptions &Options,
                                        unsigned Jobs) {
  std::vector<BatchScore> Scores(Units.size());
  auto ScoreOne = [&](size_t I) {
    ErrorOr<uint64_t> Cycles = scoreFunctionCycles(*Units[I], Function, Options);
    if (Cycles.ok()) {
      Scores[I].Ok = true;
      Scores[I].Cycles = *Cycles;
    } else {
      Scores[I].Error = Cycles.message();
    }
  };
  if (Jobs <= 1 || Units.size() <= 1) {
    for (size_t I = 0; I < Units.size(); ++I)
      ScoreOne(I);
    return Scores;
  }
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Units.size(), ScoreOne);
  return Scores;
}
