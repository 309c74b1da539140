//===- sim/Emulator.cpp - Architectural x86-64 interpreter -------------------==//

#include "sim/Emulator.h"

#include "x86/Semantics.h"

#include <cassert>

using namespace mao;

namespace {

/// The concrete value domain Interpreter runs over: operations evaluate on
/// the spot, registers and flags live in a MachineState (const for reads
/// only), memory in the Emulator's byte map (null when only registers are
/// touched).
template <class State> class ConcreteDomain {
public:
  using Value = uint64_t;

  explicit ConcreteDomain(State &S, Emulator *Mem = nullptr)
      : S(S), Mem(Mem) {}

  // Everything on the step path inlines, so an operation with a constant
  // tag compiles to the operation itself.
  static uint64_t cst(uint64_t V) { return V; }
  [[gnu::always_inline]] static uint64_t
  op(SymTag Tag, uint32_t A, std::initializer_list<uint64_t> Args) {
    return evalOp(Tag, A, 0, Args.begin(), Args.size()).value_or(0);
  }
  static std::optional<uint64_t> constant(uint64_t V) { return V; }

  [[gnu::always_inline]] uint64_t reg(unsigned Dense) const {
    return Dense < NumGprSupers ? S.Gpr[Dense]
                                : S.XmmLo[Dense - NumGprSupers];
  }
  [[gnu::always_inline]] void setReg(unsigned Dense, uint64_t V) {
    (Dense < NumGprSupers ? S.Gpr[Dense] : S.XmmLo[Dense - NumGprSupers]) = V;
  }
  [[gnu::always_inline]] uint64_t flag(uint8_t Flag) const {
    return flagRef(Flag);
  }
  [[gnu::always_inline]] void setFlag(uint8_t Flag, uint64_t V) {
    flagRef(Flag) = V != 0;
  }

  /// A modelled flag; one the ISA leaves undefined for these inputs keeps
  /// its value.
  [[gnu::always_inline]] uint64_t
  flagFn(uint8_t Flag, Mnemonic Mn, unsigned Bits,
         std::initializer_list<uint64_t> Args) const {
    return evalFlagFn(flagPos(Flag), Mn, Bits, Args.begin(), Args.size())
        .value_or(flag(Flag));
  }
  template <class Fn>
  static uint64_t undefinedFlag(uint8_t, Mnemonic, unsigned,
                                std::initializer_list<uint64_t>,
                                Fn &&Emulated) {
    return Emulated();
  }

  /// No data-symbol layout in the emulator.
  static std::optional<uint64_t> symbol(const Operand &) {
    return std::nullopt;
  }
  uint64_t load(uint64_t Addr, unsigned Bytes) const {
    return Mem->load(Addr, Bytes);
  }
  void store(uint64_t Addr, uint64_t V, unsigned Bytes) {
    Mem->store(Addr, V, Bytes);
  }

private:
  [[gnu::always_inline]] auto &flagRef(uint8_t Flag) const {
    switch (Flag) {
    case FlagCF:
      return S.CF;
    case FlagPF:
      return S.PF;
    case FlagAF:
      return S.AF;
    case FlagZF:
      return S.ZF;
    case FlagSF:
      return S.SF;
    default:
      return S.OF;
    }
  }

  State &S;
  Emulator *Mem;
};

} // namespace

uint64_t MachineState::gprValue(Reg R) const {
  ConcreteDomain<const MachineState> Dom(*this);
  return Interpreter(Dom).readReg(R);
}

void MachineState::setGpr(Reg R, uint64_t Value) {
  ConcreteDomain<MachineState> Dom(*this);
  Interpreter(Dom).writeReg(R, Value);
}

Emulator::Emulator(MaoUnit &Unit) : Unit(Unit) {
  for (EntryIter It = Unit.entries().begin(), E = Unit.entries().end();
       It != E; ++It)
    if (It->isLabel())
      Labels.emplace(It->labelName(), It);
}

void Emulator::store(uint64_t Address, uint64_t Value, unsigned Bytes) {
  for (unsigned I = 0; I < Bytes; ++I)
    Memory[Address + I] = static_cast<uint8_t>((Value >> (8 * I)) & 0xff);
}

uint64_t Emulator::load(uint64_t Address, unsigned Bytes) const {
  uint64_t Value = 0;
  for (unsigned I = 0; I < Bytes; ++I) {
    auto It = Memory.find(Address + I);
    uint64_t Byte = It == Memory.end() ? 0 : It->second;
    Value |= Byte << (8 * I);
  }
  return Value;
}

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial,
                              const Config &Cfg) {
  EmulationResult Result;
  Result.Final = Initial;
  MachineState &S = Result.Final;
  auto Start = Labels.find(Name);
  if (Start == Labels.end()) {
    Result.Reason = StopReason::UnknownTarget;
    Result.Message = "unknown entry point: " + Name;
    return Result;
  }
  ConcreteDomain<MachineState> Dom(S, this);
  Interpreter Interp(Dom);
  auto Stop = [&Result](StopReason Reason, std::string Message) {
    Result.Reason = Reason;
    Result.Message = std::move(Message);
    return Result;
  };

  // Sentinel return address for the top frame.
  S.gpr(Reg::RSP) = Cfg.StackBase - 8;
  store(S.gpr(Reg::RSP), 0xdeadbeefULL, 8);

  std::vector<EntryIter> CallStack;
  EntryIter IP = Start->second;
  const EntryIter End = Unit.entries().end();
  while (true) {
    if (Result.InstructionsExecuted >= Cfg.MaxSteps)
      return Stop(StopReason::StepLimit, "");
    if (IP == End)
      return Stop(StopReason::Error, "fell off the end of the entry list");
    if (!IP->isInstruction()) {
      ++IP;
      continue;
    }

    const Instruction &Insn = std::as_const(*IP).instruction();
    ++Result.InstructionsExecuted;

    // The step hook observes the *pre-execution* state (register file at
    // entry to the instruction), matching a PMU sample's semantics.
    if (Cfg.OnStep && !Cfg.OnStep(*IP, S))
      return Stop(StopReason::StepLimit, "");

    switch (Insn.info().Kind) {
    case EncKind::Call: {
      if (Insn.hasIndirectTarget())
        return Stop(StopReason::Unsupported, "indirect call");
      auto Target = Labels.find(Insn.Ops[0].Sym);
      if (Target == Labels.end())
        return Stop(StopReason::UnknownTarget,
                    "call to unknown symbol: " + Insn.Ops[0].Sym);
      S.gpr(Reg::RSP) -= 8;
      store(S.gpr(Reg::RSP), 0x1000 + CallStack.size(), 8);
      CallStack.push_back(std::next(IP));
      IP = Target->second;
      continue;
    }
    case EncKind::Ret:
      S.gpr(Reg::RSP) += 8;
      if (CallStack.empty())
        return Stop(StopReason::Returned, "");
      IP = CallStack.back();
      CallStack.pop_back();
      continue;
    case EncKind::Jmp:
    case EncKind::Jcc: {
      if (Insn.hasIndirectTarget())
        return Stop(StopReason::Unsupported,
                    "indirect jump in emulation: " + Insn.toString());
      if (Insn.isCondJump() && !Interp.condition(Insn.CC)) {
        ++IP;
        continue;
      }
      auto Target = Labels.find(Insn.Ops[0].Sym);
      if (Target == Labels.end())
        return Stop(StopReason::UnknownTarget,
                    "jump to unknown label: " + Insn.Ops[0].Sym);
      IP = Target->second;
      continue;
    }
    case EncKind::Opaque:
      return Stop(StopReason::Unsupported,
                  "opaque instruction reached: " + Insn.rawText());
    default:
      if (StepError Why = Interp.step(Insn))
        return Stop(StopReason::Unsupported,
                    std::string(Why) + ": " + Insn.toString());
      ++IP;
      continue;
    }
  }
}

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial) {
  return run(Name, Initial, Config());
}
