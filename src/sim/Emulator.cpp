//===- sim/Emulator.cpp - Architectural x86-64 interpreter -------------------==//

#include "sim/Emulator.h"

#include <optional>
#include <cassert>
#include <cstring>

using namespace mao;

namespace {

uint64_t widthMask(Width W) {
  switch (W) {
  case Width::B:
    return 0xffULL;
  case Width::W:
    return 0xffffULL;
  case Width::L:
    return 0xffffffffULL;
  case Width::Q:
  case Width::None:
    return ~0ULL;
  }
  return ~0ULL;
}

int64_t signExtend(uint64_t Value, Width W) {
  switch (W) {
  case Width::B:
    return static_cast<int8_t>(Value);
  case Width::W:
    return static_cast<int16_t>(Value);
  case Width::L:
    return static_cast<int32_t>(Value);
  default:
    return static_cast<int64_t>(Value);
  }
}

bool signBit(uint64_t Value, Width W) {
  unsigned Bits = widthBytes(W) * 8;
  return (Value >> (Bits - 1)) & 1;
}

} // namespace

uint64_t MachineState::gprValue(Reg R) const {
  uint64_t Full = Gpr[gprSuperIndex(R)];
  if (regIsHighByte(R))
    return (Full >> 8) & 0xff;
  return Full & widthMask(regWidth(R));
}

void MachineState::setGpr(Reg R, uint64_t Value) {
  uint64_t &Full = Gpr[gprSuperIndex(R)];
  if (regIsHighByte(R)) {
    Full = (Full & ~0xff00ULL) | ((Value & 0xff) << 8);
    return;
  }
  switch (regWidth(R)) {
  case Width::B:
    Full = (Full & ~0xffULL) | (Value & 0xff);
    break;
  case Width::W:
    Full = (Full & ~0xffffULL) | (Value & 0xffff);
    break;
  case Width::L:
    Full = Value & 0xffffffffULL; // 32-bit writes zero-extend.
    break;
  case Width::Q:
  case Width::None:
    Full = Value;
    break;
  }
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

namespace {

/// One in-flight execution: wraps state + memory access helpers.
class Interp {
public:
  Interp(Emulator &Em, MaoUnit &Unit,
         const std::unordered_map<std::string, EntryIter> &Labels,
         MachineState State)
      : Em(Em), Unit(Unit), Labels(Labels), S(std::move(State)) {}

  EmulationResult run(const std::string &Name, const Emulator::Config &Cfg);

private:
  // --- Operand access -------------------------------------------------------
  std::optional<uint64_t> memAddress(const Operand &Op) {
    const MemRef &M = Op.Mem;
    if (Op.hasSymDisp() || M.isRipRelative())
      return std::nullopt; // No data-symbol layout in the emulator.
    uint64_t A = static_cast<uint64_t>(Op.Imm);
    if (M.Base != Reg::None)
      A += S.gpr(M.Base);
    if (M.Index != Reg::None)
      A += S.gpr(M.Index) * M.Scale;
    return A;
  }

  std::optional<uint64_t> readOperand(const Operand &Op, Width W) {
    switch (Op.Kind) {
    case OperandKind::Immediate:
      if (!Op.Sym.empty())
        return std::nullopt;
      return static_cast<uint64_t>(Op.Imm) & widthMask(W);
    case OperandKind::Register:
      return S.gprValue(Op.R);
    case OperandKind::Memory: {
      auto A = memAddress(Op);
      if (!A)
        return std::nullopt;
      return Em.load(*A, widthBytes(W));
    }
    default:
      return std::nullopt;
    }
  }

  bool writeOperand(const Operand &Op, Width W, uint64_t Value) {
    if (Op.isReg()) {
      S.setGpr(Op.R, Value & widthMask(W));
      return true;
    }
    if (Op.isMem()) {
      auto A = memAddress(Op);
      if (!A)
        return false;
      Em.store(*A, Value, widthBytes(W));
      return true;
    }
    return false;
  }

  // --- Flag computation -----------------------------------------------------
  void setResultFlags(uint64_t Result, Width W) {
    Result &= widthMask(W);
    S.ZF = Result == 0;
    S.SF = signBit(Result, W);
    S.PF = parity8(Result);
  }

  void flagsAdd(uint64_t A, uint64_t B, uint64_t Carry, Width W) {
    const uint64_t Mask = widthMask(W);
    A &= Mask;
    B &= Mask;
    uint64_t R = (A + B + Carry) & Mask;
    S.CF = R < A || (Carry && R == A && B == Mask);
    // Overflow: operands same sign, result different sign.
    S.OF = signBit(A, W) == signBit(B, W) && signBit(R, W) != signBit(A, W);
    S.AF = ((A ^ B ^ R) >> 4) & 1;
    setResultFlags(R, W);
  }

  void flagsSub(uint64_t A, uint64_t B, uint64_t Borrow, Width W) {
    const uint64_t Mask = widthMask(W);
    A &= Mask;
    B &= Mask;
    uint64_t R = (A - B - Borrow) & Mask;
    S.CF = A < B + Borrow || (Borrow && B == Mask);
    S.OF = signBit(A, W) != signBit(B, W) && signBit(R, W) != signBit(A, W);
    S.AF = ((A ^ B ^ R) >> 4) & 1;
    setResultFlags(R, W);
  }

  void flagsLogic(uint64_t R, Width W) {
    S.CF = false;
    S.OF = false;
    S.AF = false;
    setResultFlags(R, W);
  }

  bool evalCond(CondCode CC) const {
    switch (CC) {
    case CondCode::O:
      return S.OF;
    case CondCode::NO:
      return !S.OF;
    case CondCode::B:
      return S.CF;
    case CondCode::AE:
      return !S.CF;
    case CondCode::E:
      return S.ZF;
    case CondCode::NE:
      return !S.ZF;
    case CondCode::BE:
      return S.CF || S.ZF;
    case CondCode::A:
      return !S.CF && !S.ZF;
    case CondCode::S:
      return S.SF;
    case CondCode::NS:
      return !S.SF;
    case CondCode::P:
      return S.PF;
    case CondCode::NP:
      return !S.PF;
    case CondCode::L:
      return S.SF != S.OF;
    case CondCode::GE:
      return S.SF == S.OF;
    case CondCode::LE:
      return S.ZF || S.SF != S.OF;
    case CondCode::G:
      return !S.ZF && S.SF == S.OF;
    case CondCode::None:
      break;
    }
    assert(false && "evaluating the null condition");
    return false;
  }

  // --- Control transfer -----------------------------------------------------
  enum class Flow { Next, Jump, Return, Stop };

  /// Executes one instruction. On Flow::Jump, JumpTarget holds the label.
  Flow exec(const Instruction &Insn, std::string &Error);

  Emulator &Em;
  MaoUnit &Unit;
  const std::unordered_map<std::string, EntryIter> &Labels;
  MachineState S;
  std::string JumpTarget;
  std::vector<EntryIter> CallStack;
  EntryIter ReturnTo; // Valid when exec sees `ret` with a nonempty stack.
};

Interp::Flow Interp::exec(const Instruction &Insn, std::string &Error) {
  const Width W = Insn.W;
  switch (Insn.info().Kind) {
  case EncKind::Nop:
  case EncKind::Prefetch:
    return Flow::Next;

  case EncKind::Mov: {
    auto V = readOperand(Insn.Ops[0], W);
    if (!V || !writeOperand(Insn.Ops[1], W, *V)) {
      Error = "mov with unresolvable operand: " + Insn.toString();
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::Movx: {
    auto V = readOperand(Insn.Ops[0], Insn.SrcW);
    if (!V) {
      Error = "movx source unresolvable: " + Insn.toString();
      return Flow::Stop;
    }
    uint64_t Value = Insn.Mn == Mnemonic::MOVZX
                         ? (*V & widthMask(Insn.SrcW))
                         : static_cast<uint64_t>(signExtend(*V, Insn.SrcW));
    writeOperand(Insn.Ops[1], W, Value & widthMask(W));
    return Flow::Next;
  }

  case EncKind::Lea: {
    auto A = memAddress(Insn.Ops[0]);
    if (!A) {
      Error = "lea of a symbolic address: " + Insn.toString();
      return Flow::Stop;
    }
    writeOperand(Insn.Ops[1], W, *A & widthMask(W));
    return Flow::Next;
  }

  case EncKind::AluRMI: {
    auto A = readOperand(Insn.Ops[1], W); // dest (first ALU input)
    auto B = readOperand(Insn.Ops[0], W); // src
    if (!A || !B) {
      Error = "ALU operand unresolvable: " + Insn.toString();
      return Flow::Stop;
    }
    uint64_t R = 0;
    switch (Insn.Mn) {
    case Mnemonic::ADD:
      flagsAdd(*A, *B, 0, W);
      R = *A + *B;
      break;
    case Mnemonic::ADC: {
      uint64_t C = S.CF ? 1 : 0;
      flagsAdd(*A, *B, C, W);
      R = *A + *B + C;
      break;
    }
    case Mnemonic::SUB:
    case Mnemonic::CMP:
      flagsSub(*A, *B, 0, W);
      R = *A - *B;
      break;
    case Mnemonic::SBB: {
      uint64_t C = S.CF ? 1 : 0;
      flagsSub(*A, *B, C, W);
      R = *A - *B - C;
      break;
    }
    case Mnemonic::AND:
      R = *A & *B;
      flagsLogic(R, W);
      break;
    case Mnemonic::OR:
      R = *A | *B;
      flagsLogic(R, W);
      break;
    case Mnemonic::XOR:
      R = *A ^ *B;
      flagsLogic(R, W);
      break;
    default:
      Error = "unexpected ALU mnemonic";
      return Flow::Stop;
    }
    if (Insn.Mn != Mnemonic::CMP)
      writeOperand(Insn.Ops[1], W, R & widthMask(W));
    return Flow::Next;
  }

  case EncKind::Test: {
    auto A = readOperand(Insn.Ops[1], W);
    auto B = readOperand(Insn.Ops[0], W);
    if (!A || !B) {
      Error = "test operand unresolvable";
      return Flow::Stop;
    }
    flagsLogic(*A & *B, W);
    return Flow::Next;
  }

  case EncKind::UnaryRM: {
    auto V = readOperand(Insn.Ops[0], W);
    if (!V) {
      Error = "unary operand unresolvable";
      return Flow::Stop;
    }
    const uint64_t Mask = widthMask(W);
    switch (Insn.Mn) {
    case Mnemonic::NOT:
      writeOperand(Insn.Ops[0], W, ~*V & Mask);
      return Flow::Next;
    case Mnemonic::NEG:
      flagsSub(0, *V, 0, W);
      S.CF = (*V & Mask) != 0;
      writeOperand(Insn.Ops[0], W, (0 - *V) & Mask);
      return Flow::Next;
    case Mnemonic::INC: {
      bool SavedCF = S.CF;
      flagsAdd(*V, 1, 0, W);
      S.CF = SavedCF;
      writeOperand(Insn.Ops[0], W, (*V + 1) & Mask);
      return Flow::Next;
    }
    case Mnemonic::DEC: {
      bool SavedCF = S.CF;
      flagsSub(*V, 1, 0, W);
      S.CF = SavedCF;
      writeOperand(Insn.Ops[0], W, (*V - 1) & Mask);
      return Flow::Next;
    }
    case Mnemonic::MUL: {
      unsigned Bits = widthBytes(W) * 8;
      unsigned __int128 Prod =
          static_cast<unsigned __int128>(S.gprValue(gprWithWidth(Reg::RAX, W))) *
          (*V & Mask);
      S.setGpr(gprWithWidth(Reg::RAX, W),
               static_cast<uint64_t>(Prod) & Mask);
      S.setGpr(gprWithWidth(Reg::RDX, W),
               static_cast<uint64_t>(Prod >> Bits) & Mask);
      S.CF = S.OF = (Prod >> Bits) != 0;
      // SF/ZF/AF/PF are architecturally undefined after MUL; the table
      // declares them defined, so write deterministic operand-derived
      // values (see DESIGN.md, "MaoCheck": undefined-flag modeling).
      setResultFlags(static_cast<uint64_t>(Prod) & Mask, W);
      S.AF = false;
      return Flow::Next;
    }
    case Mnemonic::DIV: {
      unsigned Bits = widthBytes(W) * 8;
      unsigned __int128 Num =
          (static_cast<unsigned __int128>(
               S.gprValue(gprWithWidth(Reg::RDX, W)))
           << Bits) |
          S.gprValue(gprWithWidth(Reg::RAX, W));
      uint64_t Den = *V & Mask;
      if (Den == 0) {
        Error = "division by zero";
        return Flow::Stop;
      }
      uint64_t Quot = static_cast<uint64_t>(Num / Den) & Mask;
      S.setGpr(gprWithWidth(Reg::RAX, W), Quot);
      S.setGpr(gprWithWidth(Reg::RDX, W),
               static_cast<uint64_t>(Num % Den) & Mask);
      // All six status flags are undefined after DIV; write deterministic
      // values so the table's full-status def claim holds.
      S.CF = S.OF = S.AF = false;
      setResultFlags(Quot, W);
      return Flow::Next;
    }
    case Mnemonic::IDIV: {
      int64_t Den = signExtend(*V, W);
      if (Den == 0) {
        Error = "division by zero";
        return Flow::Stop;
      }
      __int128 Num =
          (static_cast<__int128>(
               signExtend(S.gprValue(gprWithWidth(Reg::RDX, W)), W))
           << (widthBytes(W) * 8)) |
          (S.gprValue(gprWithWidth(Reg::RAX, W)) & Mask);
      uint64_t Quot = static_cast<uint64_t>(Num / Den) & Mask;
      S.setGpr(gprWithWidth(Reg::RAX, W), Quot);
      S.setGpr(gprWithWidth(Reg::RDX, W),
               static_cast<uint64_t>(Num % Den) & Mask);
      S.CF = S.OF = S.AF = false;
      setResultFlags(Quot, W);
      return Flow::Next;
    }
    default:
      Error = "unexpected unary mnemonic";
      return Flow::Stop;
    }
  }

  case EncKind::ImulMulti: {
    if (Insn.Ops.size() == 1) {
      unsigned Bits = widthBytes(W) * 8;
      auto V = readOperand(Insn.Ops[0], W);
      if (!V) {
        Error = "imul operand unresolvable";
        return Flow::Stop;
      }
      __int128 Prod =
          static_cast<__int128>(
              signExtend(S.gprValue(gprWithWidth(Reg::RAX, W)), W)) *
          signExtend(*V, W);
      S.setGpr(gprWithWidth(Reg::RAX, W),
               static_cast<uint64_t>(Prod) & widthMask(W));
      S.setGpr(gprWithWidth(Reg::RDX, W),
               static_cast<uint64_t>(Prod >> Bits) & widthMask(W));
      __int128 Trunc = signExtend(static_cast<uint64_t>(Prod), W);
      S.CF = S.OF = Trunc != Prod;
      // SF/ZF/AF/PF are undefined after one-operand IMUL; write
      // deterministic operand-derived values to honor the table def.
      setResultFlags(static_cast<uint64_t>(Prod) & widthMask(W), W);
      S.AF = false;
      return Flow::Next;
    }
    int64_t A, B;
    const Operand *DstOp;
    if (Insn.Ops.size() == 2) {
      auto SrcV = readOperand(Insn.Ops[0], W);
      auto DstV = readOperand(Insn.Ops[1], W);
      if (!SrcV || !DstV) {
        Error = "imul operand unresolvable";
        return Flow::Stop;
      }
      A = signExtend(*SrcV, W);
      B = signExtend(*DstV, W);
      DstOp = &Insn.Ops[1];
    } else {
      auto SrcV = readOperand(Insn.Ops[1], W);
      if (!SrcV || !Insn.Ops[0].isConstImm()) {
        Error = "imul operand unresolvable";
        return Flow::Stop;
      }
      A = Insn.Ops[0].Imm;
      B = signExtend(*SrcV, W);
      DstOp = &Insn.Ops[2];
    }
    __int128 Prod = static_cast<__int128>(A) * B;
    uint64_t R = static_cast<uint64_t>(Prod) & widthMask(W);
    S.CF = S.OF = signExtend(R, W) != Prod;
    setResultFlags(R, W);
    S.AF = false; // Undefined after IMUL; deterministic per the table def.
    writeOperand(*DstOp, W, R);
    return Flow::Next;
  }

  case EncKind::ShiftRot: {
    const Operand &Target = Insn.Ops.back();
    auto V = readOperand(Target, W);
    if (!V) {
      Error = "shift operand unresolvable";
      return Flow::Stop;
    }
    uint64_t Count = 1;
    if (Insn.Ops.size() == 2) {
      if (Insn.Ops[0].isReg())
        Count = S.gprValue(Reg::CL);
      else
        Count = static_cast<uint64_t>(Insn.Ops[0].Imm);
    }
    const unsigned Bits = widthBytes(W) * 8;
    Count &= (W == Width::Q) ? 63 : 31;
    if (Count == 0)
      return Flow::Next; // Flags unchanged.
    const uint64_t Mask = widthMask(W);
    uint64_t Val = *V & Mask;
    uint64_t R = 0;
    switch (Insn.Mn) {
    // AF is undefined after shifts, and SF/ZF/AF/PF/OF after rotates by
    // more than one; the table declares the full status set defined, so
    // write deterministic operand-derived values for the undefined ones.
    case Mnemonic::SHL:
      S.CF = Count <= Bits && ((Val >> (Bits - Count)) & 1);
      R = (Val << Count) & Mask;
      setResultFlags(R, W);
      S.OF = signBit(R, W) != S.CF;
      S.AF = false;
      break;
    case Mnemonic::SHR:
      S.CF = (Val >> (Count - 1)) & 1;
      R = Val >> Count;
      setResultFlags(R, W);
      S.OF = signBit(Val, W);
      S.AF = false;
      break;
    case Mnemonic::SAR: {
      int64_t SVal = signExtend(Val, W);
      S.CF = (SVal >> (Count - 1)) & 1;
      R = static_cast<uint64_t>(SVal >> Count) & Mask;
      setResultFlags(R, W);
      S.OF = false;
      S.AF = false;
      break;
    }
    case Mnemonic::ROL:
      Count %= Bits;
      R = ((Val << Count) | (Val >> (Bits - Count))) & Mask;
      if (Count) {
        S.CF = R & 1;
        S.OF = signBit(R, W) != S.CF;
        setResultFlags(R, W);
        S.AF = false;
      }
      break;
    case Mnemonic::ROR:
      Count %= Bits;
      R = ((Val >> Count) | (Val << (Bits - Count))) & Mask;
      if (Count) {
        S.CF = signBit(R, W);
        S.OF = S.CF != (((R >> (Bits - 2)) & 1) != 0);
        setResultFlags(R, W);
        S.AF = false;
      }
      break;
    default:
      Error = "unexpected shift mnemonic";
      return Flow::Stop;
    }
    writeOperand(Target, W, R);
    return Flow::Next;
  }

  case EncKind::Push: {
    auto V = readOperand(Insn.Ops[0], Width::Q);
    if (!V) {
      Error = "push operand unresolvable";
      return Flow::Stop;
    }
    S.gpr(Reg::RSP) -= 8;
    Em.store(S.gpr(Reg::RSP), *V, 8);
    return Flow::Next;
  }
  case EncKind::Pop: {
    uint64_t V = Em.load(S.gpr(Reg::RSP), 8);
    S.gpr(Reg::RSP) += 8;
    if (!writeOperand(Insn.Ops[0], Width::Q, V)) {
      Error = "pop operand unresolvable";
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::Xchg: {
    auto A = readOperand(Insn.Ops[0], W);
    auto B = readOperand(Insn.Ops[1], W);
    if (!A || !B) {
      Error = "xchg operand unresolvable";
      return Flow::Stop;
    }
    writeOperand(Insn.Ops[0], W, *B);
    writeOperand(Insn.Ops[1], W, *A);
    return Flow::Next;
  }

  case EncKind::Bswap: {
    uint64_t V = S.gprValue(Insn.Ops[0].R);
    uint64_t R = 0;
    unsigned Bytes = widthBytes(W);
    for (unsigned I = 0; I < Bytes; ++I)
      R |= ((V >> (8 * I)) & 0xff) << (8 * (Bytes - 1 - I));
    S.setGpr(Insn.Ops[0].R, R);
    return Flow::Next;
  }

  case EncKind::Setcc:
    writeOperand(Insn.Ops[0], Width::B, evalCond(Insn.CC) ? 1 : 0);
    return Flow::Next;

  case EncKind::Cmovcc: {
    if (evalCond(Insn.CC)) {
      auto V = readOperand(Insn.Ops[0], W);
      if (!V) {
        Error = "cmov operand unresolvable";
        return Flow::Stop;
      }
      writeOperand(Insn.Ops[1], W, *V);
    } else if (W == Width::L && Insn.Ops[1].isReg()) {
      // Even a not-taken 32-bit cmov zero-extends the destination.
      S.setGpr(Insn.Ops[1].R, S.gprValue(Insn.Ops[1].R));
    }
    return Flow::Next;
  }

  case EncKind::Jmp:
    if (Insn.hasIndirectTarget()) {
      Error = "indirect jump in emulation: " + Insn.toString();
      return Flow::Stop;
    }
    JumpTarget = Insn.Ops[0].Sym;
    return Flow::Jump;

  case EncKind::Jcc:
    if (!evalCond(Insn.CC))
      return Flow::Next;
    JumpTarget = Insn.Ops[0].Sym;
    return Flow::Jump;

  case EncKind::Fixed:
    switch (Insn.Mn) {
    case Mnemonic::CLTQ:
      S.gpr(Reg::RAX) = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(S.gprValue(Reg::EAX))));
      return Flow::Next;
    case Mnemonic::CWTL:
      S.setGpr(Reg::EAX, static_cast<uint64_t>(static_cast<int32_t>(
                             static_cast<int16_t>(S.gprValue(Reg::AX)))));
      return Flow::Next;
    case Mnemonic::CBTW:
      S.setGpr(Reg::AX, static_cast<uint64_t>(static_cast<int16_t>(
                            static_cast<int8_t>(S.gprValue(Reg::AL)))));
      return Flow::Next;
    case Mnemonic::CLTD: {
      int32_t Eax = static_cast<int32_t>(S.gprValue(Reg::EAX));
      S.setGpr(Reg::EDX, Eax < 0 ? 0xffffffffULL : 0);
      return Flow::Next;
    }
    case Mnemonic::CQTO: {
      int64_t Rax = static_cast<int64_t>(S.gpr(Reg::RAX));
      S.gpr(Reg::RDX) = Rax < 0 ? ~0ULL : 0;
      return Flow::Next;
    }
    case Mnemonic::LEAVE:
      S.gpr(Reg::RSP) = S.gpr(Reg::RBP);
      S.gpr(Reg::RBP) = Em.load(S.gpr(Reg::RSP), 8);
      S.gpr(Reg::RSP) += 8;
      return Flow::Next;
    case Mnemonic::CPUID:
      S.gpr(Reg::RAX) = S.gpr(Reg::RBX) = S.gpr(Reg::RCX) =
          S.gpr(Reg::RDX) = 0;
      return Flow::Next;
    case Mnemonic::RDTSC:
      // Deterministic timestamp: instruction count is injected by run().
      S.setGpr(Reg::EAX, 0);
      S.setGpr(Reg::EDX, 0);
      return Flow::Next;
    default:
      Error = "unimplemented fixed instruction: " + Insn.toString();
      return Flow::Stop;
    }

  // --- SSE scalar subset (bit-accurate via float/double reinterpretation).
  case EncKind::SseMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    unsigned Bytes = Insn.Mn == Mnemonic::MOVSS ? 4 : 8;
    uint64_t V;
    if (Src.isReg() && regIsXmm(Src.R)) {
      V = S.XmmLo[regEncoding(Src.R)];
    } else if (Src.isMem()) {
      auto A = memAddress(Src);
      if (!A) {
        Error = "SSE load address unresolvable";
        return Flow::Stop;
      }
      V = Em.load(*A, Bytes);
    } else {
      Error = "unsupported SSE move source";
      return Flow::Stop;
    }
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      S.XmmLo[regEncoding(Dst.R)] = V;
    } else if (Dst.isMem()) {
      auto A = memAddress(Dst);
      if (!A) {
        Error = "SSE store address unresolvable";
        return Flow::Stop;
      }
      Em.store(*A, V, Bytes);
    } else {
      Error = "unsupported SSE move destination";
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::SseCvtMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      auto V = Src.isReg() && !regIsXmm(Src.R)
                   ? std::optional<uint64_t>(S.gprValue(Src.R))
                   : readOperand(Src, Width::Q);
      if (!V) {
        Error = "movq/movd source unresolvable";
        return Flow::Stop;
      }
      S.XmmLo[regEncoding(Dst.R)] =
          Insn.Mn == Mnemonic::MOVD ? (*V & 0xffffffffULL) : *V;
      return Flow::Next;
    }
    if (Src.isReg() && regIsXmm(Src.R)) {
      uint64_t V = S.XmmLo[regEncoding(Src.R)];
      if (Insn.Mn == Mnemonic::MOVD)
        V &= 0xffffffffULL;
      if (Dst.isReg()) {
        S.setGpr(Dst.R, V);
        return Flow::Next;
      }
      if (Dst.isMem()) {
        auto A = memAddress(Dst);
        if (!A) {
          Error = "movq store address unresolvable";
          return Flow::Stop;
        }
        Em.store(*A, V, Insn.Mn == Mnemonic::MOVD ? 4 : 8);
        return Flow::Next;
      }
    }
    Error = "unsupported movd/movq form";
    return Flow::Stop;
  }

  case EncKind::SseAlu: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    if (!Dst.isReg() || !regIsXmm(Dst.R)) {
      Error = "SSE ALU needs xmm destination";
      return Flow::Stop;
    }
    uint64_t SrcBits;
    if (Src.isReg() && regIsXmm(Src.R)) {
      SrcBits = S.XmmLo[regEncoding(Src.R)];
    } else if (Src.isMem()) {
      auto A = memAddress(Src);
      if (!A) {
        Error = "SSE ALU load unresolvable";
        return Flow::Stop;
      }
      SrcBits = Em.load(*A, 8);
    } else {
      Error = "unsupported SSE ALU source";
      return Flow::Stop;
    }
    uint64_t &DstBits = S.XmmLo[regEncoding(Dst.R)];
    auto AsF = [](uint64_t B) {
      float F;
      uint32_t U = static_cast<uint32_t>(B);
      std::memcpy(&F, &U, 4);
      return F;
    };
    auto AsD = [](uint64_t B) {
      double D;
      std::memcpy(&D, &B, 8);
      return D;
    };
    auto FromF = [](float F) {
      uint32_t U;
      std::memcpy(&U, &F, 4);
      return static_cast<uint64_t>(U);
    };
    auto FromD = [](double D) {
      uint64_t U;
      std::memcpy(&U, &D, 8);
      return U;
    };
    switch (Insn.Mn) {
    case Mnemonic::ADDSS:
      DstBits = (DstBits & ~0xffffffffULL) |
                FromF(AsF(DstBits) + AsF(SrcBits));
      return Flow::Next;
    case Mnemonic::SUBSS:
      DstBits = (DstBits & ~0xffffffffULL) |
                FromF(AsF(DstBits) - AsF(SrcBits));
      return Flow::Next;
    case Mnemonic::MULSS:
      DstBits = (DstBits & ~0xffffffffULL) |
                FromF(AsF(DstBits) * AsF(SrcBits));
      return Flow::Next;
    case Mnemonic::DIVSS:
      DstBits = (DstBits & ~0xffffffffULL) |
                FromF(AsF(DstBits) / AsF(SrcBits));
      return Flow::Next;
    case Mnemonic::ADDSD:
      DstBits = FromD(AsD(DstBits) + AsD(SrcBits));
      return Flow::Next;
    case Mnemonic::SUBSD:
      DstBits = FromD(AsD(DstBits) - AsD(SrcBits));
      return Flow::Next;
    case Mnemonic::MULSD:
      DstBits = FromD(AsD(DstBits) * AsD(SrcBits));
      return Flow::Next;
    case Mnemonic::DIVSD:
      DstBits = FromD(AsD(DstBits) / AsD(SrcBits));
      return Flow::Next;
    case Mnemonic::XORPS:
    case Mnemonic::PXOR:
      DstBits ^= SrcBits;
      return Flow::Next;
    case Mnemonic::UCOMISS: {
      float A = AsF(DstBits), B = AsF(SrcBits);
      S.OF = S.AF = S.SF = false;
      if (A != A || B != B) {
        S.ZF = S.PF = S.CF = true;
      } else {
        S.ZF = A == B;
        S.CF = A < B;
        S.PF = false;
      }
      return Flow::Next;
    }
    case Mnemonic::UCOMISD: {
      double A = AsD(DstBits), B = AsD(SrcBits);
      S.OF = S.AF = S.SF = false;
      if (A != A || B != B) {
        S.ZF = S.PF = S.CF = true;
      } else {
        S.ZF = A == B;
        S.CF = A < B;
        S.PF = false;
      }
      return Flow::Next;
    }
    default:
      Error = "unimplemented SSE ALU op: " + Insn.toString();
      return Flow::Stop;
    }
  }

  case EncKind::Call:
  case EncKind::Ret:
    // Handled by the driver loop (needs the entry iterator).
    assert(false && "call/ret handled by the run loop");
    return Flow::Stop;

  case EncKind::Opaque:
    Error = "opaque instruction reached: " + Insn.rawText();
    return Flow::Stop;
  }
  Error = "unimplemented instruction: " + Insn.toString();
  return Flow::Stop;
}

EmulationResult Interp::run(const std::string &Name,
                            const Emulator::Config &Cfg) {
  EmulationResult Result;
  auto Start = Labels.find(Name);
  if (Start == Labels.end()) {
    Result.Reason = StopReason::UnknownTarget;
    Result.Message = "unknown entry point: " + Name;
    return Result;
  }

  S.gpr(Reg::RSP) = Cfg.StackBase;
  // Sentinel return address for the top frame.
  S.gpr(Reg::RSP) -= 8;
  Em.store(S.gpr(Reg::RSP), 0xdeadbeefULL, 8);

  EntryIter IP = Start->second;
  const EntryIter End = Unit.entries().end();
  while (true) {
    if (Result.InstructionsExecuted >= Cfg.MaxSteps) {
      Result.Reason = StopReason::StepLimit;
      Result.Final = S;
      return Result;
    }
    if (IP == End) {
      Result.Reason = StopReason::Error;
      Result.Message = "fell off the end of the entry list";
      Result.Final = S;
      return Result;
    }
    if (!IP->isInstruction()) {
      ++IP;
      continue;
    }

    const Instruction &Insn = std::as_const(*IP).instruction();
    ++Result.InstructionsExecuted;

    // The step hook observes the *pre-execution* state (register file at
    // entry to the instruction), matching a PMU sample's semantics.
    if (Cfg.OnStep && !Cfg.OnStep(*IP, S)) {
      Result.Reason = StopReason::StepLimit;
      Result.Final = S;
      return Result;
    }

    // Calls and returns manipulate the iterator-level call stack.
    if (Insn.isCall()) {
      if (Insn.hasIndirectTarget()) {
        Result.Reason = StopReason::Unsupported;
        Result.Message = "indirect call";
        Result.Final = S;
        return Result;
      }
      auto Target = Labels.find(Insn.Ops[0].Sym);
      if (Target == Labels.end()) {
        Result.Reason = StopReason::UnknownTarget;
        Result.Message = "call to unknown symbol: " + Insn.Ops[0].Sym;
        Result.Final = S;
        return Result;
      }
      S.gpr(Reg::RSP) -= 8;
      Em.store(S.gpr(Reg::RSP), 0x1000 + CallStack.size(), 8);
      CallStack.push_back(std::next(IP));
      IP = Target->second;
      continue;
    }
    if (Insn.isReturn()) {
      S.gpr(Reg::RSP) += 8;
      if (CallStack.empty()) {
        Result.Reason = StopReason::Returned;
        Result.Final = S;
        return Result;
      }
      IP = CallStack.back();
      CallStack.pop_back();
      continue;
    }

    std::string Error;
    Flow F = exec(Insn, Error);
    switch (F) {
    case Flow::Next:
      ++IP;
      break;
    case Flow::Jump: {
      auto Target = Labels.find(JumpTarget);
      if (Target == Labels.end()) {
        Result.Reason = StopReason::UnknownTarget;
        Result.Message = "jump to unknown label: " + JumpTarget;
        Result.Final = S;
        return Result;
      }
      IP = Target->second;
      break;
    }
    case Flow::Stop:
      Result.Reason = StopReason::Unsupported;
      Result.Message = Error;
      Result.Final = S;
      return Result;
    case Flow::Return:
      assert(false && "handled above");
      break;
    }
  }
}

} // namespace

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial,
                              const Config &Cfg) {
  Interp I(*this, Unit, Labels, Initial);
  return I.run(Name, Cfg);
}

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial) {
  return run(Name, Initial, Config());
}
