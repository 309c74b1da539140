//===- x86/Instruction.cpp - The single instruction struct -----------------==//

#include "x86/Instruction.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>

using namespace mao;

RegMask mao::regMaskBit(Reg R) {
  if (R == Reg::None || R == Reg::RIP)
    return 0;
  if (regIsXmm(R))
    return 1u << (16 + regEncoding(R));
  return 1u << gprSuperIndex(R);
}

namespace {

RegMask gprBit(Reg Super) { return regMaskBit(Super); }

} // namespace

const RegMask mao::CallClobberedMask =
    gprBit(Reg::RAX) | gprBit(Reg::RCX) | gprBit(Reg::RDX) |
    gprBit(Reg::RSI) | gprBit(Reg::RDI) | gprBit(Reg::R8) | gprBit(Reg::R9) |
    gprBit(Reg::R10) | gprBit(Reg::R11) | 0xffff0000u;

const RegMask mao::CallUsedMask =
    gprBit(Reg::RDI) | gprBit(Reg::RSI) | gprBit(Reg::RDX) |
    gprBit(Reg::RCX) | gprBit(Reg::R8) | gprBit(Reg::R9) | gprBit(Reg::RSP) |
    0x00ff0000u; // xmm0-7 may carry FP arguments

const RegMask mao::RetUsedMask =
    gprBit(Reg::RAX) | gprBit(Reg::RDX) | gprBit(Reg::RSP) |
    (1u << 16) | (1u << 17); // xmm0, xmm1 return values

const std::string &Instruction::rawText() const {
  static const std::string Empty;
  return isOpaque() && Ops.size() == 1 ? Ops[0].Sym : Empty;
}

const Operand *Instruction::branchTarget() const {
  EncKind K = info().Kind;
  if (K != EncKind::Jmp && K != EncKind::Jcc && K != EncKind::Call)
    return nullptr;
  assert(!Ops.empty() && "branch without a target operand");
  return &Ops[0];
}

bool Instruction::hasIndirectTarget() const {
  const Operand *Target = branchTarget();
  return Target && !Target->isSymbol();
}

const Operand *Instruction::memOperand() const {
  for (const Operand &Op : Ops)
    if (Op.isMem())
      return &Op;
  return nullptr;
}

Operand *Instruction::memOperand() {
  for (Operand &Op : Ops)
    if (Op.isMem())
      return &Op;
  return nullptr;
}

OperandRoles mao::operandRoles(const Instruction &Insn) {
  const EncKind K = Insn.info().Kind;
  const size_t N = Insn.Ops.size();
  OperandRoles Roles;
  Roles.fill(OperandRole::None);
  switch (K) {
  case EncKind::Mov:
  case EncKind::Movx:
  case EncKind::SseMov:
  case EncKind::SseCvtMov:
    assert(N == 2 && "move needs src, dst");
    Roles[0] = OperandRole::Read;
    Roles[1] = OperandRole::Write;
    return Roles;
  case EncKind::Lea:
    assert(N == 2 && "lea needs mem, dst");
    Roles[0] = OperandRole::Address;
    Roles[1] = OperandRole::Write;
    return Roles;
  case EncKind::AluRMI:
    assert(N == 2 && "ALU needs src, dst");
    Roles[0] = OperandRole::Read;
    Roles[1] = Insn.Mn == Mnemonic::CMP ? OperandRole::Read : OperandRole::ReadWrite;
    return Roles;
  case EncKind::Test:
    assert(N == 2 && "test needs two sources");
    Roles[0] = Roles[1] = OperandRole::Read;
    return Roles;
  case EncKind::UnaryRM:
    assert(N == 1 && "unary op needs one operand");
    Roles[0] = (Insn.Mn == Mnemonic::MUL || Insn.Mn == Mnemonic::DIV ||
                Insn.Mn == Mnemonic::IDIV)
                   ? OperandRole::Read
                   : OperandRole::ReadWrite;
    return Roles;
  case EncKind::ImulMulti:
    if (N == 1) {
      Roles[0] = OperandRole::Read;
    } else if (N == 2) {
      Roles[0] = OperandRole::Read;
      Roles[1] = OperandRole::ReadWrite;
    } else {
      assert(N == 3 && "imul takes 1-3 operands");
      Roles[0] = Roles[1] = OperandRole::Read;
      Roles[2] = OperandRole::Write;
    }
    return Roles;
  case EncKind::ShiftRot:
    if (N == 1) {
      Roles[0] = OperandRole::ReadWrite;
    } else {
      assert(N == 2 && "shift takes 1-2 operands");
      Roles[0] = OperandRole::Read;
      Roles[1] = OperandRole::ReadWrite;
    }
    return Roles;
  case EncKind::Push:
    assert(N == 1);
    Roles[0] = OperandRole::Read;
    return Roles;
  case EncKind::Pop:
    assert(N == 1);
    Roles[0] = OperandRole::Write;
    return Roles;
  case EncKind::Xchg:
    assert(N == 2);
    Roles[0] = Roles[1] = OperandRole::ReadWrite;
    return Roles;
  case EncKind::Bswap:
    assert(N == 1);
    Roles[0] = OperandRole::ReadWrite;
    return Roles;
  case EncKind::Setcc:
    assert(N == 1);
    Roles[0] = OperandRole::Write;
    return Roles;
  case EncKind::Cmovcc:
    assert(N == 2);
    Roles[0] = OperandRole::Read;
    Roles[1] = OperandRole::ReadWrite;
    return Roles;
  case EncKind::SseAlu:
    assert(N == 2);
    Roles[0] = OperandRole::Read;
    Roles[1] = (Insn.Mn == Mnemonic::UCOMISS || Insn.Mn == Mnemonic::UCOMISD)
                   ? OperandRole::Read
                   : OperandRole::ReadWrite;
    return Roles;
  case EncKind::Prefetch:
    assert(N == 1 && Insn.Ops[0].isMem() && "prefetch takes a memory operand");
    Roles[0] = OperandRole::Address;
    return Roles;
  case EncKind::Jmp:
  case EncKind::Jcc:
  case EncKind::Call:
    assert(N == 1 && "branch needs a target");
    // Direct targets are not data operands; indirect ones are read.
    Roles[0] = Insn.Ops[0].isSymbol() ? OperandRole::None : OperandRole::Read;
    return Roles;
  case EncKind::Ret:
  case EncKind::Fixed:
  case EncKind::Nop:
  case EncKind::Opaque:
    return Roles;
  }
  assert(false && "covered switch");
  return Roles;
}

namespace {

/// Maps an ImpRegBit mask from the opcode table to a RegMask.
RegMask impToRegMask(uint8_t Imp) {
  RegMask Mask = 0;
  if (Imp == ImpAllRegs)
    return 0xffffffffu;
  if (Imp & ImpRAX)
    Mask |= regMaskBit(Reg::RAX);
  if (Imp & ImpRBX)
    Mask |= regMaskBit(Reg::RBX);
  if (Imp & ImpRCX)
    Mask |= regMaskBit(Reg::RCX);
  if (Imp & ImpRDX)
    Mask |= regMaskBit(Reg::RDX);
  if (Imp & ImpRSP)
    Mask |= regMaskBit(Reg::RSP);
  if (Imp & ImpRBP)
    Mask |= regMaskBit(Reg::RBP);
  if (Imp & ImpRSI)
    Mask |= regMaskBit(Reg::RSI);
  if (Imp & ImpRDI)
    Mask |= regMaskBit(Reg::RDI);
  return Mask;
}

/// True when a register write covers the full architectural register:
/// 64-bit writes trivially, 32-bit writes by zero extension, XMM writes.
bool writeIsFullDef(Reg R) {
  if (regIsXmm(R))
    return true;
  Width W = regWidth(R);
  return W == Width::Q || W == Width::L;
}

} // namespace

InstructionEffects Instruction::effects() const {
  const OpcodeInfo &Info = info();
  InstructionEffects Fx;
  Fx.FlagsDef = Info.FlagsDef;
  Fx.FlagsUse = Info.FlagsUse;
  Fx.RegDefs = impToRegMask(Info.ImpDef);
  Fx.RegUses = impToRegMask(Info.ImpUse);

  // The 1-operand imul/mul family widens into rdx:rax; multi-operand imul
  // has no implicit operands, so the table carries none and we add the
  // accumulator effects only for the 1-operand form.
  if (Info.Kind == EncKind::ImulMulti && Ops.size() == 1) {
    Fx.RegDefs |= regMaskBit(Reg::RAX) | regMaskBit(Reg::RDX);
    Fx.RegUses |= regMaskBit(Reg::RAX);
  }
  // At byte width the family keeps the high half in %ah, not %dl (ax = al
  // * src; al, ah = ax / src), so %rdx is neither read nor written.
  if (W == Width::B && (Mn == Mnemonic::MUL || Mn == Mnemonic::IMUL ||
                        Mn == Mnemonic::DIV || Mn == Mnemonic::IDIV)) {
    Fx.RegDefs &= ~regMaskBit(Reg::RDX);
    Fx.RegUses &= ~regMaskBit(Reg::RDX);
  }

  if (CC != CondCode::None)
    Fx.FlagsUse |= condCodeFlagsUsed(CC);

  switch (Info.Kind) {
  case EncKind::Call:
    Fx.RegDefs |= CallClobberedMask;
    Fx.RegUses |= CallUsedMask;
    Fx.FlagsDef |= FlagsAllStatus;
    Fx.MemRead = Fx.MemWrite = true;
    Fx.Barrier = true;
    break;
  case EncKind::Ret:
    Fx.RegUses |= RetUsedMask;
    Fx.MemRead = true;
    break;
  case EncKind::Push:
    Fx.MemWrite = true;
    break;
  case EncKind::Pop:
    Fx.MemRead = true;
    break;
  case EncKind::Fixed:
    if (Mn == Mnemonic::LEAVE)
      Fx.MemRead = true;
    break;
  case EncKind::Opaque:
    Fx.MemRead = Fx.MemWrite = true;
    Fx.Barrier = true;
    break;
  default:
    break;
  }

  const OperandRoles Roles = operandRoles(*this);
  for (size_t I = 0, E = std::min<size_t>(Ops.size(), MaxRoleOperands); I != E;
       ++I) {
    const Operand &Op = Ops[I];
    const OperandRole R = Roles[I];
    if (R == OperandRole::None)
      continue;

    if (Op.isMem()) {
      Fx.RegUses |= regMaskBit(Op.Mem.Base) | regMaskBit(Op.Mem.Index);
      if (R == OperandRole::Read || R == OperandRole::ReadWrite)
        Fx.MemRead = true;
      if (R == OperandRole::Write || R == OperandRole::ReadWrite)
        Fx.MemWrite = true;
      continue;
    }
    if (!Op.isReg())
      continue;

    const RegMask Bit = regMaskBit(Op.R);
    if (R == OperandRole::Read || R == OperandRole::Address) {
      Fx.RegUses |= Bit;
      continue;
    }
    // Write or ReadWrite. Narrow writes merge into the old value, so they
    // also count as uses of the super register.
    Fx.RegDefs |= Bit;
    if (R == OperandRole::ReadWrite || !writeIsFullDef(Op.R))
      Fx.RegUses |= Bit;
  }
  return Fx;
}

std::string Instruction::mnemonicText() const {
  std::string Out;
  appendMnemonicTo(Out);
  return Out;
}

void Instruction::appendMnemonicTo(std::string &Out) const {
  const OpcodeInfo &Info = info();
  switch (Info.Kind) {
  case EncKind::Jcc:
    Out += 'j';
    Out += condCodeName(CC);
    return;
  case EncKind::Setcc:
    Out += "set";
    Out += condCodeName(CC);
    return;
  case EncKind::Cmovcc:
    Out += "cmov";
    Out += condCodeName(CC);
    return;
  case EncKind::Movx:
    // movslq keeps its idiomatic spelling; others are movz/movs + both
    // width suffixes (movzbl, movswq, ...).
    if (Mn == Mnemonic::MOVSX && SrcW == Width::L && W == Width::Q) {
      Out += "movslq";
      return;
    }
    Out += Info.Name;
    Out += widthSuffix(SrcW);
    Out += widthSuffix(W);
    return;
  case EncKind::Nop: {
    Out += "nop";
    if (NopLength <= 1)
      return;
    // MAO dialect: an explicit-length multi-byte NOP ("nop5" encodes as the
    // recommended 5-byte 0F 1F form). The original MAO reaches these via
    // gas; our assembler round-trips them textually.
    char Digits[4];
    Out.append(Digits, std::to_chars(Digits, Digits + sizeof(Digits),
                                     static_cast<unsigned>(NopLength))
                           .ptr);
    return;
  }
  case EncKind::Mov:
  case EncKind::AluRMI:
  case EncKind::Test:
  case EncKind::UnaryRM:
  case EncKind::ImulMulti:
  case EncKind::ShiftRot:
  case EncKind::Push:
  case EncKind::Pop:
  case EncKind::Xchg:
  case EncKind::Lea:
    Out += Info.Name;
    if (char Suffix = widthSuffix(W))
      Out += Suffix;
    return;
  default:
    // SseCvtMov among them: its movd/movq spelling already encodes the GPR
    // width.
    Out += Info.Name;
    return;
  }
}

std::string Instruction::toString() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

void Instruction::appendTo(std::string &Out) const {
  if (isOpaque()) {
    Out += rawText();
    return;
  }
  appendMnemonicTo(Out);
  if (Ops.empty())
    return;
  Out += '\t';
  for (size_t I = 0, E = Ops.size(); I != E; ++I) {
    if (I != 0)
      Out += ", ";
    Ops[I].appendTo(Out);
  }
}

Instruction mao::makeInstr(Mnemonic Mn, Width W) {
  Instruction Insn;
  Insn.Mn = Mn;
  Insn.W = W;
  return Insn;
}

Instruction mao::makeInstr(Mnemonic Mn, Width W, Operand Src, Operand Dst) {
  Instruction Insn = makeInstr(Mn, W);
  Insn.Ops.push_back(std::move(Src));
  Insn.Ops.push_back(std::move(Dst));
  return Insn;
}

Instruction mao::makeInstr(Mnemonic Mn, Width W, Operand Op) {
  Instruction Insn = makeInstr(Mn, W);
  Insn.Ops.push_back(std::move(Op));
  return Insn;
}

Instruction mao::makeJump(const std::string &Label) {
  Instruction Insn = makeInstr(Mnemonic::JMP, Width::None);
  Insn.Ops.push_back(Operand::makeSymbol(Label));
  return Insn;
}

Instruction mao::makeCondJump(CondCode CC, const std::string &Label) {
  Instruction Insn = makeInstr(Mnemonic::JCC, Width::None);
  Insn.CC = CC;
  Insn.Ops.push_back(Operand::makeSymbol(Label));
  return Insn;
}

Instruction mao::makeCall(const std::string &Label) {
  Instruction Insn = makeInstr(Mnemonic::CALL, Width::None);
  Insn.Ops.push_back(Operand::makeSymbol(Label));
  return Insn;
}

Instruction mao::makeNop(unsigned Bytes) {
  assert(Bytes >= 1 && Bytes <= 15 && "x86 NOPs encode in 1..15 bytes");
  Instruction Insn = makeInstr(Mnemonic::NOP, Width::None);
  Insn.NopLength = static_cast<uint8_t>(Bytes);
  return Insn;
}

Instruction mao::makeOpaque(std::string Text) {
  Instruction Insn = makeInstr(Mnemonic::OPAQUE, Width::None);
  Operand &Holder = Insn.Ops.emplace_back();
  Holder.Sym = std::move(Text);
  return Insn;
}
