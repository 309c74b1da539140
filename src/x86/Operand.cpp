//===- x86/Operand.cpp - Instruction operand model -------------------------==//

#include "x86/Operand.h"

#include <cassert>
#include <charconv>

using namespace mao;

static void appendInt(std::string &Out, int64_t Value) {
  char Buffer[24];
  const auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  assert(Ec == std::errc() && "an int64_t fits in 24 characters");
  (void)Ec;
  Out.append(Buffer, End);
}

/// Renders "sym", "sym+4", or "" / decimal displacement.
static void appendSymPlusAddend(std::string &Out, const std::string &Sym,
                                int64_t Addend, bool OmitZero) {
  if (!Sym.empty()) {
    Out += Sym;
    if (Addend > 0) {
      Out += '+';
      appendInt(Out, Addend);
    } else if (Addend < 0) {
      appendInt(Out, Addend);
    }
    return;
  }
  if (Addend != 0 || !OmitZero)
    appendInt(Out, Addend);
}

std::string Operand::toString() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

void Operand::appendTo(std::string &Out) const {
  switch (Kind) {
  case OperandKind::None:
    Out += "<none>";
    return;
  case OperandKind::Register:
    if (IndirectStar)
      Out += '*';
    Out += '%';
    Out += regName(R);
    return;
  case OperandKind::Immediate:
    Out += '$';
    appendSymPlusAddend(Out, Sym, Imm, /*OmitZero=*/false);
    return;
  case OperandKind::Symbol:
    appendSymPlusAddend(Out, Sym, Imm, /*OmitZero=*/false);
    return;
  case OperandKind::Memory: {
    if (IndirectStar)
      Out += '*';
    // A zero displacement goes without saying only before a register:
    // an absolute address 0 prints as "0".
    const bool HasRegs = Mem.Base != Reg::None || Mem.Index != Reg::None;
    appendSymPlusAddend(Out, Sym, Imm, /*OmitZero=*/HasRegs);
    if (!HasRegs)
      return;
    Out += '(';
    if (Mem.Base != Reg::None) {
      Out += '%';
      Out += regName(Mem.Base);
    }
    if (Mem.Index != Reg::None) {
      assert(Mem.Index != Reg::RSP && "rsp cannot be an index register");
      Out += ",%";
      Out += regName(Mem.Index);
      Out += ',';
      Out += static_cast<char>('0' + Mem.Scale);
    }
    Out += ')';
    return;
  }
  }
  assert(false && "covered switch");
}
