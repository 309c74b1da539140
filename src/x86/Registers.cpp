//===- x86/Registers.cpp - x86-64 register model ---------------------------==//

#include "x86/Registers.h"

#include "support/PackedNameTable.h"

#include <cassert>

using namespace mao;

const RegInfo mao::RegTable[static_cast<unsigned>(Reg::NumRegs)] = {
    {"none", Width::None, 0, Reg::None, false, false},
#define MAO_REG(Name, Att, W, Enc, Super, Rex, High)                           \
  {Att, Width::W, Enc, Reg::Super, Rex != 0, High != 0},
#include "x86/Registers.def"
};

Reg mao::parseRegName(std::string_view Name) {
  // Every modelled register name fits in 8 bytes ("xmm15" is the longest).
  static const PackedNameTable<Reg, 8> Table = [] {
    PackedNameTable<Reg, 8> T;
    for (unsigned I = 1; I < static_cast<unsigned>(Reg::NumRegs); ++I)
      T.insert(RegTable[I].Name, static_cast<Reg>(I));
    return T;
  }();
  const Reg *R = Table.find(Name);
  return R ? *R : Reg::None;
}

Reg mao::gprWithWidth(Reg Super64, Width W) {
  assert(Super64 >= Reg::RAX && Super64 <= Reg::R15 &&
         "gprWithWidth needs a 64-bit super register");
  unsigned Index = static_cast<unsigned>(Super64) -
                   static_cast<unsigned>(Reg::RAX);
  switch (W) {
  case Width::Q:
    return Super64;
  case Width::L:
    return static_cast<Reg>(static_cast<unsigned>(Reg::EAX) + Index);
  case Width::W:
    return static_cast<Reg>(static_cast<unsigned>(Reg::AX) + Index);
  case Width::B:
    return static_cast<Reg>(static_cast<unsigned>(Reg::AL) + Index);
  case Width::None:
    break;
  }
  assert(false && "invalid width for a GPR view");
  return Reg::None;
}

unsigned mao::gprSuperIndex(Reg R) {
  Reg Super = superReg(R);
  assert(Super >= Reg::RAX && Super <= Reg::R15 && "not a GPR");
  return static_cast<unsigned>(Super) - static_cast<unsigned>(Reg::RAX);
}
