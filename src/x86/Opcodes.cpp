//===- x86/Opcodes.cpp - Mnemonic table ------------------------------------==//

#include "x86/Opcodes.h"

using namespace mao;

const OpcodeInfo mao::OpcodeTable[static_cast<unsigned>(
    Mnemonic::NumMnemonics)] = {
    {"<invalid>", EncKind::Opaque, 0, 0, 0, 0, 0, 0, 0, 0, 0},
#define MAO_MNEM(Enum, Name, Kind, FDef, FUse, IDef, IUse, EncA, EncB, Lat,   \
                 Ports, Uops)                                                  \
  {Name,                                                                       \
   EncKind::Kind,                                                              \
   static_cast<uint8_t>(FDef),                                                 \
   static_cast<uint8_t>(FUse),                                                 \
   static_cast<uint8_t>(IDef),                                                 \
   static_cast<uint8_t>(IUse),                                                 \
   EncA,                                                                       \
   EncB,                                                                       \
   Lat,                                                                        \
   Ports,                                                                      \
   Uops},
#include "x86/Opcodes.def"
};

