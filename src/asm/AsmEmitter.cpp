//===- asm/AsmEmitter.cpp - Assembly text emission --------------------------==//

#include "asm/AsmEmitter.h"

using namespace mao;

std::string mao::emitAssembly(const MaoUnit &Unit) { return Unit.toString(); }
