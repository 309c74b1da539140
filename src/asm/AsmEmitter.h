//===- asm/AsmEmitter.h - Assembly text emission ----------------*- C++ -*-===//
///
/// \file
/// Emission of a MaoUnit back to textual assembly (the ASM pass backend).
/// "At the end of the optimization phase, MAO writes out the content of
/// these structs in legible textual assembly" (paper Sec. II).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ASM_ASMEMITTER_H
#define MAO_ASM_ASMEMITTER_H

#include "ir/MaoUnit.h"

#include <string>

namespace mao {

/// Renders \p Unit as assembly text (same as Unit.toString(); named entry
/// point so clients do not depend on IR internals).
std::string emitAssembly(const MaoUnit &Unit);

} // namespace mao

#endif // MAO_ASM_ASMEMITTER_H
