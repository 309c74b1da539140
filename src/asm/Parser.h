//===- asm/Parser.h - AT&T assembly parser ----------------------*- C++ -*-===//
///
/// \file
/// Parses AT&T-syntax x86-64 assembly (the dialect GCC emits) into a
/// MaoUnit. Replaces the gas front end of the original MAO.
///
/// Instructions outside the modelled subset do not abort parsing: they
/// become Opaque entries carrying their verbatim text, are re-emitted
/// unchanged, and are treated by every analysis as reading and writing
/// everything — mirroring how the original handles inline assembly it
/// cannot reason about. Every successfully modelled instruction is
/// guaranteed encodable by the binary encoder: the parser validates by
/// measuring the encoding once (encodedLength), and every instruction but
/// a direct branch keeps that length as its entry's length memo.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ASM_PARSER_H
#define MAO_ASM_PARSER_H

#include "ir/MaoUnit.h"
#include "support/Diag.h"
#include "support/Status.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mao {

/// Parse-time statistics, mainly for the compile-time experiment (E9).
struct ParseStats {
  size_t Lines = 0;
  size_t Instructions = 0;
  size_t OpaqueInstructions = 0;
  size_t Labels = 0;
  size_t Directives = 0;
};

/// Parses \p Text into a fresh MaoUnit and builds its structure.
/// Fails only on malformed file-level syntax (e.g. unterminated string);
/// unknown instructions degrade to opaque entries instead. Error messages
/// carry a "file:line:" prefix built from \p Filename and the 1-based line
/// the error was found on; when \p Diags is non-null the same errors are
/// also reported as structured diagnostics.
ErrorOr<MaoUnit> parseAssembly(const std::string &Text,
                               ParseStats *Stats = nullptr,
                               const std::string &Filename = "<input>",
                               DiagEngine *Diags = nullptr);

/// What a mnemonic spelling decodes to: "addl" is ADD at width L, "movzbl"
/// MOVZX from B to L, "jne" JCC with condition NE, "nop5" a 5-byte NOP.
/// "movabs" is MOV at width Q spelled as movabs: see movabsAsMovq().
struct MnemonicSpelling {
  Mnemonic Mn = Mnemonic::Invalid;
  Width W = Width::None;
  Width SrcW = Width::None;
  CondCode CC = CondCode::None;
  uint8_t NopLength = 1;
  bool Movabs = false;

  bool operator==(const MnemonicSpelling &) const = default;
};

/// Decodes a mnemonic spelling; std::nullopt when the grammar has none
/// (the instruction then parses as opaque).
std::optional<MnemonicSpelling> parseMnemonic(std::string_view Text);

/// The fixed spellings parseMnemonic() looks up, in rule order; a spelling
/// listed more than once resolves to its first entry. (Non-canonical NOP
/// lengths such as "nop007" are decoded outside the table.)
std::vector<std::pair<std::string, MnemonicSpelling>> mnemonicSpellings();

/// Whether a movabs with \p Insn's operands is modelled, as the movq it is
/// printed as: only a constant outside imm32 loaded into a 64-bit register,
/// where both encode B8+r imm64. Its moffs64 memory forms (A0-A3) and its
/// imm64 load of a symbol or a small constant have bytes movq lacks, so
/// those stay opaque and are emitted verbatim.
bool movabsAsMovq(const Instruction &Insn);

/// Parses a single instruction line (no label/directive). Exposed for
/// tests and the detection framework. Falls back to an opaque instruction
/// when the text is not in the modelled subset.
Instruction parseInstructionLine(const std::string &Line);

} // namespace mao

#endif // MAO_ASM_PARSER_H
