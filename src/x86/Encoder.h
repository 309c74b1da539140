//===- x86/Encoder.h - x86-64 binary encoder --------------------*- C++ -*-===//
///
/// \file
/// Binary encoding of the modelled instruction subset. This is the substrate
/// the original MAO borrowed from gas: exact encodings give exact lengths,
/// which is what makes relaxation and every alignment-specific optimization
/// possible (paper Sec. II).
///
/// Direct branches encode with the displacement size recorded in
/// Instruction::BranchSize (1 = rel8, 4 = rel32); when unset, rel32 is
/// assumed. Displacements for branches and RIP-relative operands are
/// resolved against a label-address map when one is provided; unknown labels
/// encode as 0 (a relocation stand-in), which never changes the length.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_ENCODER_H
#define MAO_X86_ENCODER_H

#include "support/Status.h"
#include "x86/Instruction.h"

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mao {

/// Symbol name -> byte address within the current layout. Keys are views
/// into storage owned by the unit being laid out (entry label names /
/// interned strings), so a map must not outlive its unit; in exchange,
/// relaxation rounds and encoding do zero string allocations per lookup
/// (std::string arguments convert to string_view implicitly).
using LabelAddressMap = std::unordered_map<std::string_view, int64_t>;

/// Number of bytes an Opaque (unmodelled) instruction is assumed to occupy.
/// The original MAO has gas' exact sizes even for exotic instructions; we
/// use a fixed estimate so address computation stays defined in their
/// presence, and flag the enclosing function (see MaoFunction).
constexpr unsigned OpaqueInstructionSizeEstimate = 4;

/// Encodes \p Insn at byte address \p Address, appending to \p Out.
/// \p Labels may be null when no displacement resolution is wanted.
/// Returns an error for operand combinations outside the supported subset.
MaoStatus encodeInstruction(const Instruction &Insn, int64_t Address,
                            const LabelAddressMap *Labels,
                            std::vector<uint8_t> &Out);

/// Like encodeInstruction but without the fault-injection draw. For
/// callers that draw the injection decision themselves (the verifier's
/// memo-assisted encoding check) so the per-site draw sequence stays
/// one-per-instruction regardless of which lengths are memoized.
MaoStatus encodeInstructionNoInject(const Instruction &Insn, int64_t Address,
                                    const LabelAddressMap *Labels,
                                    std::vector<uint8_t> &Out);

/// Fallible, byte-free twin of encodeInstruction with no label map: the
/// same fault-injection draw and validity checks, and on success the
/// length encodeInstruction would have appended. Without a label map
/// encodeInstruction fails exactly when these checks do, so this is what
/// the parser validates (and measures) each instruction with.
MaoStatus encodedLength(const Instruction &Insn, unsigned &Length);

/// Returns the encoded length in bytes (branches honour BranchSize; opaque
/// instructions report OpaqueInstructionSizeEstimate). Measured without
/// building bytes: the encoder lays out the instruction's components and
/// sums them, after the same validity checks encodeInstruction makes
/// (minus the displacement range check, which needs a label map). Asserts
/// that the instruction is encodable; use encodedLength for fallible
/// validation of parsed input. Not memoized here: the IR keeps lengths on
/// the entry (MaoEntry::lengthMemo), which is where relaxation looks first.
unsigned instructionLength(const Instruction &Insn);

} // namespace mao

#endif // MAO_X86_ENCODER_H
