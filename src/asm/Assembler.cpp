//===- asm/Assembler.cpp - Binary section assembly ---------------------------==//

#include "asm/Assembler.h"

#include <cassert>
#include <cstdlib>
#include <unordered_set>
#include <utility>

using namespace mao;

namespace {

/// Appends \p Value little-endian in \p Bytes bytes.
void appendLE(std::vector<uint8_t> &Out, int64_t Value, unsigned Bytes) {
  for (unsigned I = 0; I < Bytes; ++I)
    Out.push_back(static_cast<uint8_t>((Value >> (8 * I)) & 0xff));
}

/// Resolves a data-directive argument: integer, label, or label difference
/// ("a-b"); unresolved symbols yield 0 (relocation stand-in).
int64_t resolveDataArg(const std::string &Arg, const LabelAddressMap &Labels) {
  if (Arg.empty())
    return 0;
  char *End = nullptr;
  long long V = std::strtoll(Arg.c_str(), &End, 0);
  if (End == Arg.c_str() + Arg.size() && End != Arg.c_str())
    return V;
  // Label difference: "a-b" (jump tables emitted as relative offsets).
  size_t Minus = Arg.find('-', 1);
  if (Minus != std::string::npos) {
    auto A = Labels.find(Arg.substr(0, Minus));
    auto B = Labels.find(Arg.substr(Minus + 1));
    if (A != Labels.end() && B != Labels.end())
      return A->second - B->second;
    return 0;
  }
  auto It = Labels.find(Arg);
  return It == Labels.end() ? 0 : It->second;
}

/// Unescapes a quoted string literal (supports the escapes gas emits).
std::string unescapeString(const std::string &Quoted) {
  std::string Out;
  if (Quoted.size() < 2 || Quoted.front() != '"' || Quoted.back() != '"')
    return Out;
  for (size_t I = 1; I + 1 < Quoted.size(); ++I) {
    char C = Quoted[I];
    if (C != '\\') {
      Out += C;
      continue;
    }
    ++I;
    if (I + 1 >= Quoted.size() + 1)
      break;
    char E = Quoted[I];
    switch (E) {
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case '\\':
      Out += '\\';
      break;
    case '"':
      Out += '"';
      break;
    default:
      if (E >= '0' && E <= '7') {
        unsigned Value = 0, Digits = 0;
        while (Digits < 3 && I + 1 < Quoted.size() && Quoted[I] >= '0' &&
               Quoted[I] <= '7') {
          Value = Value * 8 + static_cast<unsigned>(Quoted[I] - '0');
          ++I;
          ++Digits;
        }
        --I;
        Out += static_cast<char>(Value);
      } else {
        Out += E;
      }
    }
  }
  return Out;
}

/// Emits alignment padding: multi-byte NOPs in code sections, zeros in data.
/// The NOP patterns and the 11-byte chunking match gas' alt_patt table so
/// that MAO-assembled text is byte-identical with GNU as output.
void emitPad(std::vector<uint8_t> &Out, unsigned Pad, bool IsCode) {
  if (!IsCode) {
    Out.insert(Out.end(), Pad, 0);
    return;
  }
  static const uint8_t Patterns[11][11] = {
      {0x90},
      {0x66, 0x90},
      {0x0f, 0x1f, 0x00},
      {0x0f, 0x1f, 0x40, 0x00},
      {0x0f, 0x1f, 0x44, 0x00, 0x00},
      {0x66, 0x0f, 0x1f, 0x44, 0x00, 0x00},
      {0x0f, 0x1f, 0x80, 0x00, 0x00, 0x00, 0x00},
      {0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x2e, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x66, 0x2e, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  while (Pad > 0) {
    unsigned Chunk = Pad > 11 ? 11 : Pad;
    Out.insert(Out.end(), Patterns[Chunk - 1], Patterns[Chunk - 1] + Chunk);
    Pad -= Chunk;
  }
}

MaoStatus emitDirective(const MaoEntry &Entry, const LabelAddressMap &Labels,
                        bool IsCode, std::vector<uint8_t> &Out) {
  const Directive &Dir = Entry.directive();
  switch (Dir.Kind) {
  case DirKind::P2Align:
  case DirKind::Balign:
    emitPad(Out, Entry.Size, IsCode);
    return MaoStatus::success();
  case DirKind::Byte:
  case DirKind::Word:
  case DirKind::Long:
  case DirKind::Quad: {
    unsigned Width = Dir.Kind == DirKind::Byte   ? 1
                     : Dir.Kind == DirKind::Word ? 2
                     : Dir.Kind == DirKind::Long ? 4
                                                 : 8;
    for (const std::string &Arg : Dir.Args)
      appendLE(Out, resolveDataArg(Arg, Labels), Width);
    return MaoStatus::success();
  }
  case DirKind::Zero:
    Out.insert(Out.end(), Entry.Size, 0);
    return MaoStatus::success();
  case DirKind::String:
  case DirKind::Asciz: {
    std::string S = unescapeString(Dir.arg(0));
    Out.insert(Out.end(), S.begin(), S.end());
    Out.push_back(0);
    return MaoStatus::success();
  }
  case DirKind::Ascii: {
    std::string S = unescapeString(Dir.arg(0));
    Out.insert(Out.end(), S.begin(), S.end());
    return MaoStatus::success();
  }
  default:
    return MaoStatus::success(); // No bytes.
  }
}

} // namespace

ErrorOr<SectionBytes> mao::assembleUnit(MaoUnit &Unit,
                                        const RelaxationResult &Relax) {
  SectionBytes Result;
  // Calls to global symbols go through PLT relocations even when the
  // callee is defined in this unit (gas emits R_X86_64_PLT32 with a zero
  // displacement field), so calls must not resolve such targets. Jumps are
  // different: gas relaxes and resolves a jump to any defined same-section
  // symbol regardless of binding, so they use the full section map.
  std::unordered_set<std::string> Globals;
  for (const MaoEntry &E : Unit.entries())
    if (E.isDirective(DirKind::Globl))
      Globals.insert(E.directive().arg(0));
  for (SectionInfo &Sec : Unit.sections()) {
    std::vector<uint8_t> &Bytes = Result[Sec.Name];
    // Branch displacements resolve against the section's own label map:
    // labels of other sections live in unrelated address spaces (each
    // section restarts at 0), so the relaxer leaves cross-section targets
    // at rel32 and they must stay unresolved here (relocation stand-in).
    // Data directives keep the flat map — jump tables in .rodata emit
    // .text label differences, which the flat view resolves.
    const LabelAddressMap &SecLabels = Relax.sectionLabels(Sec.Name);
    LabelAddressMap CallView;
    const LabelAddressMap *CallLabels = &SecLabels;
    if (!Globals.empty()) {
      CallView = SecLabels;
      for (const std::string &G : Globals)
        CallView.erase(G);
      CallLabels = &CallView;
    }
    for (const MaoFunction::Range &R : Sec.Ranges) {
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        const int64_t Expected = It->Address + It->Size;
        if (It->isInstruction()) {
          const Instruction &Insn = std::as_const(*It).instruction();
          if (Insn.isOpaque()) {
            // Placeholder bytes, matching the size estimate.
            Bytes.insert(Bytes.end(), It->Size, 0xcc);
          } else if (MaoStatus S = encodeInstruction(
                         Insn, It->Address,
                         Insn.isCall() ? CallLabels : &SecLabels, Bytes)) {
            return MaoStatus::error("cannot encode '" + Insn.toString() +
                                    "': " + S.message());
          }
        } else if (It->isDirective()) {
          if (MaoStatus S = emitDirective(*It, Relax.Labels, Sec.IsCode,
                                          Bytes))
            return S;
        }
        if (static_cast<int64_t>(Bytes.size()) != Expected)
          return MaoStatus::error(
              "layout size mismatch at '" + It->toString() + "': expected " +
              std::to_string(Expected) + " bytes, emitted " +
              std::to_string(Bytes.size()));
      }
    }
  }
  return Result;
}

ErrorOr<SectionBytes> mao::assembleUnit(MaoUnit &Unit) {
  RelaxationResult Relax = relaxUnit(Unit);
  if (!Relax.Converged)
    return MaoStatus::error("relaxation did not converge within " +
                            std::to_string(RelaxationIterationLimit) +
                            " iterations");
  return assembleUnit(Unit, Relax);
}
