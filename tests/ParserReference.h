//===- tests/ParserReference.h - Split-and-trim reference parser -*- C++ -*-===//
///
/// \file
/// The reference the one-scan parser is checked against (ParserTest's
/// differential oracle). It lexes the way the parser did before it read
/// each line in one forward scan: split the input at '\n', strip the '#'
/// comment with a string-aware pass, trim, peel labels, then split the
/// operands at top-level commas, trim each part, find the memory operand's
/// '(' and split its inside again. Instructions are built in a temporary
/// and moved into the unit. It applies the same CRLF rule (a '\r' before
/// the '\n' is not part of the line) and shares the mnemonic table, the
/// register table and encodedLength with the parser, so a difference in
/// output is a difference in lexing.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_TESTS_PARSERREFERENCE_H
#define MAO_TESTS_PARSERREFERENCE_H

#include "asm/Parser.h"
#include "support/FaultInjection.h"
#include "x86/Encoder.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mao::reference {
namespace {

std::string_view trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B != E && (S[B] == ' ' || S[B] == '\t'))
    ++B;
  while (E != B && (S[E - 1] == ' ' || S[E - 1] == '\t'))
    --E;
  return S.substr(B, E - B);
}

/// Per-byte classification tables: the lexer asks these questions for
/// nearly every input byte, so they must not go through the locale-aware
/// libc functions.
struct CharTables {
  bool Label[256] = {};
  bool Space[256] = {};
  constexpr CharTables() {
    for (unsigned C = '0'; C <= '9'; ++C)
      Label[C] = true;
    for (unsigned C = 'a'; C <= 'z'; ++C)
      Label[C] = Label[C - 'a' + 'A'] = true;
    Label[static_cast<unsigned char>('_')] = true;
    Label[static_cast<unsigned char>('.')] = true;
    Label[static_cast<unsigned char>('$')] = true;
    Label[static_cast<unsigned char>('@')] = true;
    for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
      Space[static_cast<unsigned char>(C)] = true;
  }
};
constexpr CharTables Chars;

bool isLabelChar(char C) { return Chars.Label[static_cast<unsigned char>(C)]; }
bool isSpaceChar(char C) { return Chars.Space[static_cast<unsigned char>(C)]; }

bool isAllDigits(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return true;
}

/// Splits on commas at paren depth zero, outside quoted strings, appending
/// trimmed views into \p Parts (cleared first). Views alias \p Text.
void splitTopLevelCommas(std::string_view Text,
                         std::vector<std::string_view> &Parts) {
  Parts.clear();
  size_t Start = 0;
  int Depth = 0;
  bool InString = false;
  bool Any = false;
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (InString) {
      if (C == '\\' && I + 1 < Text.size())
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"') {
      InString = true;
      continue;
    }
    if (C == '(')
      ++Depth;
    else if (C == ')')
      --Depth;
    if (C == ',' && Depth == 0) {
      Parts.push_back(trim(Text.substr(Start, I - Start)));
      Start = I + 1;
      Any = true;
    }
  }
  std::string_view Last = trim(Text.substr(Start));
  if (!Last.empty() || Any)
    Parts.push_back(Last);
}

/// Parses a full integer with strtoll base-0 semantics (decimal, 0x hex,
/// leading-0 octal, optional sign); returns false unless the whole view is
/// consumed. Out-of-range values clamp like strtoll.
bool parseInteger(std::string_view Text, int64_t &Value) {
  if (Text.empty())
    return false;
  size_t I = 0;
  bool Neg = false;
  if (Text[0] == '+' || Text[0] == '-') {
    Neg = Text[0] == '-';
    I = 1;
  }
  int Base = 10;
  if (Text.size() - I >= 2 && Text[I] == '0' &&
      (Text[I + 1] == 'x' || Text[I + 1] == 'X')) {
    Base = 16;
    I += 2;
  } else if (Text.size() - I >= 1 && Text[I] == '0') {
    Base = 8;
  }
  if (I >= Text.size())
    return false;
  unsigned long long Magnitude = 0;
  const char *First = Text.data() + I;
  const char *Last = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Magnitude, Base);
  if (Ptr != Last || Ec == std::errc::invalid_argument)
    return false;
  if (Ec == std::errc::result_out_of_range) {
    Value = Neg ? std::numeric_limits<int64_t>::min()
                : std::numeric_limits<int64_t>::max();
    return true;
  }
  // Negate in unsigned arithmetic: -2^63 has no positive int64_t.
  Value = static_cast<int64_t>(Neg ? 0 - Magnitude : Magnitude);
  return true;
}

/// True when \p S spells a GAS numeric local-label reference: digits
/// followed by 'b' (last definition backwards) or 'f' (next definition
/// forwards). \p N receives the label number, \p Dir the direction char.
bool isLocalLabelRef(std::string_view S, uint64_t &N, char &Dir) {
  if (S.size() < 2)
    return false;
  char Last = S.back();
  if (Last != 'b' && Last != 'f')
    return false;
  std::string_view Digits = S.substr(0, S.size() - 1);
  if (!isAllDigits(Digits))
    return false;
  const char *First = Digits.data();
  auto [Ptr, Ec] = std::from_chars(First, First + Digits.size(), N, 10);
  if (Ptr != First + Digits.size() || Ec != std::errc())
    return false;
  Dir = Last;
  return true;
}

/// Parses "sym", "sym+4", "sym-4" into name and addend. The symbol must
/// start with a non-digit label character — except for numeric local-label
/// references ("1b"/"1f"), which are accepted whole and resolved to their
/// internal names by parseAssembly.
bool parseSymbolExpr(std::string_view Text, std::string_view &Name,
                     int64_t &Addend) {
  if (Text.empty())
    return false;
  size_t I = 0;
  if (std::isdigit(static_cast<unsigned char>(Text[0]))) {
    while (I < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[I])))
      ++I;
    if (I >= Text.size() || (Text[I] != 'b' && Text[I] != 'f'))
      return false;
    ++I; // The direction suffix is part of the name ("1b").
  } else {
    while (I < Text.size() && isLabelChar(Text[I]))
      ++I;
    if (I == 0)
      return false;
  }
  Name = Text.substr(0, I);
  Addend = 0;
  if (I == Text.size())
    return true;
  if (Text[I] != '+' && Text[I] != '-')
    return false;
  int64_t Rest = 0;
  if (!parseInteger(Text.substr(I), Rest))
    return false;
  Addend = Rest;
  return true;
}

/// Reused per-parse scratch so the hot path performs no per-line heap
/// allocation beyond what lands in the IR.
struct ParseScratch {
  std::vector<std::string_view> Operands;
  std::vector<std::string_view> MemParts;
};

/// Parses one operand in AT&T syntax into \p Op, a default-constructed
/// operand (the instruction's own slot, so the symbol is built in place).
/// A bare symbol is a branch or call target when \p BranchTarget, else an
/// absolute memory operand. Returns false on anything outside the modelled
/// forms (the caller degrades the instruction to opaque).
bool parseOperandText(std::string_view RawText, ParseScratch &Scratch,
                      Operand &Op, bool BranchTarget) {
  std::string_view Text = trim(RawText);
  if (Text.empty())
    return false;

  bool Star = false;
  if (Text[0] == '*') {
    Star = true;
    Text = trim(Text.substr(1));
    if (Text.empty())
      return false;
  }

  std::string_view Sym;
  if (Text[0] == '$') {
    std::string_view Body = Text.substr(1);
    Op.Kind = OperandKind::Immediate;
    if (parseInteger(Body, Op.Imm))
      return true;
    if (!parseSymbolExpr(Body, Sym, Op.Imm))
      return false;
    Op.Sym = Sym;
    return true;
  }

  Op.IndirectStar = Star;
  if (Text[0] == '%') {
    Op.Kind = OperandKind::Register;
    Op.R = parseRegName(Text.substr(1));
    return Op.R != Reg::None;
  }

  size_t Paren = Text.find('(');
  if (Paren != std::string_view::npos) {
    if (Text.back() != ')')
      return false;
    Op.Kind = OperandKind::Memory;
    MemRef &M = Op.Mem;
    std::string_view DispText = trim(Text.substr(0, Paren));
    if (!DispText.empty() && !parseInteger(DispText, Op.Imm) &&
        !parseSymbolExpr(DispText, Sym, Op.Imm))
      return false;
    std::string_view Inner =
        Text.substr(Paren + 1, Text.size() - Paren - 2);
    std::vector<std::string_view> &Parts = Scratch.MemParts;
    splitTopLevelCommas(Inner, Parts);
    if (Parts.empty() || Parts.size() > 3)
      return false;
    if (!Parts[0].empty()) {
      if (Parts[0][0] != '%')
        return false;
      M.Base = parseRegName(Parts[0].substr(1));
      if (M.Base == Reg::None)
        return false;
    }
    if (Parts.size() >= 2 && !Parts[1].empty()) {
      if (Parts[1][0] != '%')
        return false;
      M.Index = parseRegName(Parts[1].substr(1));
      if (M.Index == Reg::None)
        return false;
    }
    if (Parts.size() == 3 && !Parts[2].empty()) {
      int64_t Scale = 0;
      if (!parseInteger(Parts[2], Scale) ||
          (Scale != 1 && Scale != 2 && Scale != 4 && Scale != 8))
        return false;
      M.Scale = static_cast<uint8_t>(Scale);
    }
    Op.Sym = Sym;
    return true;
  }

  // Bare integer: absolute memory reference.
  if (parseInteger(Text, Op.Imm)) {
    Op.Kind = OperandKind::Memory;
    return true;
  }

  // Bare symbol: direct target, else an absolute data address.
  if (!parseSymbolExpr(Text, Sym, Op.Imm))
    return false;
  Op.Kind = BranchTarget ? OperandKind::Symbol : OperandKind::Memory;
  Op.Sym = Sym;
  return true;
}

struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

/// Widths are implied by register operands when the suffix is omitted
/// ("mov %rax, %rbx").
void deduceWidth(Instruction &Insn) {
  if (Insn.W != Width::None)
    return;
  const EncKind K = Insn.info().Kind;
  if (K == EncKind::Push || K == EncKind::Pop) {
    Insn.W = Width::Q;
    return;
  }
  for (auto It = Insn.Ops.rbegin(), E = Insn.Ops.rend(); It != E; ++It) {
    if (It->isReg() && regIsGpr(It->R)) {
      Insn.W = regWidth(It->R);
      return;
    }
  }
}

/// Branch/call targets must be a symbol or a '*'-marked indirect operand.
bool validateBranchTarget(const Instruction &Insn) {
  const Operand *Target = Insn.branchTarget();
  if (!Target)
    return true;
  if (Target->isSymbol())
    return !Target->IndirectStar;
  if (Target->isReg() || Target->isMem())
    return Target->IndirectStar;
  return false;
}

/// Parses one modelled instruction into \p Insn, a default-constructed
/// instruction, and sets \p Length to its encoded length (rel32 for a
/// direct branch). Returns false for anything outside the modelled forms.
bool parseModelledInstruction(std::string_view Line, ParseScratch &Scratch,
                              Instruction &Insn, unsigned &Length) {
  std::string_view Text = trim(Line);
  size_t NameEnd = 0;
  while (NameEnd < Text.size() && !isSpaceChar(Text[NameEnd]))
    ++NameEnd;
  std::string_view Name = Text.substr(0, NameEnd);
  std::string_view Rest = trim(Text.substr(NameEnd));

  auto ParsedMnemonic = parseMnemonic(Name);
  if (!ParsedMnemonic)
    return false;

  Insn.Mn = ParsedMnemonic->Mn;
  Insn.W = ParsedMnemonic->W;
  Insn.SrcW = ParsedMnemonic->SrcW;
  Insn.CC = ParsedMnemonic->CC;
  Insn.NopLength = ParsedMnemonic->NopLength;

  if (!Rest.empty()) {
    const EncKind Kind = Insn.info().Kind;
    const bool Branch =
        Kind == EncKind::Jmp || Kind == EncKind::Jcc || Kind == EncKind::Call;
    std::vector<std::string_view> &Operands = Scratch.Operands;
    splitTopLevelCommas(Rest, Operands);
    Insn.Ops.reserve(Operands.size());
    for (std::string_view OpText : Operands)
      if (!parseOperandText(OpText, Scratch, Insn.Ops.emplace_back(), Branch))
        return false;
  }

  // GPR `movq`/`movd` with an xmm operand is the SSE move form.
  if (Insn.Mn == Mnemonic::MOV) {
    bool HasXmm = false;
    for (const Operand &Op : Insn.Ops)
      if (Op.isReg() && regIsXmm(Op.R))
        HasXmm = true;
    if (HasXmm)
      Insn.Mn = Mnemonic::MOVQX;
  }

  deduceWidth(Insn);

  // Structural validation: operand counts per kind are enforced by assert
  // in downstream code, so check here and degrade gracefully instead.
  auto CountOk = [&]() -> bool {
    switch (Insn.info().Kind) {
    case EncKind::Mov:
    case EncKind::Movx:
    case EncKind::Lea:
    case EncKind::AluRMI:
    case EncKind::Test:
    case EncKind::Xchg:
    case EncKind::Cmovcc:
    case EncKind::SseMov:
    case EncKind::SseCvtMov:
    case EncKind::SseAlu:
      return Insn.Ops.size() == 2;
    case EncKind::UnaryRM:
    case EncKind::Push:
    case EncKind::Pop:
    case EncKind::Bswap:
    case EncKind::Setcc:
    case EncKind::Jmp:
    case EncKind::Jcc:
    case EncKind::Call:
    case EncKind::Prefetch:
      return Insn.Ops.size() == 1;
    case EncKind::ImulMulti:
      return Insn.Ops.size() >= 1 && Insn.Ops.size() <= 3;
    case EncKind::ShiftRot:
      return Insn.Ops.size() == 1 || Insn.Ops.size() == 2;
    case EncKind::Ret:
      return Insn.Ops.size() <= 1;
    case EncKind::Fixed:
    case EncKind::Nop:
      return Insn.Ops.empty();
    case EncKind::Opaque:
      return true;
    }
    return false;
  };
  // The count first: a branch without a target has no target to check.
  if (!CountOk() || !validateBranchTarget(Insn) ||
      (ParsedMnemonic->Movabs && !movabsAsMovq(Insn)))
    return false;

  // Widthful kinds must have a width by now (e.g. `movl $1, (%rax)` needs
  // the suffix; without one the instruction is ambiguous).
  switch (Insn.info().Kind) {
  case EncKind::Mov:
  case EncKind::AluRMI:
  case EncKind::Test:
  case EncKind::UnaryRM:
  case EncKind::ImulMulti:
  case EncKind::ShiftRot:
  case EncKind::Xchg:
  case EncKind::Bswap:
  case EncKind::Cmovcc:
    if (Insn.W == Width::None)
      return false;
    break;
  default:
    break;
  }

  // Final validation: must be encodable. Measuring runs every check
  // encoding does, without building the bytes.
  return encodedLength(Insn, Length).ok();
}

/// Parses one instruction. \p Length receives its encoded length (rel32
/// for a direct branch), or 0 when the instruction is opaque. Operands are
/// parsed into the instruction's own slots and the instruction is the
/// named return value, so a symbol is built once and not moved until it
/// lands in its list node.
Instruction parseInstructionImpl(std::string_view Line, ParseScratch &Scratch,
                                 unsigned &Length) {
  Instruction Insn;
  if (!parseModelledInstruction(Line, Scratch, Insn, Length)) {
    Length = 0;
    Insn = mao::makeOpaque(std::string(trim(Line)));
  }
  return Insn;
}

Directive parseDirectiveLine(std::string_view Text,
                             ParseScratch &Scratch) {
  Directive Dir;
  size_t NameEnd = 0;
  while (NameEnd < Text.size() && !isSpaceChar(Text[NameEnd]))
    ++NameEnd;
  Dir.Name = std::string(Text.substr(0, NameEnd));
  std::string_view Rest = trim(Text.substr(NameEnd));
  if (!Rest.empty()) {
    std::vector<std::string_view> &Parts = Scratch.Operands;
    splitTopLevelCommas(Rest, Parts);
    Dir.Args.reserve(Parts.size());
    for (std::string_view Part : Parts)
      Dir.Args.emplace_back(Part);
  }

  static const std::unordered_map<std::string, DirKind, SvHash,
                                  std::equal_to<>>
      KindMap = {
          {".text", DirKind::Text},       {".data", DirKind::Data},
          {".bss", DirKind::Bss},         {".section", DirKind::Section},
          {".p2align", DirKind::P2Align}, {".balign", DirKind::Balign},
          {".align", DirKind::Balign},    {".globl", DirKind::Globl},
          {".global", DirKind::Globl},    {".type", DirKind::Type},
          {".size", DirKind::Size},       {".byte", DirKind::Byte},
          {".word", DirKind::Word},       {".value", DirKind::Word},
          {".short", DirKind::Word},      {".long", DirKind::Long},
          {".int", DirKind::Long},        {".quad", DirKind::Quad},
          {".zero", DirKind::Zero},       {".skip", DirKind::Zero},
          {".space", DirKind::Zero},      {".string", DirKind::String},
          {".ascii", DirKind::Ascii},     {".asciz", DirKind::Asciz},
      };
  auto It = KindMap.find(Dir.Name);
  Dir.Kind = It == KindMap.end() ? DirKind::Other : It->second;
  return Dir;
}

/// Strips '#' comments outside of quoted strings. Sets \p Malformed when
/// the line ends inside an unterminated string literal.
std::string_view stripComment(std::string_view Line, bool &Malformed) {
  // Fast path: no string literal on the line (the overwhelming case), so
  // the first '#' — if any — starts the comment. find() is memchr.
  if (Line.find('"') == std::string_view::npos) {
    Malformed = false;
    size_t Hash = Line.find('#');
    return Hash == std::string_view::npos ? Line : Line.substr(0, Hash);
  }
  bool InString = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '#') {
      Malformed = InString;
      return Line.substr(0, I);
    }
  }
  Malformed = InString;
  return Line;
}

/// Internal name for the \p K-th definition of numeric local label \p N
/// (1-based). The ".LMAOL" prefix is reserved alongside makeUniqueLabel's
/// ".LMAO" namespace.
std::string localLabelName(uint64_t N, uint32_t K) {
  return ".LMAOL" + std::to_string(N) + "_" + std::to_string(K);
}

/// True when \p Text contains a token spelling a numeric local-label
/// reference ("1b"/"12f") at label-char boundaries. Used to reject opaque
/// instructions and directive arguments that mention local labels once
/// definitions have been renamed — passing the raw text through would
/// dangle, and mis-binding is the one thing this parser must never do.
bool mentionsLocalLabelRef(std::string_view Text) {
  for (size_t I = 0; I < Text.size();) {
    if (!std::isdigit(static_cast<unsigned char>(Text[I]))) {
      // Skip the rest of any label-char run so "x86f" is not a match.
      if (isLabelChar(Text[I])) {
        while (I < Text.size() && isLabelChar(Text[I]))
          ++I;
      } else {
        ++I;
      }
      continue;
    }
    if (I > 0 && isLabelChar(Text[I - 1])) {
      ++I;
      continue;
    }
    size_t J = I;
    while (J < Text.size() && std::isdigit(static_cast<unsigned char>(Text[J])))
      ++J;
    if (J < Text.size() && (Text[J] == 'b' || Text[J] == 'f') &&
        (J + 1 >= Text.size() || !isLabelChar(Text[J + 1])))
      return true;
    I = J;
  }
  return false;
}

/// Parses \p Text into a unit the reference way; the views are not
/// derived.
ErrorOr<MaoUnit> parseAssembly(const std::string &Text, ParseStats *Stats,
                               const std::string &Filename,
                               DiagEngine *Diags) {
  MaoUnit Unit;
  ParseStats LocalStats;
  ParseScratch Scratch;
  // Duplicate-label tracking: views of the label entries' own names, which
  // stay put because list nodes never move.
  std::unordered_set<std::string_view> SeenLabels;

  // GAS numeric local labels: "N:" may be defined many times; "Nb" binds to
  // the most recent definition, "Nf" to the next one. Definitions are
  // renamed to unique internal names (.LMAOL<N>_<k>) and references are
  // resolved here, so the label maps never see a collision.
  std::unordered_map<uint64_t, uint32_t> LocalDefs;
  struct PendingRef {
    uint64_t N;
    uint32_t TargetK;
    unsigned Line;
  };
  std::vector<PendingRef> ForwardRefs;
  // Lines whose verbatim text (opaque instructions, directive args)
  // mentions a local-label reference; fatal if any local label is defined.
  std::vector<unsigned> VerbatimLocalRefLines;

  auto ParseErrorAt = [&](DiagCode Code, const std::string &Message,
                          unsigned Line) -> MaoStatus {
    SourceLoc Loc{Filename, Line};
    if (Diags)
      Diags->error(Code, Message, Loc);
    return MaoStatus::error(Loc.File + ":" + std::to_string(Loc.Line) +
                            ": " + Message);
  };
  auto ParseError = [&](DiagCode Code,
                        const std::string &Message) -> MaoStatus {
    return ParseErrorAt(Code, Message,
                        static_cast<unsigned>(LocalStats.Lines));
  };

  const std::string_view Input(Text);
  size_t LineStart = 0;
  // Strict inequality: input ending in '\n' has no empty final line.
  while (LineStart < Input.size()) {
    size_t LineEnd = Input.find('\n', LineStart);
    if (LineEnd == std::string_view::npos)
      LineEnd = Input.size();
    // A '\r' right before the '\n' (or at the end of the input) is not
    // part of the line.
    size_t ContentEnd = LineEnd;
    if (ContentEnd > LineStart && Input[ContentEnd - 1] == '\r')
      --ContentEnd;
    bool Malformed = false;
    std::string_view Line = stripComment(
        Input.substr(LineStart, ContentEnd - LineStart), Malformed);
    LineStart = LineEnd + 1;
    ++LocalStats.Lines;
    if (Malformed)
      return ParseError(DiagCode::ParseUnterminatedString,
                        "unterminated string literal");
    if (FaultInjector::instance().shouldFail(FaultSite::Parser))
      return ParseError(DiagCode::ParseInjectedFault,
                        "injected parser fault");

    std::string_view Stmt = trim(Line);
    // Peel leading labels ("name: name2: insn").
    while (!Stmt.empty()) {
      size_t I = 0;
      while (I < Stmt.size() && isLabelChar(Stmt[I]))
        ++I;
      if (I == 0 || I >= Stmt.size() || Stmt[I] != ':')
        break;
      std::string_view Name = Stmt.substr(0, I);
      uint64_t LocalN = 0;
      auto IsNumericLabel = [&] {
        // Gate on the first byte so ordinary labels never run from_chars.
        if (!std::isdigit(static_cast<unsigned char>(Name[0])) ||
            !isAllDigits(Name))
          return false;
        auto NumRes =
            std::from_chars(Name.data(), Name.data() + Name.size(), LocalN);
        return NumRes.ec == std::errc() &&
               NumRes.ptr == Name.data() + Name.size();
      };
      if (IsNumericLabel()) {
        // Numeric local label: every definition gets a fresh internal name.
        uint32_t K = ++LocalDefs[LocalN];
        Unit.emplaceBack(MaoEntry::Kind::Label, localLabelName(LocalN, K));
      } else {
        EntryIter Label =
            Unit.emplaceBack(MaoEntry::Kind::Label, std::string(Name));
        if (!SeenLabels.insert(Label->labelName()).second && Diags)
          Diags->warning(
              DiagCode::ParseDuplicateLabel,
              "duplicate definition of label '" + std::string(Name) +
                  "'; the first definition wins",
              SourceLoc{Filename, static_cast<unsigned>(LocalStats.Lines)});
      }
      ++LocalStats.Labels;
      Stmt = trim(Stmt.substr(I + 1));
    }
    if (Stmt.empty())
      continue;

    if (Stmt[0] == '.') {
      Directive Dir = parseDirectiveLine(Stmt, Scratch);
      for (const std::string &Arg : Dir.Args)
        // Quoted string literals cannot reference labels.
        if (!Arg.empty() && Arg[0] != '"' && mentionsLocalLabelRef(Arg)) {
          VerbatimLocalRefLines.push_back(
              static_cast<unsigned>(LocalStats.Lines));
          break;
        }
      Unit.emplaceBack(std::move(Dir));
      ++LocalStats.Directives;
      continue;
    }

    unsigned Length = 0;
    Instruction Insn = parseInstructionImpl(Stmt, Scratch, Length);
    if (Insn.isOpaque()) {
      ++LocalStats.OpaqueInstructions;
      if (mentionsLocalLabelRef(Insn.rawText()))
        VerbatimLocalRefLines.push_back(
            static_cast<unsigned>(LocalStats.Lines));
    } else {
      // Resolve numeric local-label references against the definitions
      // seen so far ("Nb") or expected later ("Nf", validated at EOF).
      auto Resolve = [&](std::string &Sym) -> MaoStatus {
        uint64_t N = 0;
        char Dir = 0;
        if (!isLocalLabelRef(Sym, N, Dir))
          return MaoStatus::success();
        if (Dir == 'b') {
          auto It = LocalDefs.find(N);
          if (It == LocalDefs.end())
            return ParseError(DiagCode::ParseLocalLabelUndefined,
                              "backward local-label reference '" + Sym +
                                  "' has no preceding definition of '" +
                                  std::to_string(N) + ":'");
          Sym = localLabelName(N, It->second);
          return MaoStatus::success();
        }
        uint32_t TargetK = LocalDefs[N] + 1;
        ForwardRefs.push_back(
            {N, TargetK, static_cast<unsigned>(LocalStats.Lines)});
        Sym = localLabelName(N, TargetK);
        return MaoStatus::success();
      };
      // Local-label references start with a digit, which ordinary symbols
      // never do — gate on the first byte so the common case skips the
      // resolver entirely. Sym is every operand kind's one symbol, a
      // memory operand's displacement included.
      for (Operand &Op : Insn.Ops)
        if (!Op.Sym.empty() &&
            std::isdigit(static_cast<unsigned char>(Op.Sym[0])))
          if (MaoStatus S = Resolve(Op.Sym))
            return S;
    }
    ++LocalStats.Instructions;
    // Validation measured the instruction, so its entry starts with its
    // length memo: nothing downstream measures it again until it changes.
    // A direct branch's length depends on the displacement width that
    // relaxation picks, so it starts unmeasured.
    const bool DirectBranch = Insn.isBranch() && !Insn.hasIndirectTarget();
    EntryIter It = Unit.emplaceBack(std::move(Insn));
    if (!DirectBranch)
      It->setLengthMemo(Length);
  }

  // EOF validation: every forward reference needs a later definition.
  for (const PendingRef &Ref : ForwardRefs)
    if (LocalDefs[Ref.N] < Ref.TargetK)
      return ParseErrorAt(DiagCode::ParseLocalLabelDangling,
                          "forward local-label reference '" +
                              std::to_string(Ref.N) +
                              "f' has no following definition of '" +
                              std::to_string(Ref.N) + ":'",
                          Ref.Line);
  // Verbatim text mentioning local labels cannot be resolved; once any
  // numeric local label is defined (and therefore renamed), passing that
  // text through would mis-bind, so reject it instead.
  if (!LocalDefs.empty() && !VerbatimLocalRefLines.empty())
    return ParseErrorAt(
        DiagCode::ParseLocalLabelUndefined,
        "local-label reference inside unmodelled text cannot be resolved "
        "(numeric local labels are renamed during parsing)",
        VerbatimLocalRefLines.front());

  if (Stats)
    *Stats = LocalStats;
  return Unit;
}
} // namespace

/// Parses one instruction line the reference way.
inline Instruction parseInstructionLine(const std::string &Line) {
  ParseScratch Scratch;
  unsigned Length = 0;
  return parseInstructionImpl(Line, Scratch, Length);
}

} // namespace mao::reference

#endif // MAO_TESTS_PARSERREFERENCE_H
