//===- asm/Parser.cpp - AT&T assembly parser --------------------------------==//
//
// One forward scan per line. A line cursor finds the statement's bounds: its
// leading blanks, its '#' comment (string literals respected) and its end,
// where a '\r' before the '\n' is dropped. A statement cursor then peels the
// leading labels and reads the mnemonic and each operand left to right,
// straight into the operand slots of the instruction in the list node where
// its entry lives. Tokens are views into the input until they land in the
// IR. Integer parsing goes through std::from_chars with strtoll-compatible
// base detection, and mnemonic and register lookups probe fixed tables keyed
// by the packed name. Validation measures each instruction's encoding once,
// without building bytes, and the measured length becomes the entry's length
// memo.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"

#include "support/FaultInjection.h"
#include "support/PackedNameTable.h"
#include "support/Timeline.h"
#include "x86/Encoder.h"

#include <bit>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_set>

using namespace mao;

namespace {

bool isBlank(char C) { return C == ' ' || C == '\t'; }

std::string_view trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B != E && isBlank(S[B]))
    ++B;
  while (E != B && isBlank(S[E - 1]))
    --E;
  return S.substr(B, E - B);
}

/// Per-byte classification tables: the lexer asks these questions for
/// nearly every input byte, so they must not go through the locale-aware
/// libc functions.
struct CharTables {
  bool Label[256] = {};
  bool Space[256] = {};
  /// Ends an operand token: a blank, a comma or a parenthesis.
  bool TokenEnd[256] = {};
  /// Stops the line cursor outside a string literal.
  bool LineStop[256] = {};
  constexpr CharTables() {
    for (unsigned C = '0'; C <= '9'; ++C)
      Label[C] = true;
    for (unsigned C = 'a'; C <= 'z'; ++C)
      Label[C] = Label[C - 'a' + 'A'] = true;
    for (char C : {'_', '.', '$', '@'})
      Label[static_cast<unsigned char>(C)] = true;
    for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
      Space[static_cast<unsigned char>(C)] = true;
    for (char C : {' ', '\t', ',', '(', ')'})
      TokenEnd[static_cast<unsigned char>(C)] = true;
    for (char C : {'\n', '"', '#'})
      LineStop[static_cast<unsigned char>(C)] = true;
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

/// Splits a directive's arguments on commas at paren depth zero, outside
/// quoted strings, appending each trimmed argument to \p Args.
void splitTopLevelCommas(std::string_view Text,
                         std::vector<std::string> &Args) {
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
      Args.emplace_back(trim(Text.substr(Start, I - Start)));
      Start = I + 1;
      Any = true;
    }
  }
  std::string_view Last = trim(Text.substr(Start));
  if (!Last.empty() || Any)
    Args.emplace_back(Last);
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

/// The statement cursor: reads [P, E) left to right. A token runs to the
/// next blank, comma or parenthesis and is validated whole; after it the
/// form wants its next piece (a parenthesis, a comma or the end), and
/// anything else fails the operand.
struct Cursor {
  const char *P;
  const char *E;

  bool atEnd() const { return P == E; }
  void skipBlanks() {
    while (P != E && isBlank(*P))
      ++P;
  }
  bool eat(char C) {
    if (P == E || *P != C)
      return false;
    ++P;
    return true;
  }
  std::string_view token() {
    const char *B = P;
    while (P != E && !Chars.TokenEnd[static_cast<unsigned char>(*P)])
      ++P;
    return std::string_view(B, static_cast<size_t>(P - B));
  }
};

/// Reads "(base,index,scale)" after its '(' into \p M: up to three
/// comma-separated parts, each blank or of its form, and never none at all
/// ("()" is not a memory reference, "(,)" is).
bool readMemRef(Cursor &C, MemRef &M) {
  C.skipBlanks();
  bool HasBase = false;
  if (C.eat('%')) {
    M.Base = parseRegName(C.token());
    if (M.Base == Reg::None)
      return false;
    HasBase = true;
    C.skipBlanks();
  }
  if (C.eat(')'))
    return HasBase;
  if (!C.eat(','))
    return false;
  C.skipBlanks();
  if (C.eat('%')) {
    M.Index = parseRegName(C.token());
    if (M.Index == Reg::None)
      return false;
    C.skipBlanks();
  }
  if (C.eat(')'))
    return true;
  if (!C.eat(','))
    return false;
  C.skipBlanks();
  if (!C.atEnd() && *C.P != ')') {
    int64_t Scale = 0;
    if (!parseInteger(C.token(), Scale) ||
        (Scale != 1 && Scale != 2 && Scale != 4 && Scale != 8))
      return false;
    M.Scale = static_cast<uint8_t>(Scale);
    C.skipBlanks();
  }
  return C.eat(')');
}

/// Reads one AT&T operand at the cursor into \p Op, a default-constructed
/// operand (the instruction's own slot, so the symbol is built in place):
/// "%reg", "$imm", "$sym+k", "disp(base,index,scale)", a bare integer or
/// "sym+k", any of the last four after a '*'. A bare "sym+k" is a branch
/// or call target when \p BranchTarget, else an absolute memory operand
/// like a bare integer. Returns false on anything outside these forms (the
/// caller degrades the instruction to opaque).
bool readOperand(Cursor &C, Operand &Op, bool BranchTarget) {
  bool Star = false;
  if (C.eat('*')) {
    Star = true;
    C.skipBlanks();
  }

  std::string_view Sym;
  // An immediate keeps no '*': "*$5" reads as "$5".
  if (C.eat('$')) {
    const std::string_view Body = C.token();
    Op.Kind = OperandKind::Immediate;
    if (parseInteger(Body, Op.Imm))
      return true;
    if (!parseSymbolExpr(Body, Sym, Op.Imm))
      return false;
    Op.Sym = Sym;
    return true;
  }

  Op.IndirectStar = Star;
  if (C.eat('%')) {
    Op.Kind = OperandKind::Register;
    Op.R = parseRegName(C.token());
    return Op.R != Reg::None;
  }

  const std::string_view Text = C.token();
  C.skipBlanks();
  if (C.eat('(')) {
    Op.Kind = OperandKind::Memory;
    if (!Text.empty() && !parseInteger(Text, Op.Imm) &&
        !parseSymbolExpr(Text, Sym, Op.Imm))
      return false;
    if (!readMemRef(C, Op.Mem))
      return false;
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

bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

} // namespace

/// Every fixed mnemonic spelling the grammar accepts: exact names,
/// width-suffixed forms, movz/movs width pairs, the jcc/setcc/cmovcc
/// condition families, explicit-length NOPs and the movq/movabs/sal special
/// cases. List order encodes rule precedence: a spelling listed twice keeps
/// its first binding, mirroring the rule order of the prefix-probe cascade
/// the table replaced.
std::vector<std::pair<std::string, MnemonicSpelling>> mao::mnemonicSpellings() {
  std::vector<std::pair<std::string, MnemonicSpelling>> List;
  const auto Add = [&List](std::string Key, const MnemonicSpelling &P) {
    List.emplace_back(std::move(Key), P);
  };
  constexpr Width Widths[] = {Width::B, Width::W, Width::L, Width::Q};
  const auto WidthChar = [](Width W) {
    return W == Width::B ? 'b' : W == Width::W ? 'w' : W == Width::L ? 'l'
                                                                     : 'q';
  };

  // Explicit-length NOPs: "nop", "nop1" .. "nop15" (MAO dialect).
  {
    MnemonicSpelling P;
    P.Mn = Mnemonic::NOP;
    Add("nop", P);
    for (unsigned Len = 1; Len <= 15; ++Len) {
      P.NopLength = static_cast<uint8_t>(Len);
      Add("nop" + std::to_string(Len), P);
    }
  }
  {
    MnemonicSpelling P;
    P.Mn = Mnemonic::MOVSX;
    P.SrcW = Width::L;
    P.W = Width::Q;
    Add("movslq", P);
  }
  // "movq" is primarily the 64-bit GPR move; the SSE form is selected after
  // operand parsing when an xmm register is present.
  {
    MnemonicSpelling P;
    P.Mn = Mnemonic::MOV;
    P.W = Width::Q;
    Add("movq", P);
    P.Movabs = true;
    Add("movabs", P);
    Add("movabsq", P);
  }
  // Exact matches: suffix-less mnemonics, SSE ops, prefetches, jmp/call.
  // "j" alone and "set"/"cmov" without a condition are not instructions.
  for (unsigned I = 1; I < static_cast<unsigned>(Mnemonic::NumMnemonics);
       ++I) {
    const Mnemonic Mn = static_cast<Mnemonic>(I);
    if (Mn == Mnemonic::JCC || Mn == Mnemonic::SETCC ||
        Mn == Mnemonic::CMOVCC)
      continue;
    MnemonicSpelling P;
    P.Mn = Mn;
    Add(opcodeInfo(Mn).Name, P);
  }
  // movz/movs with explicit source and destination width ("movzbl").
  for (Width Src : Widths) {
    if (Src == Width::L)
      continue;
    for (Width Dst : Widths) {
      if (widthBytes(Src) >= widthBytes(Dst))
        continue;
      for (bool Zero : {true, false}) {
        MnemonicSpelling P;
        P.Mn = Zero ? Mnemonic::MOVZX : Mnemonic::MOVSX;
        P.SrcW = Src;
        P.W = Dst;
        Add(std::string(Zero ? "movz" : "movs") +
                std::string(1, WidthChar(Src)) + std::string(1, WidthChar(Dst)),
            P);
      }
    }
  }
  // Conditional families: every accepted condition-code spelling, and for
  // cmov also the width-suffixed form (full-cc spellings inserted first, as
  // the cascade tried parseCondCode on the whole suffix before peeling a
  // width character).
  for (const CondCodeSpelling &S : CondCodeSpellings) {
    MnemonicSpelling P;
    P.CC = S.CC;
    P.Mn = Mnemonic::JCC;
    Add(std::string("j") + S.Name, P);
    P.Mn = Mnemonic::SETCC;
    P.W = Width::B;
    Add(std::string("set") + S.Name, P);
    P.Mn = Mnemonic::CMOVCC;
    P.W = Width::None;
    Add(std::string("cmov") + S.Name, P);
  }
  for (const CondCodeSpelling &S : CondCodeSpellings)
    for (Width W : Widths) {
      MnemonicSpelling P;
      P.Mn = Mnemonic::CMOVCC;
      P.CC = S.CC;
      P.W = W;
      Add(std::string("cmov") + S.Name + std::string(1, WidthChar(W)), P);
    }
  // Width-suffixed form ("addl", "pushq", "salq"). Opcode names are unique
  // (TableConsistency.OpcodeNamesAreUnique), so each base spelling is its
  // own table entry.
  for (unsigned I = 1; I < static_cast<unsigned>(Mnemonic::NumMnemonics);
       ++I) {
    const Mnemonic Mn = static_cast<Mnemonic>(I);
    const std::string_view Name = opcodeInfo(Mn).Name;
    if (Mn == Mnemonic::JCC ||
        Mn == Mnemonic::SETCC || Mn == Mnemonic::CMOVCC)
      continue;
    // The cascade short-circuited every "nop"-prefixed spelling through the
    // explicit-length rule, so "nopl"/"nopw" never reached the suffix rule;
    // keep them out of the table too (they stay opaque).
    if (startsWith(Name, "nop"))
      continue;
    for (Width W : Widths) {
      MnemonicSpelling P;
      P.Mn = Mn;
      P.W = W;
      Add(std::string(Name) + std::string(1, WidthChar(W)), P);
    }
  }
  {
    MnemonicSpelling P;
    P.Mn = Mnemonic::SHL;
    Add("sal", P);
    for (Width W : Widths) {
      P.W = W;
      Add(std::string("sal") + std::string(1, WidthChar(W)), P);
    }
  }
  return List;
}

namespace {

/// The spelling table behind parseMnemonic(), filled once from
/// mnemonicSpellings() so the hot path is one lookup instead of a cascade
/// of prefix probes. Spellings of at most 8 bytes, every mnemonic on any
/// hot path, go in a packed-key table; the handful of longer ones
/// (prefetchnta and friends) in a string-keyed map.
struct MnemonicTable {
  PackedNameTable<MnemonicSpelling, 11> Short;
  std::unordered_map<std::string, MnemonicSpelling, SvHash, std::equal_to<>>
      Long;

  MnemonicTable() {
    for (auto &[Spelling, P] : mnemonicSpellings())
      if (Spelling.size() <= Short.MaxNameLength)
        Short.insert(Spelling, P);
      else
        Long.emplace(std::move(Spelling), P);
  }
};

} // namespace

std::optional<MnemonicSpelling> mao::parseMnemonic(std::string_view M) {
  static const MnemonicTable Table;
  if (M.size() <= Table.Short.MaxNameLength) {
    if (const MnemonicSpelling *P = Table.Short.find(M))
      return *P;
  } else if (auto It = Table.Long.find(M); It != Table.Long.end()) {
    return It->second;
  }
  // Non-canonical NOP length spellings ("nop007", "nop0xf") still parse:
  // the table holds only the decimal spellings.
  if (startsWith(M, "nop") && M.size() > 3) {
    int64_t Len = 0;
    if (parseInteger(M.substr(3), Len) && Len >= 1 && Len <= 15) {
      MnemonicSpelling P;
      P.Mn = Mnemonic::NOP;
      P.NopLength = static_cast<uint8_t>(Len);
      return P;
    }
  }
  return std::nullopt;
}

bool mao::movabsAsMovq(const Instruction &Insn) {
  if (Insn.Ops.size() != 2)
    return false;
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  return Src.isConstImm() && Src.Imm != static_cast<int32_t>(Src.Imm) &&
         Dst.isReg() && regIsGpr(Dst.R) && regWidth(Dst.R) == Width::Q;
}

namespace {

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

/// Parses one modelled instruction from \p Stmt, a statement without
/// leading or trailing blanks, into \p Insn, a default-constructed
/// instruction, and sets \p Length to its encoded length (rel32 for a
/// direct branch). Returns false for anything outside the modelled forms;
/// \p Insn is then partly filled and the caller replaces it.
bool parseModelledInstruction(std::string_view Stmt, Instruction &Insn,
                              unsigned &Length) {
  Cursor C{Stmt.data(), Stmt.data() + Stmt.size()};
  while (!C.atEnd() && !isSpaceChar(*C.P))
    ++C.P;
  auto ParsedMnemonic =
      parseMnemonic(std::string_view(Stmt.data(), C.P - Stmt.data()));
  if (!ParsedMnemonic)
    return false;

  Insn.Mn = ParsedMnemonic->Mn;
  Insn.W = ParsedMnemonic->W;
  Insn.SrcW = ParsedMnemonic->SrcW;
  Insn.CC = ParsedMnemonic->CC;
  Insn.NopLength = ParsedMnemonic->NopLength;

  // Operands: each is followed by a comma and the next one, or the end.
  const EncKind Kind = Insn.info().Kind;
  const bool Branch =
      Kind == EncKind::Jmp || Kind == EncKind::Jcc || Kind == EncKind::Call;
  C.skipBlanks();
  if (!C.atEnd())
    for (;;) {
      if (!readOperand(C, Insn.Ops.emplace_back(), Branch))
        return false;
      C.skipBlanks();
      if (C.atEnd())
        break;
      if (!C.eat(','))
        return false;
      C.skipBlanks();
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

/// Fills \p Dir, a default-constructed directive, from \p Text, a
/// statement starting with '.'.
void parseDirectiveLine(std::string_view Text, Directive &Dir) {
  size_t NameEnd = 0;
  while (NameEnd < Text.size() && !isSpaceChar(Text[NameEnd]))
    ++NameEnd;
  Dir.Name = std::string(Text.substr(0, NameEnd));
  std::string_view Rest = trim(Text.substr(NameEnd));
  if (!Rest.empty())
    splitTopLevelCommas(Rest, Dir.Args);

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
}

/// One line of input as the line cursor finds it.
struct LineBounds {
  const char *Begin;   ///< First character after the leading blanks.
  const char *End;     ///< End of the statement: its comment, or the line's
                       ///< end less a '\r' before the '\n'; no trailing
                       ///< blanks.
  const char *Next;    ///< Start of the next line.
  bool Malformed;      ///< The line ends inside a string literal.
};

/// Returns the first '\n', '"' or '#' in [P, E), or E. Eight bytes at a
/// time: a byte of word W equals C exactly where W ^ (C * 0x01..01) has a
/// zero byte, and the lowest byte the zero-byte test flags is always a
/// true zero (a borrow only starts at one), so the lowest flag over the
/// three tests is the first stop.
const char *findLineStop(const char *P, const char *E) {
  static_assert(std::endian::native == std::endian::little,
                "the first flagged byte is the lowest-order one");
  constexpr uint64_t Ones = 0x0101010101010101ULL;
  constexpr uint64_t Highs = 0x8080808080808080ULL;
  for (; E - P >= 8; P += 8) {
    uint64_t W;
    std::memcpy(&W, P, sizeof(W));
    uint64_t Hit = 0;
    for (uint64_t Stop : {'\n' * Ones, '"' * Ones, '#' * Ones}) {
      const uint64_t X = W ^ Stop;
      Hit |= (X - Ones) & ~X & Highs;
    }
    if (Hit)
      return P + std::countr_zero(Hit) / 8;
  }
  while (P != E && !Chars.LineStop[static_cast<unsigned char>(*P)])
    ++P;
  return P;
}

/// Scans the line at \p P (input ends at \p InputEnd) once: a '#' outside
/// a string literal starts the comment, a backslash in a literal escapes
/// the next character but never the line's '\n'. A '\r' right before the
/// '\n', or at the end of the input, is not part of the line, so CRLF text
/// parses like LF text.
LineBounds scanLine(const char *P, const char *InputEnd) {
  LineBounds L;
  while (P != InputEnd && isBlank(*P))
    ++P;
  L.Begin = P;
  L.Malformed = false;
  const char *Comment = nullptr;
  for (;;) {
    P = findLineStop(P, InputEnd);
    if (P == InputEnd || *P == '\n')
      break;
    if (*P == '#') {
      Comment = P;
      P = static_cast<const char *>(std::memchr(P, '\n', InputEnd - P));
      if (!P)
        P = InputEnd;
      break;
    }
    // A string literal: runs to its closing quote, or is left open.
    for (++P; P != InputEnd && *P != '"' && *P != '\n'; ++P)
      if (*P == '\\' && P + 1 != InputEnd && P[1] != '\n')
        ++P;
    if (P == InputEnd || *P == '\n') {
      L.Malformed = true;
      break;
    }
    ++P;
  }
  L.Next = P == InputEnd ? P : P + 1;
  const char *End = Comment;
  if (!End) {
    End = P;
    if (End != L.Begin && End[-1] == '\r')
      --End;
  }
  while (End != L.Begin && isBlank(End[-1]))
    --End;
  L.End = End;
  return L;
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

/// Parses the statement \p Stmt into \p Insn, a default-constructed
/// instruction, or else makes \p Insn the opaque instruction that re-emits
/// the statement. Returns the encoded length (rel32 for a direct branch),
/// 0 when opaque.
unsigned parseInstruction(std::string_view Stmt, Instruction &Insn) {
  unsigned Length = 0;
  if (parseModelledInstruction(Stmt, Insn, Length))
    return Length;
  Insn = mao::makeOpaque(std::string(Stmt));
  return 0;
}

} // namespace

Instruction mao::parseInstructionLine(const std::string &Line) {
  Instruction Insn;
  parseInstruction(trim(Line), Insn);
  return Insn;
}

namespace {

ErrorOr<MaoUnit> parseEntries(const std::string &Text, ParseStats *Stats,
                              const std::string &Filename, DiagEngine *Diags) {
  MaoUnit Unit;
  ParseStats LocalStats;
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

  const char *P = Text.data();
  const char *const InputEnd = P + Text.size();
  // Input ending in '\n' has no empty final line after it.
  while (P != InputEnd) {
    const LineBounds Line = scanLine(P, InputEnd);
    P = Line.Next;
    ++LocalStats.Lines;
    if (Line.Malformed)
      return ParseError(DiagCode::ParseUnterminatedString,
                        "unterminated string literal");
    if (FaultInjector::instance().shouldFail(FaultSite::Parser))
      return ParseError(DiagCode::ParseInjectedFault,
                        "injected parser fault");

    // Peel leading labels ("name: name2: insn").
    Cursor C{Line.Begin, Line.End};
    for (;;) {
      const char *NameBegin = C.P;
      while (!C.atEnd() && isLabelChar(*C.P))
        ++C.P;
      const std::string_view Name(NameBegin, C.P - NameBegin);
      if (Name.empty() || !C.eat(':')) {
        C.P = NameBegin;
        break;
      }
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
      C.skipBlanks();
    }
    if (C.atEnd())
      continue;
    const std::string_view Stmt(C.P, Line.End - C.P);

    if (Stmt[0] == '.') {
      Directive &Dir =
          Unit.emplaceBack(MaoEntry::Kind::Directive)->directive();
      parseDirectiveLine(Stmt, Dir);
      for (const std::string &Arg : Dir.Args)
        // Quoted string literals cannot reference labels.
        if (!Arg.empty() && Arg[0] != '"' && mentionsLocalLabelRef(Arg)) {
          VerbatimLocalRefLines.push_back(
              static_cast<unsigned>(LocalStats.Lines));
          break;
        }
      ++LocalStats.Directives;
      continue;
    }

    // The instruction is read straight into its list node.
    EntryIter It = Unit.emplaceBack(MaoEntry::Kind::Instruction);
    Instruction &Insn = It->instruction();
    const unsigned Length = parseInstruction(Stmt, Insn);
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
          auto Def = LocalDefs.find(N);
          if (Def == LocalDefs.end())
            return ParseError(DiagCode::ParseLocalLabelUndefined,
                              "backward local-label reference '" + Sym +
                                  "' has no preceding definition of '" +
                                  std::to_string(N) + ":'");
          Sym = localLabelName(N, Def->second);
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
    if (!Insn.isBranch() || Insn.hasIndirectTarget())
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

ErrorOr<MaoUnit> mao::parseAssembly(const std::string &Text,
                                    ParseStats *Stats,
                                    const std::string &Filename,
                                    DiagEngine *Diags) {
  ErrorOr<MaoUnit> UnitOr = parseEntries(Text, Stats, Filename, Diags);
  // The one derivation of the views; from here on the unit's edit
  // primitives keep them current. It runs once the parser's scratch is
  // freed: derived beside it, the views left the heap in a state in which
  // LOOP16 ran 1.8x slower at corpus scale 1.0 (Release, 4-core x86-64).
  if (UnitOr.ok()) {
    PhaseTimer Phase("structure", "time.phase.structure_us");
    UnitOr->rebuildStructure();
  }
  return UnitOr;
}
