//===- ir/MaoEntry.h - IR entry: instruction, label, directive --*- C++ -*-===//
///
/// \file
/// After parsing, "all assembly directives and instructions form one long
/// list of MAO IR nodes" (paper Sec. II). MaoEntry is one node of that list:
/// an instruction, a label definition, or an assembly directive. Directives
/// MAO does not reason about are preserved verbatim and re-emitted.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_IR_MAOENTRY_H
#define MAO_IR_MAOENTRY_H

#include "x86/Instruction.h"

#include <cassert>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace mao {

/// Directives whose semantics the infrastructure interprets (layout sizes,
/// alignment, function boundaries); everything else is DirOther.
enum class DirKind : uint8_t {
  Text,    // .text
  Data,    // .data
  Bss,     // .bss
  Section, // .section name[,...]
  P2Align, // .p2align pow2[,fill[,max]]
  Balign,  // .balign bytes[,fill[,max]]
  Globl,   // .globl sym
  Type,    // .type sym, @function / @object
  Size,    // .size sym, expr
  Byte,    // .byte v[,v...]
  Word,    // .word/.value v[,v...]
  Long,    // .long v[,v...]
  Quad,    // .quad v[,v...]
  Zero,    // .zero n
  String,  // .string "s"   (NUL-terminated)
  Ascii,   // .ascii "s"
  Asciz,   // .asciz "s"    (NUL-terminated)
  Other,   // anything else; re-emitted verbatim
};

/// One assembly directive: interpreted kind, spelled name, raw arguments.
struct Directive {
  DirKind Kind = DirKind::Other;
  std::string Name;              ///< As spelled, including the leading dot.
  std::vector<std::string> Args; ///< Comma-separated argument strings.

  /// Returns Args[I] or "" when absent.
  const std::string &arg(size_t I) const {
    static const std::string Empty;
    return I < Args.size() ? Args[I] : Empty;
  }
};

/// One node in MAO's long entry list.
///
/// The payload is a tagged union: a node is exactly one of instruction,
/// label, or directive, and only the active member is ever constructed.
/// With hundreds of thousands of nodes per translation unit this matters
/// twice over — a label node no longer carries (and moves, and destroys)
/// an empty Instruction and Directive, and sizeof(MaoEntry) shrinks to
/// the largest payload instead of the sum of all three.
class MaoEntry {
public:
  enum class Kind : uint8_t { Instruction, Label, Directive };

  static MaoEntry makeInstruction(Instruction Insn) {
    return MaoEntry(std::move(Insn));
  }
  static MaoEntry makeLabel(std::string Name) {
    return MaoEntry(Kind::Label, std::move(Name));
  }
  static MaoEntry makeDirective(Directive Dir) {
    return MaoEntry(std::move(Dir));
  }

  /// Payload constructors, public so container emplace can build an entry
  /// in place (MaoUnit::emplaceBack) with a single payload move. Prefer
  /// the named factories everywhere a temporary entry is acceptable.
  explicit MaoEntry(Instruction I) : EntryKind(Kind::Instruction) {
    new (&Insn) Instruction(std::move(I));
  }
  MaoEntry(Kind K, std::string Name) : EntryKind(Kind::Label) {
    assert(K == Kind::Label && "tag constructor is for labels only");
    (void)K;
    new (&LabelName) std::string(std::move(Name));
  }
  explicit MaoEntry(Directive D) : EntryKind(Kind::Directive) {
    new (&Dir) Directive(std::move(D));
  }

  MaoEntry(const MaoEntry &O)
      : Address(O.Address), Size(O.Size), Id(O.Id), EntryKind(O.EntryKind),
        LengthMemo(O.LengthMemo) {
    constructFrom(O);
  }
  MaoEntry(MaoEntry &&O) noexcept
      : Address(O.Address), Size(O.Size), Id(O.Id), EntryKind(O.EntryKind),
        LengthMemo(O.LengthMemo) {
    constructFrom(std::move(O));
  }
  MaoEntry &operator=(const MaoEntry &O) {
    if (this == &O)
      return *this;
    destroyPayload();
    Address = O.Address;
    Size = O.Size;
    Id = O.Id;
    EntryKind = O.EntryKind;
    LengthMemo = O.LengthMemo;
    constructFrom(O);
    return *this;
  }
  MaoEntry &operator=(MaoEntry &&O) noexcept {
    if (this == &O)
      return *this;
    destroyPayload();
    Address = O.Address;
    Size = O.Size;
    Id = O.Id;
    EntryKind = O.EntryKind;
    LengthMemo = O.LengthMemo;
    constructFrom(std::move(O));
    return *this;
  }
  ~MaoEntry() { destroyPayload(); }

  Kind kind() const { return EntryKind; }
  bool isInstruction() const { return EntryKind == Kind::Instruction; }
  bool isLabel() const { return EntryKind == Kind::Label; }
  bool isDirective() const { return EntryKind == Kind::Directive; }
  bool isDirective(DirKind K) const { return isDirective() && Dir.Kind == K; }

  /// Mutable access: the only way to obtain a writable Instruction, so it
  /// drops the length memo. Read-only callers holding a non-const entry
  /// should go through std::as_const(Entry).instruction() to keep it.
  Instruction &instruction() {
    assert(isInstruction() && "entry is not an instruction");
    // Conditional so that read-mostly walks never write to entries they
    // do not own (sharded passes read across function boundaries).
    if (LengthMemo)
      LengthMemo = 0;
    return Insn;
  }
  const Instruction &instruction() const {
    assert(isInstruction() && "entry is not an instruction");
    return Insn;
  }
  const std::string &labelName() const {
    assert(isLabel() && "entry is not a label");
    return LabelName;
  }
  Directive &directive() {
    assert(isDirective() && "entry is not a directive");
    return Dir;
  }
  const Directive &directive() const {
    assert(isDirective() && "entry is not a directive");
    return Dir;
  }

  /// Renders the entry as one line of assembly (without trailing newline).
  std::string toString() const;

  /// Layout results, valid after relaxation ran for the entry's section.
  /// Address is the byte offset within the section; Size the encoded size.
  int64_t Address = -1;
  uint32_t Size = 0;

  /// Dense id assigned at parse time; stable across layout changes, used
  /// for deterministic ordering and profile annotation.
  uint32_t Id = 0;

  /// The instruction's memoized encoded length in bytes, 0 when unknown.
  /// Lengths are position-independent, so once measured they stay valid
  /// until the instruction changes, and every change goes through the
  /// non-const instruction() accessor, which clears the memo. A memo is
  /// therefore stale only if a caller writes through an Instruction&
  /// obtained before the memo was set; the full verifier re-encodes every
  /// memoized instruction to catch exactly that. Filled by relaxUnit, the
  /// verifier and the pass runner's footprint walk; lengths that do not
  /// fit a byte are simply not memoized.
  unsigned lengthMemo() const { return LengthMemo; }
  void setLengthMemo(unsigned Length) {
    LengthMemo = Length <= UINT8_MAX ? static_cast<uint8_t>(Length) : 0;
  }

private:
  /// Placement-constructs the active member from \p O's. EntryKind must
  /// already equal O.EntryKind; a moved-from \p O keeps its (now hollow)
  /// member alive so its destructor still runs against the right kind.
  void constructFrom(const MaoEntry &O) {
    switch (EntryKind) {
    case Kind::Instruction:
      new (&Insn) Instruction(O.Insn);
      break;
    case Kind::Label:
      new (&LabelName) std::string(O.LabelName);
      break;
    case Kind::Directive:
      new (&Dir) Directive(O.Dir);
      break;
    }
  }
  void constructFrom(MaoEntry &&O) noexcept {
    switch (EntryKind) {
    case Kind::Instruction:
      new (&Insn) Instruction(std::move(O.Insn));
      break;
    case Kind::Label:
      new (&LabelName) std::string(std::move(O.LabelName));
      break;
    case Kind::Directive:
      new (&Dir) Directive(std::move(O.Dir));
      break;
    }
  }
  void destroyPayload() {
    switch (EntryKind) {
    case Kind::Instruction:
      Insn.~Instruction();
      break;
    case Kind::Label:
      LabelName.~basic_string();
      break;
    case Kind::Directive:
      Dir.~Directive();
      break;
    }
  }

  Kind EntryKind;
  /// Sits in the padding after EntryKind, so it costs no space.
  uint8_t LengthMemo = 0;
  union {
    Instruction Insn;
    std::string LabelName;
    Directive Dir;
  };
};

} // namespace mao

#endif // MAO_IR_MAOENTRY_H
