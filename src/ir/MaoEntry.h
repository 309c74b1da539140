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

#ifdef MAO_CHECK_ENTRY_MEMOS
#include "x86/Encoder.h"

#include <cstdio>
#include <cstdlib>
#endif

#include <cassert>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace mao {

/// The edit epochs of one function (MaoFunction owns one; each of its
/// entries points at it). The unit's edit primitives and the mutable
/// instruction() accessor bump them, so an analysis kept between passes
/// knows whether the function moved under it (DESIGN.md, "Analysis
/// lifetime"): Instructions moves with every edit of a label or an
/// instruction, ControlFlow only with a control-flow edit — one that can
/// change which blocks a fresh CFG build forms or how they connect.
struct EditEpochs {
  uint32_t ControlFlow = 0;
  uint32_t Instructions = 0;

  void noteEdit(bool ChangesControlFlow) {
    ++Instructions;
    if (ChangesControlFlow)
      ++ControlFlow;
  }
};

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
  /// Comma-separated argument strings, without surrounding blanks: the
  /// parser trims each, and passes build them trimmed.
  std::vector<std::string> Args;

  /// Returns Args[I] or "" when absent.
  const std::string &arg(size_t I) const {
    static const std::string Empty;
    return I < Args.size() ? Args[I] : Empty;
  }

  /// The bytes a string directive (.ascii, .string, .asciz) assembles to:
  /// each quoted argument with its escapes decoded as gas reads them, and
  /// a NUL after each for .string and .asciz. The one reading of string
  /// literals, so layout sizes and assembled bytes cannot drift apart.
  std::string stringBytes() const;
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
  /// in place (MaoUnit::emplaceBack) with a single payload move, which is
  /// why they take the payload by rvalue reference. Prefer the named
  /// factories everywhere a temporary entry is acceptable.
  explicit MaoEntry(Instruction &&I) : EntryKind(Kind::Instruction) {
    new (&Insn) Instruction(std::move(I));
  }
  MaoEntry(Kind K, std::string &&Name) : EntryKind(Kind::Label) {
    assert(K == Kind::Label && "tag constructor is for labels only");
    (void)K;
    new (&LabelName) std::string(std::move(Name));
  }
  explicit MaoEntry(Directive &&D) : EntryKind(Kind::Directive) {
    new (&Dir) Directive(std::move(D));
  }
  /// Default-constructs the payload of kind \p K, so the parser can fill
  /// an instruction or directive in the list node it will live in.
  explicit MaoEntry(Kind K) : EntryKind(K) {
    switch (K) {
    case Kind::Instruction:
      new (&Insn) Instruction();
      break;
    case Kind::Label:
      new (&LabelName) std::string();
      break;
    case Kind::Directive:
      new (&Dir) Directive();
      break;
    }
  }

  // A copy is a new entry: it carries the payload and its memos but
  // belongs to no function until the unit inserts it.
  MaoEntry(const MaoEntry &O)
      : Address(O.Address), Size(O.Size), EntryKind(O.EntryKind) {
    copyMemos(O);
    constructFrom(O);
  }
  MaoEntry(MaoEntry &&O) noexcept
      : Address(O.Address), Size(O.Size), EntryKind(O.EntryKind) {
    copyMemos(O);
    constructFrom(std::move(O));
  }
  MaoEntry &operator=(const MaoEntry &O) {
    if (this == &O)
      return *this;
    destroyPayload();
    Address = O.Address;
    Size = O.Size;
    EntryKind = O.EntryKind;
    copyMemos(O);
    constructFrom(O);
    return *this;
  }
  MaoEntry &operator=(MaoEntry &&O) noexcept {
    if (this == &O)
      return *this;
    destroyPayload();
    Address = O.Address;
    Size = O.Size;
    EntryKind = O.EntryKind;
    copyMemos(O);
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
  /// is an edit. It drops the length and effects memos and moves the
  /// owning function's instruction epoch; on a branch or return it is a
  /// control-flow edit (a retarget). Read-only callers holding a non-const
  /// entry must go through std::as_const(Entry).instruction() instead.
  Instruction &instruction() {
    assert(isInstruction() && "entry is not an instruction");
    LengthMemo = 0;
    FxBits = 0;
    if (Owner)
      Owner->noteEdit(Insn.isBranch() || Insn.isReturn());
    return Insn;
  }
  /// Moves \p From's instruction into this instruction entry together with
  /// its length and effects memos, which stay valid because they describe
  /// the payload they travel with. \p From is left hollow until it receives
  /// a payload in turn. Not an edit: a pass that permutes payloads within
  /// a block, keeping every dependence and the terminator's slot, leaves
  /// the block's instructions, control flow and live-in/out as they were.
  void takeInstruction(MaoEntry &From) {
    assert(isInstruction() && From.isInstruction() &&
           "payload move between non-instructions");
    Insn = std::move(From.Insn);
    copyMemos(From);
  }
  /// Sets the displacement width relaxation chose for a direct branch.
  /// Not an edit: the width changes the branch's length, so the length
  /// memo goes, but neither its effects nor the control flow.
  void setBranchSize(uint8_t Bytes) {
    assert(isInstruction() && "entry is not an instruction");
    LengthMemo = 0;
    Insn.BranchSize = Bytes;
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
  /// Appends toString()'s text to \p Out without temporaries.
  void appendTo(std::string &Out) const;

  /// Layout results, valid after relaxation ran for the entry's section.
  /// Address is the byte offset within the section; Size the encoded size.
  int64_t Address = -1;
  uint32_t Size = 0;

  /// The instruction's memoized encoded length in bytes, 0 when unknown.
  /// Lengths are position-independent, so once measured they stay valid
  /// until the instruction changes, and every change goes through the
  /// non-const instruction() accessor, which clears the memo. A memo is
  /// therefore stale only if a caller writes through an Instruction&
  /// obtained before the memo was set; the full verifier re-encodes every
  /// memoized instruction to catch exactly that, and builds that define
  /// MAO_CHECK_ENTRY_MEMOS (sanitizer builds) re-measure on every read and
  /// abort on a mismatch. The parser seeds the memo of every instruction
  /// but a direct branch, whose length depends on the displacement width
  /// relaxation picks; after an edit it is filled again by relaxUnit and
  /// UnitLayout, the verifier and the pass runner's footprint walk.
  /// Lengths that do not fit a byte are simply not memoized.
  unsigned lengthMemo() const {
#ifdef MAO_CHECK_ENTRY_MEMOS
    if (LengthMemo != 0 && isInstruction() &&
        LengthMemo != instructionLength(Insn)) {
      std::fprintf(stderr,
                   "mao: stale length memo: '%s' has memo %u but encodes "
                   "to %u bytes\n",
                   Insn.toString().c_str(), unsigned(LengthMemo),
                   instructionLength(Insn));
      std::abort();
    }
#endif
    return LengthMemo;
  }
  void setLengthMemo(unsigned Length) {
    LengthMemo = Length <= UINT8_MAX ? static_cast<uint8_t>(Length) : 0;
  }

  /// The instruction's register, flag and memory effects, memoized in the
  /// entry beside its length: the first read computes them, the mutable
  /// instruction() drops them. Like the length memo it is filled by the
  /// first reader, so two threads must not read the same entry's effects
  /// at once; sharded passes read only their own function's instructions.
  /// Builds that define MAO_CHECK_ENTRY_MEMOS recompute on every memoized
  /// read and abort on a mismatch.
  InstructionEffects effects() const {
    assert(isInstruction() && "entry is not an instruction");
    if (!(FxBits & FxValid))
      return fillEffectsMemo();
    InstructionEffects Fx;
    Fx.RegDefs = FxRegDefs;
    Fx.RegUses = FxRegUses;
    Fx.FlagsDef = FxFlagsDef;
    Fx.FlagsUse = FxFlagsUse;
    Fx.MemRead = FxBits & FxMemRead;
    Fx.MemWrite = FxBits & FxMemWrite;
    Fx.Barrier = FxBits & FxBarrier;
#ifdef MAO_CHECK_ENTRY_MEMOS
    const InstructionEffects Fresh = Insn.effects();
    if (Fresh.RegDefs != Fx.RegDefs || Fresh.RegUses != Fx.RegUses ||
        Fresh.FlagsDef != Fx.FlagsDef || Fresh.FlagsUse != Fx.FlagsUse ||
        Fresh.MemRead != Fx.MemRead || Fresh.MemWrite != Fx.MemWrite ||
        Fresh.Barrier != Fx.Barrier) {
      std::fprintf(stderr, "mao: stale effects memo on '%s'\n",
                   Insn.toString().c_str());
      std::abort();
    }
#endif
    return Fx;
  }
  /// True when the effects memo holds a value.
  bool hasEffectsMemo() const { return FxBits & FxValid; }

private:
  friend class MaoUnit;

  enum : uint8_t {
    FxValid = 1,
    FxMemRead = 2,
    FxMemWrite = 4,
    FxBarrier = 8,
  };

  /// Computes the effects and stores them in the memo; counted in the
  /// analysis.effects_memo_misses statistic.
  InstructionEffects fillEffectsMemo() const;

  void copyMemos(const MaoEntry &O) {
    LengthMemo = O.LengthMemo;
    FxFlagsDef = O.FxFlagsDef;
    FxFlagsUse = O.FxFlagsUse;
    FxBits = O.FxBits;
    FxRegDefs = O.FxRegDefs;
    FxRegUses = O.FxRegUses;
  }

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

  /// The edit epochs of the function this entry belongs to, or null for an
  /// entry outside every function (or not yet inserted). The unit keeps it
  /// current (MaoUnit::rebuildStructure and the edit primitives).
  EditEpochs *Owner = nullptr;
  Kind EntryKind;
  /// The memos' small fields sit in the padding after EntryKind; the two
  /// register masks and Owner are what the memo and the epochs cost.
  uint8_t LengthMemo = 0;
  mutable uint8_t FxFlagsDef = 0;
  mutable uint8_t FxFlagsUse = 0;
  mutable uint8_t FxBits = 0;
  mutable RegMask FxRegDefs = 0;
  mutable RegMask FxRegUses = 0;
  union {
    Instruction Insn;
    std::string LabelName;
    Directive Dir;
  };
};

/// 40 bytes of header (layout, owner, memos, and 4 bytes of padding after
/// Size) and a payload of at most 120 bytes (Instruction, asserted in
/// x86/Instruction.h): a list node stays within 176 bytes.
static_assert(sizeof(MaoEntry) <= 160, "MaoEntry grew past 160 bytes");

} // namespace mao

#endif // MAO_IR_MAOENTRY_H
