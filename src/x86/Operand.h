//===- x86/Operand.h - Instruction operand model ----------------*- C++ -*-===//
///
/// \file
/// Operand representation covering the x86-64 addressing modes that appear
/// in compiler-generated AT&T assembly: registers, (symbolic) immediates,
/// memory references `disp(base, index, scale)` including RIP-relative
/// and absolute (`sym+8`, no base or index) forms, and direct symbol
/// targets for branches and calls.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_OPERAND_H
#define MAO_X86_OPERAND_H

#include "x86/Registers.h"

#include <cstdint>
#include <iterator>
#include <new>
#include <string>
#include <utility>

namespace mao {

/// The register part of a memory reference `disp(Base, Index, Scale)`. The
/// displacement lives in the operand, like every other kind's constant and
/// symbol: its constant part in Operand::Imm, its symbolic part in
/// Operand::Sym, so an operand holds at most one symbol and one constant.
struct MemRef {
  Reg Base = Reg::None;  ///< Base register; may be Reg::RIP.
  Reg Index = Reg::None; ///< Index register (never RSP).
  uint8_t Scale = 1;     ///< 1, 2, 4 or 8.

  bool isRipRelative() const { return Base == Reg::RIP; }
  bool operator==(const MemRef &O) const = default;
};

enum class OperandKind : uint8_t {
  None,
  Register,  ///< %reg (possibly an indirect '*%reg' branch target)
  Immediate, ///< $imm or $sym+imm
  Memory,    ///< disp(base,index,scale) (possibly an indirect '*mem' target);
             ///< a bare `sym+k` data operand has no base and no index
  Symbol,    ///< bare symbol as a direct branch/call target
};

/// One instruction operand. A small tagged union; the active members depend
/// on Kind. AT&T operand order is preserved: sources precede destinations.
/// Members a kind does not use keep their default values, so two operands
/// compare equal exactly when they denote the same operand. The one-byte
/// fields come first so the whole operand is 48 bytes.
struct Operand {
  OperandKind Kind = OperandKind::None;
  Reg R = Reg::None;         ///< Register when Kind == Register.
  bool IndirectStar = false; ///< '*' prefix on a jump/call target.
  MemRef Mem;                ///< Base/index/scale when Kind == Memory.
  /// Immediate value, symbol addend, or memory displacement.
  int64_t Imm = 0;
  /// Symbol when Kind is Immediate or Symbol, the symbolic displacement
  /// when Kind is Memory; an opaque instruction's verbatim text rides in
  /// its single None operand (Instruction::rawText()).
  std::string Sym;

  static Operand makeReg(Reg R) {
    Operand Op;
    Op.Kind = OperandKind::Register;
    Op.R = R;
    return Op;
  }

  static Operand makeImm(int64_t Value) {
    Operand Op;
    Op.Kind = OperandKind::Immediate;
    Op.Imm = Value;
    return Op;
  }

  static Operand makeImmSym(std::string Symbol, int64_t Addend = 0) {
    Operand Op;
    Op.Kind = OperandKind::Immediate;
    Op.Sym = std::move(Symbol);
    Op.Imm = Addend;
    return Op;
  }

  /// Builds `SymDisp+Disp(M.Base, M.Index, M.Scale)`.
  static Operand makeMem(MemRef M, int64_t Disp = 0,
                         std::string SymDisp = std::string()) {
    Operand Op;
    Op.Kind = OperandKind::Memory;
    Op.Mem = M;
    Op.Imm = Disp;
    Op.Sym = std::move(SymDisp);
    return Op;
  }

  static Operand makeSymbol(std::string Symbol, int64_t Addend = 0) {
    Operand Op;
    Op.Kind = OperandKind::Symbol;
    Op.Sym = std::move(Symbol);
    Op.Imm = Addend;
    return Op;
  }

  bool isReg() const { return Kind == OperandKind::Register; }
  bool isImm() const { return Kind == OperandKind::Immediate; }
  bool isMem() const { return Kind == OperandKind::Memory; }
  bool isSymbol() const { return Kind == OperandKind::Symbol; }
  bool isSymbolicImm() const { return isImm() && !Sym.empty(); }
  bool isConstImm() const { return isImm() && Sym.empty(); }
  /// True for a memory operand with a symbolic displacement (`sym+8(%rip)`).
  bool hasSymDisp() const { return isMem() && !Sym.empty(); }

  bool operator==(const Operand &O) const = default;

  /// Renders the operand in AT&T syntax ("%rax", "$5", "8(%rsp,%rcx,4)").
  std::string toString() const;
  /// Appends toString()'s text to \p Out without a temporary.
  void appendTo(std::string &Out) const;
};

/// The operand sequence of one instruction: a small-vector with two inline
/// slots. Nearly every modelled x86 instruction has at most two explicit
/// operands, so keeping them inside Instruction removes the heap
/// allocation-and-free per instruction that std::vector<Operand> cost on
/// the parse and clone hot paths; the rare three-operand imul spills to the
/// heap. Deliberately minimal: exactly the vector API surface the code base
/// uses (indexing, size, push_back, reverse iteration, equality).
class OperandList {
public:
  using value_type = Operand;
  using iterator = Operand *;
  using const_iterator = const Operand *;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  OperandList() = default;
  OperandList(const OperandList &O) {
    growTo(O.Count);
    for (uint32_t I = 0; I < O.Count; ++I)
      new (data() + I) Operand(O.data()[I]);
    Count = O.Count;
  }
  OperandList(OperandList &&O) noexcept { moveFrom(std::move(O)); }
  OperandList &operator=(const OperandList &O) {
    if (this != &O) {
      clear();
      growTo(O.Count);
      for (uint32_t I = 0; I < O.Count; ++I)
        new (data() + I) Operand(O.data()[I]);
      Count = O.Count;
    }
    return *this;
  }
  OperandList &operator=(OperandList &&O) noexcept {
    if (this != &O) {
      clear();
      releaseHeap();
      moveFrom(std::move(O));
    }
    return *this;
  }
  ~OperandList() {
    clear();
    releaseHeap();
  }

  Operand *data() {
    return Heap ? Heap : reinterpret_cast<Operand *>(Inline);
  }
  const Operand *data() const {
    return Heap ? Heap : reinterpret_cast<const Operand *>(Inline);
  }

  uint32_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  Operand &operator[](size_t I) { return data()[I]; }
  const Operand &operator[](size_t I) const { return data()[I]; }
  Operand &front() { return data()[0]; }
  const Operand &front() const { return data()[0]; }
  Operand &back() { return data()[Count - 1]; }
  const Operand &back() const { return data()[Count - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + Count; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Count; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  void push_back(const Operand &Op) { emplace_back(Op); }
  void push_back(Operand &&Op) { emplace_back(std::move(Op)); }
  template <typename... Args> Operand &emplace_back(Args &&...A) {
    if (Count == Cap)
      growTo(Count + 1);
    Operand *P = new (data() + Count) Operand(std::forward<Args>(A)...);
    ++Count;
    return *P;
  }

  void clear() {
    for (uint32_t I = 0; I < Count; ++I)
      data()[I].~Operand();
    Count = 0;
  }

  /// Pre-sizes capacity; like std::vector, never shrinks.
  void reserve(size_t N) {
    if (N > Cap)
      growTo(static_cast<uint32_t>(N));
  }

  bool operator==(const OperandList &O) const {
    if (Count != O.Count)
      return false;
    for (uint32_t I = 0; I < Count; ++I)
      if (!(data()[I] == O.data()[I]))
        return false;
    return true;
  }

private:
  static constexpr uint32_t InlineCap = 2;

  void moveFrom(OperandList &&O) noexcept {
    if (O.Heap) {
      Heap = O.Heap;
      Cap = O.Cap;
      Count = O.Count;
      O.Heap = nullptr;
      O.Cap = InlineCap;
      O.Count = 0;
      return;
    }
    for (uint32_t I = 0; I < O.Count; ++I)
      new (data() + I) Operand(std::move(O.data()[I]));
    Count = O.Count;
    O.clear();
  }

  void growTo(uint32_t AtLeast) {
    if (AtLeast <= Cap)
      return;
    uint32_t NewCap = Cap * 2;
    while (NewCap < AtLeast)
      NewCap *= 2;
    Operand *NewData =
        static_cast<Operand *>(::operator new(sizeof(Operand) * NewCap));
    Operand *Old = data();
    for (uint32_t I = 0; I < Count; ++I) {
      new (NewData + I) Operand(std::move(Old[I]));
      Old[I].~Operand();
    }
    releaseHeap();
    Heap = NewData;
    Cap = NewCap;
  }

  void releaseHeap() {
    if (Heap) {
      ::operator delete(Heap);
      Heap = nullptr;
      Cap = InlineCap;
    }
  }

  Operand *Heap = nullptr;
  uint32_t Count = 0;
  uint32_t Cap = InlineCap;
  alignas(Operand) unsigned char Inline[sizeof(Operand) * InlineCap];
};

// A MaoEntry's payload is an Instruction, and with it two inline operands:
// each operand byte costs two bytes per list node.
static_assert(sizeof(Operand) <= 48, "Operand grew past 48 bytes");

} // namespace mao

#endif // MAO_X86_OPERAND_H
