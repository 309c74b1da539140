//===- x86/Semantics.h - One statement of x86 instruction meaning -*- C++ -*-===//
///
/// \file
/// What every modelled data instruction computes, stated once for the two
/// components that need it:
///
///  - sim/Emulator runs it over concrete values (uint64_t registers, bool
///    flags, byte memory) to execute programs;
///  - check/SymbolicEval runs it over symbolic values (hash-consed NodeIds
///    in a SymTable) to summarise a basic block for translation validation.
///
/// Three parts: the operation tags with one concrete evaluation of each
/// (evalOp), one concrete evaluation of each flag function (evalFlagFn),
/// and the instruction interpreter (Interpreter<D>), templated over a value
/// domain D. The symbolic table folds constant operations through evalOp,
/// so whatever the evaluator folds to a constant is what the emulator
/// computes. Jumps, calls, returns and opaque instructions stay in each
/// component's run loop: the emulator follows them, the evaluator
/// summarises them.
///
/// A value domain D provides:
///
///   using Value;                                  uint64_t or NodeId
///   Value cst(uint64_t);
///   Value op(SymTag, uint32_t A, std::initializer_list<Value>);
///   std::optional<uint64_t> constant(Value);      a value known up front
///   Value reg(unsigned Dense);                    full 64-bit register
///   void setReg(unsigned Dense, Value);
///   Value flag(uint8_t FlagBit);                  0 or 1
///   void setFlag(uint8_t FlagBit, Value);
///   Value flagFn(uint8_t FlagBit, Mnemonic, unsigned Bits,
///                std::initializer_list<Value>);   a modelled flag function
///   Value undefinedFlag(uint8_t FlagBit, Mnemonic, unsigned Bits,
///                       std::initializer_list<Value>, Fn Emulated);
///   std::optional<Value> symbol(const Operand &); address of a symbol
///   Value load(Value Addr, unsigned Bytes);       zero-extended
///   void store(Value Addr, Value V, unsigned Bytes);
///
/// Flags the ISA leaves undefined (and the opcode table declares defined,
/// so liveness treats them as clobbered) are named once, in the step that
/// writes them, with the value the emulator stores: the concrete domain
/// stores Emulated(), the symbolic domain an opaque FlagFn node over the
/// instruction's inputs, which folds to no constant.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_SEMANTICS_H
#define MAO_X86_SEMANTICS_H

#include "x86/Instruction.h"
#include "x86/Registers.h"

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>

namespace mao {

//===----------------------------------------------------------------------===//
// Widths, masks and float bits.
//===----------------------------------------------------------------------===//

/// Operation width in bits; Width::None counts as 64 (the width-less forms).
inline unsigned bitsOf(Width W) {
  unsigned Bytes = widthBytes(W);
  return Bytes ? Bytes * 8 : 64;
}

/// The low \p Bits bits set.
constexpr uint64_t onesMask(unsigned Bits) {
  return Bits >= 64 ? ~0ULL : (1ULL << Bits) - 1;
}

/// Bit \p Bits - 1 of \p Value: the sign of a \p Bits wide value.
constexpr bool signOf(uint64_t Value, unsigned Bits) {
  return (Value >> (Bits - 1)) & 1;
}

/// Sign-extends the low \p Bits bits of \p Value.
constexpr int64_t sext(uint64_t Value, unsigned Bits) {
  if (Bits >= 64)
    return static_cast<int64_t>(Value);
  Value &= onesMask(Bits);
  const uint64_t Sign = 1ULL << (Bits - 1);
  return static_cast<int64_t>((Value ^ Sign) - Sign);
}

/// Scalar SSE values live in the low bits of a 64-bit register image.
inline float asF32(uint64_t Bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(Bits));
}
inline uint64_t fromF32(float F) { return std::bit_cast<uint32_t>(F); }
inline double asF64(uint64_t Bits) { return std::bit_cast<double>(Bits); }
inline uint64_t fromF64(double D) { return std::bit_cast<uint64_t>(D); }

/// Number of dense register slots: 16 GPR supers, then 16 XMM registers.
constexpr unsigned NumDenseRegs = 32;
/// Number of status flags (CF,PF,AF,ZF,SF,OF, in FlagBit order).
constexpr unsigned NumStatusFlags = 6;

/// Dense register index for any register view; ~0u for RIP/None.
inline unsigned denseRegIndex(Reg R) {
  if (regIsXmm(R))
    return NumGprSupers + regEncoding(R);
  if (regIsGpr(R))
    return static_cast<unsigned>(superReg(R)) -
           static_cast<unsigned>(Reg::RAX);
  return ~0u;
}

/// Where a one-operand mul, imul, div or idiv of width \p W keeps the high
/// half of its product, dividend and remainder: %ah at byte width (ax = al
/// * src; al, ah = ax / src), else %rdx at that width.
inline Reg highHalfReg(Width W) {
  return W == Width::B ? Reg::AH : gprWithWidth(Reg::RDX, W);
}

/// FlagBit position (0 for CF ... 5 for OF).
constexpr unsigned flagPos(uint8_t FlagBit) {
  return static_cast<unsigned>(std::countr_zero(FlagBit));
}

//===----------------------------------------------------------------------===//
// Operations and their concrete evaluation.
//===----------------------------------------------------------------------===//

/// Operation tags. Value operations work on the full 64-bit domain
/// (narrower widths are expressed by masking the inputs and the result);
/// flag extractors return 0/1.
enum class SymTag : uint16_t {
  None,
  // Integer value operations.
  Add,    // a + b (commutative; constant canonicalized last)
  Sub,    // a - b (sub-by-constant is normalized to Add)
  Mul,    // low 64 bits of a * b
  MulHiU, // A = width bits: high half of unsigned a * b at that width
  MulHiS, // A = width bits: high half of signed a * b
  DivQ,   // A = width bits: unsigned quotient of (hi:lo) / d, Args={hi,lo,d}
  DivR,   // unsigned remainder, same shape
  IDivQ,  // signed quotient
  IDivR,  // signed remainder
  And,    // a & b (commutative)
  Or,     // a | b (commutative)
  Xor,    // a ^ b (commutative)
  Not,    // ~a
  Neg,    // 0 - a
  Shl,    // a << b (b already masked to the width's count range)
  Shr,    // a >> b (logical; a pre-masked to width)
  Sar,    // A = width bits: arithmetic shift right
  Rol,    // A = width bits: rotate left
  Ror,    // A = width bits: rotate right
  Bswap,  // A = width bits: byte swap
  SExt,   // A = source bits: sign-extend low A bits of a to 64
  Select, // Args = {c, t, f}: c (0/1) ? t : f
  Load,   // A = bytes, B = memory epoch, Args = {addr}; zero-extended
  // Flag extractors (result is 0 or 1).
  EqZero,  // a == 0 (ZF of a width-masked result)
  SignBit, // A = width bits: bit A-1 of a (SF)
  Par8,    // even parity of a's low byte (PF)
  // Flag functions: flag A (FlagBit position) of operation
  // B = (mnemonic | widthBits << 16) applied to Args. evalFlagFn gives the
  // value where the ISA defines it; elsewhere the node stays opaque, and
  // both sides of a comparison build the same node for the same inputs.
  FlagFn,
  // Scalar SSE value operations (bit-accurate float/double reinterpret).
  FAdd32, FSub32, FMul32, FDiv32,
  FAdd64, FSub64, FMul64, FDiv64,
};

/// The rarely run operations, out of line: integer division (nullopt for a
/// zero divisor) and scalar float arithmetic.
std::optional<uint64_t> evalDivOp(SymTag Tag, unsigned Bits, uint64_t Hi,
                                  uint64_t Lo, uint64_t Den);
uint64_t evalFloatOp(SymTag Tag, uint64_t A, uint64_t B);
/// ZF/CF/PF of ucomiss/ucomisd; OF, AF and SF are cleared.
bool ucomiFlag(unsigned FlagPos, Mnemonic Mn, uint64_t A, uint64_t B);

/// Flag \p FlagPos of an add (\p Sub false) or subtract of \p A and \p B
/// with carry/borrow in \p Carry, at \p Bits.
[[gnu::always_inline]] inline bool addSubFlag(unsigned FlagPos, bool Sub,
                                              uint64_t A, uint64_t B,
                                              uint64_t Carry, unsigned Bits) {
  const uint64_t Mask = onesMask(Bits);
  A &= Mask;
  B &= Mask;
  const uint64_t R = (Sub ? A - B - Carry : A + B + Carry) & Mask;
  switch (1u << FlagPos) {
  case FlagCF:
    return Sub ? A < B + Carry || (Carry && B == Mask)
               : R < A || (Carry && R == A && B == Mask);
  case FlagOF:
    return (signOf(A, Bits) == signOf(B, Bits)) != Sub &&
           signOf(R, Bits) != signOf(A, Bits);
  case FlagAF:
    return ((A ^ B ^ R) >> 4) & 1;
  case FlagZF:
    return R == 0;
  case FlagSF:
    return signOf(R, Bits);
  default:
    return parity8(R);
  }
}

/// Flag \p FlagPos of operation \p Mn at \p Bits over \p V[0..N): the one
/// concrete evaluation of every flag function. nullopt where the ISA leaves
/// the flag undefined for these inputs.
[[gnu::always_inline]] inline std::optional<bool>
evalFlagFn(unsigned FlagPos, Mnemonic Mn, unsigned Bits, const uint64_t *V,
           size_t N) {
  const uint8_t Flag = static_cast<uint8_t>(1u << FlagPos);
  const uint64_t Mask = onesMask(Bits);
  switch (Mn) {
  case Mnemonic::ADD:
  case Mnemonic::ADC:
  case Mnemonic::SUB:
  case Mnemonic::SBB:
  case Mnemonic::CMP:
  case Mnemonic::NEG:
    if (N < 3)
      return std::nullopt;
    return addSubFlag(FlagPos, Mn != Mnemonic::ADD && Mn != Mnemonic::ADC,
                      V[0], V[1], V[2], Bits);
  case Mnemonic::IMUL: {
    if (N < 2 || (Flag != FlagCF && Flag != FlagOF))
      return std::nullopt;
    __int128 Prod = static_cast<__int128>(sext(V[0], Bits)) * sext(V[1], Bits);
    return static_cast<__int128>(sext(static_cast<uint64_t>(Prod), Bits)) !=
           Prod;
  }
  case Mnemonic::SHL:
  case Mnemonic::SHR:
  case Mnemonic::SAR: {
    // CF and OF; a zero count leaves every flag alone.
    if (N < 2 || V[1] == 0 || (Flag != FlagCF && Flag != FlagOF))
      return std::nullopt;
    const uint64_t Val = V[0] & Mask, Count = V[1];
    if (Mn == Mnemonic::SHL) {
      bool CF = Count <= Bits && ((Val >> (Bits - Count)) & 1);
      return Flag == FlagCF ? CF : signOf((Val << Count) & Mask, Bits) != CF;
    }
    if (Mn == Mnemonic::SHR)
      return Flag == FlagCF ? (Val >> (Count - 1)) & 1 : signOf(Val, Bits);
    return Flag == FlagCF && ((sext(Val, Bits) >> (Count - 1)) & 1);
  }
  case Mnemonic::ROL:
  case Mnemonic::ROR: {
    // Only CF, and only for a count that is not a multiple of the width.
    if (N < 2 || Flag != FlagCF || V[1] % Bits == 0)
      return std::nullopt;
    const uint64_t Val = V[0] & Mask, Count = V[1] % Bits;
    if (Mn == Mnemonic::ROL)
      return ((Val << Count) | (Val >> (Bits - Count))) & 1;
    return signOf((Val >> Count) | (Val << (Bits - Count)), Bits);
  }
  case Mnemonic::UCOMISS:
  case Mnemonic::UCOMISD:
    if (N < 2)
      return std::nullopt;
    return ucomiFlag(FlagPos, Mn, V[0], V[1]);
  default:
    return std::nullopt; // MUL/DIV/IDIV leave these flags undefined.
  }
}

/// Operation \p Tag over \p V[0..N): the one concrete evaluation of every
/// operation. nullopt for the ones that have no value (Load, a zero
/// divisor, a flag function the ISA leaves undefined).
[[gnu::always_inline]] inline std::optional<uint64_t>
evalOp(SymTag Tag, uint32_t A, uint32_t B, const uint64_t *V, size_t N) {
  switch (Tag) {
  case SymTag::Add:
    return V[0] + V[1];
  case SymTag::Sub:
    return V[0] - V[1];
  case SymTag::Mul:
    return V[0] * V[1];
  case SymTag::MulHiU: {
    const uint64_t Mask = onesMask(A);
    unsigned __int128 Prod =
        static_cast<unsigned __int128>(V[0] & Mask) * (V[1] & Mask);
    return static_cast<uint64_t>(Prod >> A) & Mask;
  }
  case SymTag::MulHiS: {
    __int128 Prod = static_cast<__int128>(sext(V[0], A)) * sext(V[1], A);
    return static_cast<uint64_t>(Prod >> A) & onesMask(A);
  }
  case SymTag::DivQ:
  case SymTag::DivR:
  case SymTag::IDivQ:
  case SymTag::IDivR:
    return evalDivOp(Tag, A, V[0], V[1], V[2]);
  case SymTag::And:
    return V[0] & V[1];
  case SymTag::Or:
    return V[0] | V[1];
  case SymTag::Xor:
    return V[0] ^ V[1];
  case SymTag::Not:
    return ~V[0];
  case SymTag::Neg:
    return 0 - V[0];
  case SymTag::Shl:
    return V[1] >= 64 ? 0 : V[0] << V[1];
  case SymTag::Shr:
    return V[1] >= 64 ? 0 : V[0] >> V[1];
  case SymTag::Sar: {
    const unsigned Bits = A ? A : 64;
    const uint64_t Count = V[1] >= Bits ? Bits - 1 : V[1];
    return static_cast<uint64_t>(sext(V[0], Bits) >> Count) &
           onesMask(Bits);
  }
  case SymTag::Rol:
  case SymTag::Ror: {
    const unsigned Bits = A ? A : 64;
    const uint64_t Mask = onesMask(Bits);
    const uint64_t Val = V[0] & Mask, Count = V[1] % Bits;
    if (Count == 0)
      return Val;
    if (Tag == SymTag::Rol)
      return ((Val << Count) | (Val >> (Bits - Count))) & Mask;
    return ((Val >> Count) | (Val << (Bits - Count))) & Mask;
  }
  case SymTag::Bswap: {
    const unsigned Bytes = (A ? A : 64) / 8;
    uint64_t R = 0;
    for (unsigned I = 0; I < Bytes; ++I)
      R |= ((V[0] >> (8 * I)) & 0xff) << (8 * (Bytes - 1 - I));
    return R;
  }
  case SymTag::SExt:
    return static_cast<uint64_t>(sext(V[0], A));
  case SymTag::Select:
    return V[0] ? V[1] : V[2];
  case SymTag::EqZero:
    return V[0] == 0 ? 1 : 0;
  case SymTag::SignBit:
    return signOf(V[0], A ? A : 64) ? 1 : 0;
  case SymTag::Par8:
    return parity8(V[0]) ? 1 : 0;
  case SymTag::FlagFn: {
    auto R = evalFlagFn(A, static_cast<Mnemonic>(B & 0xffff), B >> 16, V, N);
    if (!R)
      return std::nullopt;
    return *R ? 1 : 0;
  }
  case SymTag::FAdd32:
  case SymTag::FSub32:
  case SymTag::FMul32:
  case SymTag::FDiv32:
  case SymTag::FAdd64:
  case SymTag::FSub64:
  case SymTag::FMul64:
  case SymTag::FDiv64:
    return evalFloatOp(Tag, V[0], V[1]);
  case SymTag::Load:
  case SymTag::None:
    return std::nullopt;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The instruction interpreter.
//===----------------------------------------------------------------------===//

/// Why Interpreter::step could not execute an instruction; null when it did.
using StepError = const char *;

template <class D> class Interpreter {
public:
  using Value = typename D::Value;

  explicit Interpreter(D &Dom) : Dom(Dom) {}

  /// Executes one data instruction: every encoding kind except Jmp, Jcc,
  /// Call, Ret and Opaque, which the caller's run loop handles.
  StepError step(const Instruction &Insn);

  /// The 0/1 value of condition \p CC over the current flags.
  Value condition(CondCode CC);

  /// Reads operand \p Op at width \p W (zero-extended to 64 bits); nullopt
  /// when the domain cannot resolve it (a symbol in the emulator).
  std::optional<Value> readOperand(const Operand &Op, Width W);

  /// Reads any register view, zero-extended.
  Value readReg(Reg R);
  /// Writes any register view with x86-64 merge rules: 8/16-bit writes
  /// keep the rest of the register, 32-bit writes zero-extend.
  void writeReg(Reg R, Value V);

private:
  [[gnu::always_inline]] Value cst(uint64_t V) { return Dom.cst(V); }
  [[gnu::always_inline]] Value op(SymTag Tag,
                                  std::initializer_list<Value> Args) {
    return Dom.op(Tag, 0, Args);
  }
  [[gnu::always_inline]] Value opW(SymTag Tag, uint32_t A,
                                   std::initializer_list<Value> Args) {
    return Dom.op(Tag, A, Args);
  }
  [[gnu::always_inline]] Value trunc(Value V, unsigned Bits) {
    return Bits >= 64 ? V : op(SymTag::And, {V, cst(onesMask(Bits))});
  }
  [[gnu::always_inline]] Value not01(Value V) {
    return op(SymTag::Xor, {V, cst(1)});
  }

  /// Effective address of memory operand \p Op.
  std::optional<Value> address(const Operand &Op);
  bool writeOperand(const Operand &Op, Width W, Value V);

  /// ZF/SF/PF of a width-truncated result.
  [[gnu::always_inline]] void resultFlags(Value R, unsigned Bits) {
    Dom.setFlag(FlagZF, op(SymTag::EqZero, {R}));
    Dom.setFlag(FlagSF, opW(SymTag::SignBit, Bits, {R}));
    Dom.setFlag(FlagPF, op(SymTag::Par8, {R}));
  }
  /// The flags of and/or/xor/test: CF, OF and AF clear.
  [[gnu::always_inline]] void logicFlags(Value R, unsigned Bits) {
    Dom.setFlag(FlagCF, cst(0));
    Dom.setFlag(FlagOF, cst(0));
    Dom.setFlag(FlagAF, cst(0));
    resultFlags(R, Bits);
  }
  /// CF (unless inc/dec), OF and AF of an add (\p Mn ADD/ADC) or subtract.
  [[gnu::always_inline]] void arithFlags(Mnemonic Mn, Value A, Value B,
                                         Value Carry, unsigned Bits,
                                         bool WithCF) {
    if (WithCF)
      Dom.setFlag(FlagCF, Dom.flagFn(FlagCF, Mn, Bits, {A, B, Carry}));
    Dom.setFlag(FlagOF, Dom.flagFn(FlagOF, Mn, Bits, {A, B, Carry}));
    Dom.setFlag(FlagAF, Dom.flagFn(FlagAF, Mn, Bits, {A, B, Carry}));
  }
  /// A flag the ISA leaves undefined after \p Insn; \p Emulated gives the
  /// emulator's value.
  template <class Fn>
  [[gnu::always_inline]] void undefinedFlag(uint8_t Flag,
                                            const Instruction &Insn,
                     std::initializer_list<Value> Args, Fn Emulated) {
    Dom.setFlag(Flag, Dom.undefinedFlag(Flag, Insn.Mn, bitsOf(Insn.W), Args,
                                        Emulated));
  }

  StepError unary(const Instruction &Insn, Value V);
  StepError multiply(const Instruction &Insn);
  StepError shift(const Instruction &Insn);
  StepError fixed(const Instruction &Insn);
  StepError sse(const Instruction &Insn);

  D &Dom;
};

namespace step_error {
inline constexpr StepError Unresolvable = "unresolvable operand";
inline constexpr StepError DivideByZero = "division by zero";
inline constexpr StepError Unmodelled = "unmodelled instruction form";
inline constexpr StepError ControlFlow = "control flow outside the run loop";
} // namespace step_error

template <class D>
typename D::Value Interpreter<D>::readReg(Reg R) {
  const Value Full = Dom.reg(denseRegIndex(R));
  if (regIsXmm(R))
    return Full;
  if (regIsHighByte(R))
    return op(SymTag::And, {op(SymTag::Shr, {Full, cst(8)}), cst(0xff)});
  switch (regWidth(R)) {
  case Width::B:
    return trunc(Full, 8);
  case Width::W:
    return trunc(Full, 16);
  case Width::L:
    return trunc(Full, 32);
  default:
    return Full;
  }
}

template <class D> void Interpreter<D>::writeReg(Reg R, Value V) {
  const unsigned Dense = denseRegIndex(R);
  if (regIsXmm(R)) {
    Dom.setReg(Dense, V);
    return;
  }
  const Value Full = Dom.reg(Dense);
  if (regIsHighByte(R)) {
    Dom.setReg(Dense, op(SymTag::Or,
                         {op(SymTag::And, {Full, cst(~0xff00ULL)}),
                          op(SymTag::Shl, {trunc(V, 8), cst(8)})}));
    return;
  }
  switch (regWidth(R)) {
  case Width::B:
    Dom.setReg(Dense, op(SymTag::Or, {op(SymTag::And, {Full, cst(~0xffULL)}),
                                      trunc(V, 8)}));
    return;
  case Width::W:
    Dom.setReg(Dense, op(SymTag::Or, {op(SymTag::And, {Full, cst(~0xffffULL)}),
                                      trunc(V, 16)}));
    return;
  case Width::L:
    Dom.setReg(Dense, trunc(V, 32)); // 32-bit writes zero-extend.
    return;
  default:
    Dom.setReg(Dense, V);
    return;
  }
}

template <class D>
std::optional<typename D::Value> Interpreter<D>::address(const Operand &Op) {
  const MemRef &M = Op.Mem;
  std::optional<Value> A;
  if (Op.hasSymDisp() || M.isRipRelative())
    A = Dom.symbol(Op);
  else
    A = cst(static_cast<uint64_t>(Op.Imm));
  if (!A)
    return std::nullopt;
  if (M.Base != Reg::None && M.Base != Reg::RIP)
    A = op(SymTag::Add, {*A, Dom.reg(denseRegIndex(M.Base))});
  if (M.Index != Reg::None) {
    Value Idx = Dom.reg(denseRegIndex(M.Index));
    if (M.Scale > 1)
      Idx = op(SymTag::Mul, {Idx, cst(M.Scale)});
    A = op(SymTag::Add, {*A, Idx});
  }
  return A;
}

template <class D>
std::optional<typename D::Value> Interpreter<D>::readOperand(const Operand &Op,
                                                             Width W) {
  switch (Op.Kind) {
  case OperandKind::Immediate:
    if (!Op.Sym.empty()) {
      std::optional<Value> S = Dom.symbol(Op);
      if (!S)
        return std::nullopt;
      return trunc(*S, bitsOf(W));
    }
    return cst(static_cast<uint64_t>(Op.Imm) & onesMask(bitsOf(W)));
  case OperandKind::Register:
    return readReg(Op.R);
  case OperandKind::Memory: {
    std::optional<Value> A = address(Op);
    if (!A)
      return std::nullopt;
    return Dom.load(*A, bitsOf(W) / 8);
  }
  default:
    return std::nullopt;
  }
}

template <class D>
bool Interpreter<D>::writeOperand(const Operand &Op, Width W, Value V) {
  if (Op.isReg()) {
    writeReg(Op.R, V);
    return true;
  }
  if (!Op.isMem())
    return false;
  std::optional<Value> A = address(Op);
  if (!A)
    return false;
  Dom.store(*A, V, bitsOf(W) / 8);
  return true;
}

template <class D> typename D::Value Interpreter<D>::condition(CondCode CC) {
  const Value CF = Dom.flag(FlagCF), ZF = Dom.flag(FlagZF),
              SF = Dom.flag(FlagSF), OF = Dom.flag(FlagOF),
              PF = Dom.flag(FlagPF);
  switch (CC) {
  case CondCode::O:
    return OF;
  case CondCode::NO:
    return not01(OF);
  case CondCode::B:
    return CF;
  case CondCode::AE:
    return not01(CF);
  case CondCode::E:
    return ZF;
  case CondCode::NE:
    return not01(ZF);
  case CondCode::BE:
    return op(SymTag::Or, {CF, ZF});
  case CondCode::A:
    return op(SymTag::And, {not01(CF), not01(ZF)});
  case CondCode::S:
    return SF;
  case CondCode::NS:
    return not01(SF);
  case CondCode::P:
    return PF;
  case CondCode::NP:
    return not01(PF);
  case CondCode::L:
    return op(SymTag::Xor, {SF, OF});
  case CondCode::GE:
    return not01(op(SymTag::Xor, {SF, OF}));
  case CondCode::LE:
    return op(SymTag::Or, {ZF, op(SymTag::Xor, {SF, OF})});
  case CondCode::G:
    return op(SymTag::And, {not01(ZF), not01(op(SymTag::Xor, {SF, OF}))});
  case CondCode::None:
    break;
  }
  return cst(0);
}

template <class D> StepError Interpreter<D>::step(const Instruction &Insn) {
  using namespace step_error;
  const Width W = Insn.W;
  const unsigned Bits = bitsOf(W);
  switch (Insn.info().Kind) {
  case EncKind::Nop:
  case EncKind::Prefetch:
    return nullptr;

  case EncKind::Mov: {
    std::optional<Value> V = readOperand(Insn.Ops[0], W);
    if (!V || !writeOperand(Insn.Ops[1], W, *V))
      return Unresolvable;
    return nullptr;
  }

  case EncKind::Movx: {
    std::optional<Value> V = readOperand(Insn.Ops[0], Insn.SrcW);
    if (!V)
      return Unresolvable;
    Value X = Insn.Mn == Mnemonic::MOVZX
                  ? *V
                  : opW(SymTag::SExt, bitsOf(Insn.SrcW), {*V});
    return writeOperand(Insn.Ops[1], W, trunc(X, Bits)) ? nullptr
                                                        : Unresolvable;
  }

  case EncKind::Lea: {
    std::optional<Value> A = address(Insn.Ops[0]);
    if (!A || !writeOperand(Insn.Ops[1], W, trunc(*A, Bits)))
      return Unresolvable;
    return nullptr;
  }

  case EncKind::AluRMI: {
    std::optional<Value> A = readOperand(Insn.Ops[1], W); // dest, 1st input
    std::optional<Value> B = readOperand(Insn.Ops[0], W); // src
    if (!A || !B)
      return Unresolvable;
    Value R{};
    bool Logic = false;
    switch (Insn.Mn) {
    case Mnemonic::ADD:
      arithFlags(Mnemonic::ADD, *A, *B, cst(0), Bits, true);
      R = op(SymTag::Add, {*A, *B});
      break;
    case Mnemonic::ADC: {
      const Value C = Dom.flag(FlagCF);
      arithFlags(Mnemonic::ADC, *A, *B, C, Bits, true);
      R = op(SymTag::Add, {op(SymTag::Add, {*A, *B}), C});
      break;
    }
    case Mnemonic::SUB:
    case Mnemonic::CMP:
      arithFlags(Mnemonic::SUB, *A, *B, cst(0), Bits, true);
      R = op(SymTag::Sub, {*A, *B});
      break;
    case Mnemonic::SBB: {
      const Value C = Dom.flag(FlagCF);
      arithFlags(Mnemonic::SBB, *A, *B, C, Bits, true);
      R = op(SymTag::Sub, {op(SymTag::Sub, {*A, *B}), C});
      break;
    }
    case Mnemonic::AND:
      R = op(SymTag::And, {*A, *B});
      Logic = true;
      break;
    case Mnemonic::OR:
      R = op(SymTag::Or, {*A, *B});
      Logic = true;
      break;
    case Mnemonic::XOR:
      R = op(SymTag::Xor, {*A, *B});
      Logic = true;
      break;
    default:
      return Unmodelled;
    }
    if (Logic)
      logicFlags(trunc(R, Bits), Bits);
    else
      resultFlags(trunc(R, Bits), Bits);
    if (Insn.Mn != Mnemonic::CMP && !writeOperand(Insn.Ops[1], W, trunc(R, Bits)))
      return Unresolvable;
    return nullptr;
  }

  case EncKind::Test: {
    std::optional<Value> A = readOperand(Insn.Ops[1], W);
    std::optional<Value> B = readOperand(Insn.Ops[0], W);
    if (!A || !B)
      return Unresolvable;
    logicFlags(trunc(op(SymTag::And, {*A, *B}), Bits), Bits);
    return nullptr;
  }

  case EncKind::UnaryRM: {
    std::optional<Value> V = readOperand(Insn.Ops[0], W);
    if (!V)
      return Unresolvable;
    return unary(Insn, *V);
  }

  case EncKind::ImulMulti:
    return multiply(Insn);

  case EncKind::ShiftRot:
    return shift(Insn);

  case EncKind::Push: {
    std::optional<Value> V = readOperand(Insn.Ops[0], Width::Q);
    if (!V)
      return Unresolvable;
    const unsigned Rsp = denseRegIndex(Reg::RSP);
    const Value Top =
        op(SymTag::Add, {Dom.reg(Rsp), cst(static_cast<uint64_t>(-8))});
    Dom.setReg(Rsp, Top);
    Dom.store(Top, *V, 8);
    return nullptr;
  }

  case EncKind::Pop: {
    const unsigned Rsp = denseRegIndex(Reg::RSP);
    const Value Top = Dom.reg(Rsp);
    const Value V = Dom.load(Top, 8);
    Dom.setReg(Rsp, op(SymTag::Add, {Top, cst(8)}));
    return writeOperand(Insn.Ops[0], Width::Q, V) ? nullptr : Unresolvable;
  }

  case EncKind::Xchg: {
    std::optional<Value> A = readOperand(Insn.Ops[0], W);
    std::optional<Value> B = readOperand(Insn.Ops[1], W);
    if (!A || !B || !writeOperand(Insn.Ops[0], W, *B) ||
        !writeOperand(Insn.Ops[1], W, *A))
      return Unresolvable;
    return nullptr;
  }

  case EncKind::Bswap: {
    const Value V = readReg(Insn.Ops[0].R);
    writeReg(Insn.Ops[0].R, opW(SymTag::Bswap, Bits, {V}));
    return nullptr;
  }

  case EncKind::Setcc:
    return writeOperand(Insn.Ops[0], Width::B, condition(Insn.CC))
               ? nullptr
               : Unresolvable;

  case EncKind::Cmovcc: {
    // dst = cond ? src : dst at the destination's width: a not-taken 32-bit
    // cmov still zero-extends, and the source is read either way.
    std::optional<Value> Src = readOperand(Insn.Ops[0], W);
    std::optional<Value> Dst = readOperand(Insn.Ops[1], W);
    if (!Src || !Dst ||
        !writeOperand(Insn.Ops[1], W,
                      op(SymTag::Select, {condition(Insn.CC), *Src, *Dst})))
      return Unresolvable;
    return nullptr;
  }

  case EncKind::Fixed:
    return fixed(Insn);

  case EncKind::SseMov:
  case EncKind::SseCvtMov:
  case EncKind::SseAlu:
    return sse(Insn);

  case EncKind::Jmp:
  case EncKind::Jcc:
  case EncKind::Call:
  case EncKind::Ret:
  case EncKind::Opaque:
    return ControlFlow;
  }
  return Unmodelled;
}

template <class D>
StepError Interpreter<D>::unary(const Instruction &Insn, Value V) {
  using namespace step_error;
  const Width W = Insn.W;
  const unsigned Bits = bitsOf(W);
  switch (Insn.Mn) {
  case Mnemonic::NOT:
    return writeOperand(Insn.Ops[0], W, trunc(op(SymTag::Not, {V}), Bits))
               ? nullptr
               : Unresolvable;
  case Mnemonic::NEG:
    // The flags of 0 - V, so neg and a sub from zero share flag functions.
    arithFlags(Mnemonic::SUB, cst(0), V, cst(0), Bits, true);
    resultFlags(trunc(op(SymTag::Neg, {V}), Bits), Bits);
    return writeOperand(Insn.Ops[0], W, trunc(op(SymTag::Neg, {V}), Bits))
               ? nullptr
               : Unresolvable;
  case Mnemonic::INC:
    // add $1 that keeps CF: inc/add rewrites share the ADD flag functions.
    arithFlags(Mnemonic::ADD, V, cst(1), cst(0), Bits, false);
    resultFlags(trunc(op(SymTag::Add, {V, cst(1)}), Bits), Bits);
    return writeOperand(Insn.Ops[0], W,
                        trunc(op(SymTag::Add, {V, cst(1)}), Bits))
               ? nullptr
               : Unresolvable;
  case Mnemonic::DEC:
    arithFlags(Mnemonic::SUB, V, cst(1), cst(0), Bits, false);
    resultFlags(trunc(op(SymTag::Sub, {V, cst(1)}), Bits), Bits);
    return writeOperand(Insn.Ops[0], W,
                        trunc(op(SymTag::Sub, {V, cst(1)}), Bits))
               ? nullptr
               : Unresolvable;
  case Mnemonic::MUL: {
    const Reg Acc = gprWithWidth(Reg::RAX, W);
    const Value A = readReg(Acc);
    const Value Lo = trunc(op(SymTag::Mul, {A, V}), Bits);
    const Value Hi = opW(SymTag::MulHiU, Bits, {A, V});
    writeReg(Acc, Lo);
    writeReg(highHalfReg(W), Hi);
    const Value HiNonZero = not01(op(SymTag::EqZero, {Hi}));
    Dom.setFlag(FlagCF, HiNonZero);
    Dom.setFlag(FlagOF, HiNonZero);
    undefinedFlag(FlagPF, Insn, {A, V}, [&] { return op(SymTag::Par8, {Lo}); });
    undefinedFlag(FlagAF, Insn, {A, V}, [&] { return cst(0); });
    undefinedFlag(FlagZF, Insn, {A, V},
                  [&] { return op(SymTag::EqZero, {Lo}); });
    undefinedFlag(FlagSF, Insn, {A, V},
                  [&] { return opW(SymTag::SignBit, Bits, {Lo}); });
    return nullptr;
  }
  case Mnemonic::DIV:
  case Mnemonic::IDIV: {
    if (std::optional<uint64_t> Den = Dom.constant(V); Den && *Den == 0)
      return DivideByZero;
    const bool Signed = Insn.Mn == Mnemonic::IDIV;
    const Reg Acc = gprWithWidth(Reg::RAX, W), Ext = highHalfReg(W);
    const Value Hi = readReg(Ext);
    const Value Lo = readReg(Acc);
    const Value Quot =
        opW(Signed ? SymTag::IDivQ : SymTag::DivQ, Bits, {Hi, Lo, V});
    writeReg(Acc, Quot);
    writeReg(Ext, opW(Signed ? SymTag::IDivR : SymTag::DivR, Bits, {Hi, Lo, V}));
    undefinedFlag(FlagCF, Insn, {Hi, Lo, V}, [&] { return cst(0); });
    undefinedFlag(FlagPF, Insn, {Hi, Lo, V},
                  [&] { return op(SymTag::Par8, {Quot}); });
    undefinedFlag(FlagAF, Insn, {Hi, Lo, V}, [&] { return cst(0); });
    undefinedFlag(FlagZF, Insn, {Hi, Lo, V},
                  [&] { return op(SymTag::EqZero, {Quot}); });
    undefinedFlag(FlagSF, Insn, {Hi, Lo, V},
                  [&] { return opW(SymTag::SignBit, Bits, {Quot}); });
    undefinedFlag(FlagOF, Insn, {Hi, Lo, V}, [&] { return cst(0); });
    return nullptr;
  }
  default:
    return Unmodelled;
  }
}

template <class D>
StepError Interpreter<D>::multiply(const Instruction &Insn) {
  using namespace step_error;
  const Width W = Insn.W;
  const unsigned Bits = bitsOf(W);
  if (Insn.Ops.size() == 1) {
    // rdx:rax = rax * src, signed.
    std::optional<Value> V = readOperand(Insn.Ops[0], W);
    if (!V)
      return Unresolvable;
    const Reg Acc = gprWithWidth(Reg::RAX, W);
    const Value A = readReg(Acc);
    const Value Lo = trunc(op(SymTag::Mul, {A, *V}), Bits);
    writeReg(Acc, Lo);
    writeReg(highHalfReg(W), opW(SymTag::MulHiS, Bits, {A, *V}));
    Dom.setFlag(FlagCF, Dom.flagFn(FlagCF, Mnemonic::IMUL, Bits, {A, *V}));
    Dom.setFlag(FlagOF, Dom.flagFn(FlagOF, Mnemonic::IMUL, Bits, {A, *V}));
    undefinedFlag(FlagPF, Insn, {A, *V},
                  [&] { return op(SymTag::Par8, {Lo}); });
    undefinedFlag(FlagAF, Insn, {A, *V}, [&] { return cst(0); });
    undefinedFlag(FlagZF, Insn, {A, *V},
                  [&] { return op(SymTag::EqZero, {Lo}); });
    undefinedFlag(FlagSF, Insn, {A, *V},
                  [&] { return opW(SymTag::SignBit, Bits, {Lo}); });
    return nullptr;
  }
  // imul src, dst (dst *= src) and imul $imm, src, dst.
  std::optional<Value> A = readOperand(Insn.Ops[0], W);
  std::optional<Value> B = readOperand(Insn.Ops[1], W);
  if (!A || !B)
    return Unresolvable;
  const Value R = trunc(op(SymTag::Mul, {*A, *B}), Bits);
  Dom.setFlag(FlagCF, Dom.flagFn(FlagCF, Mnemonic::IMUL, Bits, {*A, *B}));
  Dom.setFlag(FlagOF, Dom.flagFn(FlagOF, Mnemonic::IMUL, Bits, {*A, *B}));
  resultFlags(R, Bits);
  if (!writeOperand(Insn.Ops.back(), W, R))
    return Unresolvable;
  undefinedFlag(FlagAF, Insn, {*A, *B}, [&] { return cst(0); });
  return nullptr;
}

template <class D> StepError Interpreter<D>::shift(const Instruction &Insn) {
  using namespace step_error;
  const Width W = Insn.W;
  const unsigned Bits = bitsOf(W);
  const Operand &Target = Insn.Ops.back();
  std::optional<Value> V = readOperand(Target, W);
  if (!V)
    return Unresolvable;
  const uint64_t CountMask = W == Width::Q ? 63 : 31;
  const Value Count =
      Insn.Ops.size() == 1 ? cst(1)
      : Insn.Ops[0].isReg()
          ? op(SymTag::And, {readReg(Reg::CL), cst(CountMask)})
          : cst(static_cast<uint64_t>(Insn.Ops[0].Imm) & CountMask);
  const bool Rotate = Insn.Mn == Mnemonic::ROL || Insn.Mn == Mnemonic::ROR;
  // A zero count, or a rotate by a multiple of the width, leaves the
  // operand and every flag alone.
  if (std::optional<uint64_t> C = Dom.constant(Count);
      C && (*C == 0 || (Rotate && *C % Bits == 0)))
    return nullptr;

  SymTag Tag = SymTag::None;
  switch (Insn.Mn) {
  case Mnemonic::SHL:
    Tag = SymTag::Shl;
    break;
  case Mnemonic::SHR:
    Tag = SymTag::Shr;
    break;
  case Mnemonic::SAR:
    Tag = SymTag::Sar;
    break;
  case Mnemonic::ROL:
    Tag = SymTag::Rol;
    break;
  case Mnemonic::ROR:
    Tag = SymTag::Ror;
    break;
  default:
    return Unmodelled;
  }
  const Value R = trunc(opW(Tag, Bits, {*V, Count}), Bits);
  Dom.setFlag(FlagCF, Dom.flagFn(FlagCF, Insn.Mn, Bits, {*V, Count}));
  if (!Rotate) {
    Dom.setFlag(FlagOF, Dom.flagFn(FlagOF, Insn.Mn, Bits, {*V, Count}));
    resultFlags(R, Bits);
  }
  if (!writeOperand(Target, W, R))
    return Unresolvable;
  if (!Rotate) {
    undefinedFlag(FlagAF, Insn, {*V, Count}, [&] { return cst(0); });
    return nullptr;
  }
  // Rotates define only CF (and OF for a count of one).
  undefinedFlag(FlagPF, Insn, {*V, Count},
                [&] { return op(SymTag::Par8, {R}); });
  undefinedFlag(FlagAF, Insn, {*V, Count}, [&] { return cst(0); });
  undefinedFlag(FlagZF, Insn, {*V, Count},
                [&] { return op(SymTag::EqZero, {R}); });
  undefinedFlag(FlagSF, Insn, {*V, Count},
                [&] { return opW(SymTag::SignBit, Bits, {R}); });
  undefinedFlag(FlagOF, Insn, {*V, Count}, [&] {
    // rol: the result's sign xor CF; ror: its two top bits differ.
    const Value Sign = opW(SymTag::SignBit, Bits, {R});
    return op(SymTag::Xor, {Sign, Insn.Mn == Mnemonic::ROL
                                      ? Dom.flag(FlagCF)
                                      : opW(SymTag::SignBit, Bits - 1, {R})});
  });
  return nullptr;
}

template <class D> StepError Interpreter<D>::fixed(const Instruction &Insn) {
  const unsigned Rax = denseRegIndex(Reg::RAX), Rdx = denseRegIndex(Reg::RDX);
  switch (Insn.Mn) {
  case Mnemonic::CLTQ:
    Dom.setReg(Rax, opW(SymTag::SExt, 32, {Dom.reg(Rax)}));
    return nullptr;
  case Mnemonic::CWTL:
    writeReg(Reg::EAX, trunc(opW(SymTag::SExt, 16, {readReg(Reg::AX)}), 32));
    return nullptr;
  case Mnemonic::CBTW:
    writeReg(Reg::AX, trunc(opW(SymTag::SExt, 8, {readReg(Reg::AL)}), 16));
    return nullptr;
  case Mnemonic::CLTD:
    writeReg(Reg::EDX, op(SymTag::Select,
                          {opW(SymTag::SignBit, 32, {readReg(Reg::EAX)}),
                           cst(0xffffffffULL), cst(0)}));
    return nullptr;
  case Mnemonic::CQTO:
    Dom.setReg(Rdx, op(SymTag::Select, {opW(SymTag::SignBit, 64, {Dom.reg(Rax)}),
                                        cst(~0ULL), cst(0)}));
    return nullptr;
  case Mnemonic::LEAVE: {
    const unsigned Rbp = denseRegIndex(Reg::RBP);
    const Value Frame = Dom.reg(Rbp);
    Dom.setReg(Rbp, Dom.load(Frame, 8));
    Dom.setReg(denseRegIndex(Reg::RSP), op(SymTag::Add, {Frame, cst(8)}));
    return nullptr;
  }
  case Mnemonic::CPUID:
    for (Reg R : {Reg::RAX, Reg::RBX, Reg::RCX, Reg::RDX})
      Dom.setReg(denseRegIndex(R), cst(0));
    return nullptr;
  case Mnemonic::RDTSC:
    // A deterministic timestamp.
    writeReg(Reg::EAX, cst(0));
    writeReg(Reg::EDX, cst(0));
    return nullptr;
  default:
    return step_error::Unmodelled;
  }
}

template <class D> StepError Interpreter<D>::sse(const Instruction &Insn) {
  using namespace step_error;
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  const bool SrcXmm = Src.isReg() && regIsXmm(Src.R);
  const bool DstXmm = Dst.isReg() && regIsXmm(Dst.R);
  // Scalar SSE works on the low 64 bits of an xmm register; memory operands
  // move \p Bytes.
  auto Load = [&](unsigned Bytes) -> std::optional<Value> {
    if (SrcXmm)
      return Dom.reg(denseRegIndex(Src.R));
    if (!Src.isMem())
      return std::nullopt;
    std::optional<Value> A = address(Src);
    if (!A)
      return std::nullopt;
    return Dom.load(*A, Bytes);
  };
  auto Store = [&](Value V, unsigned Bytes) {
    std::optional<Value> A = address(Dst);
    if (!A)
      return false;
    Dom.store(*A, V, Bytes);
    return true;
  };

  switch (Insn.info().Kind) {
  case EncKind::SseMov: {
    // All 64 modelled bits move even for movss between registers.
    const unsigned Bytes = Insn.Mn == Mnemonic::MOVSS ? 4 : 8;
    std::optional<Value> V = Load(Bytes);
    if (!V)
      return Unresolvable;
    if (DstXmm) {
      Dom.setReg(denseRegIndex(Dst.R), *V);
      return nullptr;
    }
    return Dst.isMem() && Store(*V, Bytes) ? nullptr : Unresolvable;
  }

  case EncKind::SseCvtMov: {
    // movd/movq between a GPR or memory and an xmm register.
    const bool Movd = Insn.Mn == Mnemonic::MOVD;
    if (DstXmm) {
      std::optional<Value> V =
          Src.isReg() ? readReg(Src.R) : readOperand(Src, Width::Q);
      if (!V)
        return Unresolvable;
      Dom.setReg(denseRegIndex(Dst.R), Movd ? trunc(*V, 32) : *V);
      return nullptr;
    }
    if (!SrcXmm)
      return Unmodelled;
    Value V = Dom.reg(denseRegIndex(Src.R));
    if (Movd)
      V = trunc(V, 32);
    if (Dst.isReg()) {
      writeReg(Dst.R, V);
      return nullptr;
    }
    return Dst.isMem() && Store(V, Movd ? 4 : 8) ? nullptr : Unresolvable;
  }

  default: {
    if (!DstXmm)
      return Unmodelled;
    std::optional<Value> S = Load(8);
    if (!S)
      return Unresolvable;
    const unsigned Slot = denseRegIndex(Dst.R);
    const Value DstBits = Dom.reg(Slot);
    // The single-precision forms replace the low 32 bits only.
    auto Scalar32 = [&](SymTag Tag) {
      return op(SymTag::Or, {op(SymTag::And, {DstBits, cst(~0xffffffffULL)}),
                             op(Tag, {DstBits, *S})});
    };
    switch (Insn.Mn) {
    case Mnemonic::ADDSS:
      Dom.setReg(Slot, Scalar32(SymTag::FAdd32));
      return nullptr;
    case Mnemonic::SUBSS:
      Dom.setReg(Slot, Scalar32(SymTag::FSub32));
      return nullptr;
    case Mnemonic::MULSS:
      Dom.setReg(Slot, Scalar32(SymTag::FMul32));
      return nullptr;
    case Mnemonic::DIVSS:
      Dom.setReg(Slot, Scalar32(SymTag::FDiv32));
      return nullptr;
    case Mnemonic::ADDSD:
      Dom.setReg(Slot, op(SymTag::FAdd64, {DstBits, *S}));
      return nullptr;
    case Mnemonic::SUBSD:
      Dom.setReg(Slot, op(SymTag::FSub64, {DstBits, *S}));
      return nullptr;
    case Mnemonic::MULSD:
      Dom.setReg(Slot, op(SymTag::FMul64, {DstBits, *S}));
      return nullptr;
    case Mnemonic::DIVSD:
      Dom.setReg(Slot, op(SymTag::FDiv64, {DstBits, *S}));
      return nullptr;
    case Mnemonic::XORPS:
    case Mnemonic::PXOR:
      Dom.setReg(Slot, op(SymTag::Xor, {DstBits, *S}));
      return nullptr;
    case Mnemonic::UCOMISS:
    case Mnemonic::UCOMISD:
      Dom.setFlag(FlagOF, cst(0));
      Dom.setFlag(FlagAF, cst(0));
      Dom.setFlag(FlagSF, cst(0));
      for (uint8_t Flag : {FlagZF, FlagCF, FlagPF})
        Dom.setFlag(Flag, Dom.flagFn(Flag, Insn.Mn, 0, {DstBits, *S}));
      return nullptr;
    default:
      return Unmodelled;
    }
  }
  }
  return Unmodelled;
}

} // namespace mao

#endif // MAO_X86_SEMANTICS_H
