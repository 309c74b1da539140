//===- check/SymbolicEval.cpp - Symbolic per-block evaluator -----------------==//

#include "check/SymbolicEval.h"

#include "x86/Opcodes.h"
#include "x86/Registers.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <optional>
#include <sstream>

using namespace mao;

namespace {

uint64_t onesMask(unsigned Bits) {
  return Bits >= 64 ? ~0ULL : (1ULL << Bits) - 1;
}

/// Operand size in bytes; Width::None behaves like Q (the emulator's
/// convention for width-less instructions).
unsigned bytesOf(Width W) {
  unsigned B = widthBytes(W);
  return B ? B : 8;
}

uint64_t widthMask(Width W) { return onesMask(bytesOf(W) * 8); }

bool signOf(uint64_t Value, unsigned Bits) {
  return (Value >> (Bits - 1)) & 1;
}

int64_t sext(uint64_t Value, unsigned Bits) {
  if (Bits >= 64)
    return static_cast<int64_t>(Value);
  Value &= onesMask(Bits);
  const uint64_t Sign = 1ULL << (Bits - 1);
  return static_cast<int64_t>((Value ^ Sign) - Sign);
}

/// True for masks of the form 00..011..1 (at least one low bit set).
bool isLowOnesMask(uint64_t M) { return M != 0 && ((M + 1) & M) == 0; }

float asF32(uint64_t Bits) {
  float F;
  uint32_t U = static_cast<uint32_t>(Bits);
  std::memcpy(&F, &U, 4);
  return F;
}
uint64_t fromF32(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}
double asF64(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}
uint64_t fromF64(double D) {
  uint64_t U;
  std::memcpy(&U, &D, 8);
  return U;
}

/// Replicates Emulator's flagsAdd for one flag.
std::optional<bool> foldAddFlag(unsigned FlagPos, uint64_t A, uint64_t B,
                                uint64_t Carry, unsigned Bits) {
  const uint64_t Mask = onesMask(Bits);
  A &= Mask;
  B &= Mask;
  uint64_t R = (A + B + Carry) & Mask;
  switch (1u << FlagPos) {
  case FlagCF:
    return R < A || (Carry && R == A && B == Mask);
  case FlagOF:
    return signOf(A, Bits) == signOf(B, Bits) && signOf(R, Bits) != signOf(A, Bits);
  case FlagAF:
    return ((A ^ B ^ R) >> 4) & 1;
  case FlagZF:
    return R == 0;
  case FlagSF:
    return signOf(R, Bits);
  case FlagPF:
    return parity8(R);
  }
  return std::nullopt;
}

std::optional<bool> foldSubFlag(unsigned FlagPos, uint64_t A, uint64_t B,
                                uint64_t Borrow, unsigned Bits) {
  const uint64_t Mask = onesMask(Bits);
  A &= Mask;
  B &= Mask;
  uint64_t R = (A - B - Borrow) & Mask;
  switch (1u << FlagPos) {
  case FlagCF:
    return A < B + Borrow || (Borrow && B == Mask);
  case FlagOF:
    return signOf(A, Bits) != signOf(B, Bits) && signOf(R, Bits) != signOf(A, Bits);
  case FlagAF:
    return ((A ^ B ^ R) >> 4) & 1;
  case FlagZF:
    return R == 0;
  case FlagSF:
    return signOf(R, Bits);
  case FlagPF:
    return parity8(R);
  }
  return std::nullopt;
}

/// Constant evaluation of a FlagFn node: flag FlagPos of operation Mn at
/// width Bits over constant inputs. Returns nullopt when the emulator leaves
/// the flag unchanged / undefined (the node then stays symbolic, which is
/// fine — both compared sides build the identical node).
std::optional<bool> foldFlagFn(unsigned FlagPos, Mnemonic Mn, unsigned Bits,
                               const std::vector<uint64_t> &V) {
  const uint64_t Mask = onesMask(Bits);
  switch (Mn) {
  case Mnemonic::ADD:
  case Mnemonic::ADC:
    if (V.size() < 3)
      return std::nullopt;
    return foldAddFlag(FlagPos, V[0], V[1], V[2], Bits);
  case Mnemonic::SUB:
  case Mnemonic::SBB:
  case Mnemonic::CMP:
  case Mnemonic::NEG:
    if (V.size() < 3)
      return std::nullopt;
    return foldSubFlag(FlagPos, V[0], V[1], V[2], Bits);
  case Mnemonic::IMUL: {
    if (V.size() < 2 || (FlagPos != 0 && (1u << FlagPos) != FlagOF))
      return std::nullopt;
    __int128 Prod = static_cast<__int128>(sext(V[0], Bits)) * sext(V[1], Bits);
    uint64_t R = static_cast<uint64_t>(Prod) & Mask;
    return static_cast<__int128>(sext(R, Bits)) != Prod;
  }
  case Mnemonic::SHL:
  case Mnemonic::SHR:
  case Mnemonic::SAR:
  case Mnemonic::ROL:
  case Mnemonic::ROR: {
    if (V.size() < 2)
      return std::nullopt;
    uint64_t Val = V[0] & Mask;
    uint64_t Count = V[1];
    if (Count == 0)
      return std::nullopt; // Flags unchanged; cannot fold.
    uint64_t R = 0;
    bool CF = false, OF = false;
    switch (Mn) {
    case Mnemonic::SHL:
      CF = Count <= Bits && ((Val >> (Bits - Count)) & 1);
      R = (Val << Count) & Mask;
      OF = signOf(R, Bits) != CF;
      break;
    case Mnemonic::SHR:
      CF = (Val >> (Count - 1)) & 1;
      R = Val >> Count;
      OF = signOf(Val, Bits);
      break;
    case Mnemonic::SAR: {
      int64_t SVal = sext(Val, Bits);
      CF = (SVal >> (Count - 1)) & 1;
      R = static_cast<uint64_t>(SVal >> Count) & Mask;
      OF = false;
      break;
    }
    case Mnemonic::ROL:
      Count %= Bits;
      if (Count == 0)
        return std::nullopt;
      R = ((Val << Count) | (Val >> (Bits - Count))) & Mask;
      if ((1u << FlagPos) == FlagCF)
        return (R & 1) != 0;
      return std::nullopt; // Only CF is written.
    case Mnemonic::ROR:
      Count %= Bits;
      if (Count == 0)
        return std::nullopt;
      R = ((Val >> Count) | (Val << (Bits - Count))) & Mask;
      if ((1u << FlagPos) == FlagCF)
        return signOf(R, Bits);
      return std::nullopt;
    default:
      break;
    }
    switch (1u << FlagPos) {
    case FlagCF:
      return CF;
    case FlagOF:
      return OF;
    case FlagZF:
      return (R & Mask) == 0;
    case FlagSF:
      return signOf(R & Mask, Bits);
    case FlagPF:
      return parity8(R);
    default:
      return std::nullopt; // AF undefined after shifts.
    }
  }
  case Mnemonic::UCOMISS:
  case Mnemonic::UCOMISD: {
    if (V.size() < 2)
      return std::nullopt;
    bool Unordered, Eq, Lt;
    if (Mn == Mnemonic::UCOMISS) {
      float A = asF32(V[0]), B = asF32(V[1]);
      Unordered = A != A || B != B;
      Eq = A == B;
      Lt = A < B;
    } else {
      double A = asF64(V[0]), B = asF64(V[1]);
      Unordered = A != A || B != B;
      Eq = A == B;
      Lt = A < B;
    }
    switch (1u << FlagPos) {
    case FlagZF:
      return Unordered || Eq;
    case FlagCF:
      return Unordered || Lt;
    case FlagPF:
      return Unordered;
    default:
      return false; // OF/AF/SF are cleared.
    }
  }
  default:
    return std::nullopt; // MUL/DIV/... leave this flag undefined.
  }
}

} // namespace

unsigned mao::denseRegIndex(Reg R) {
  if (R == Reg::None)
    return ~0u;
  if (regIsXmm(R))
    return 16 + regEncoding(R);
  if (regIsGpr(R))
    return gprSuperIndex(R);
  return ~0u; // RIP
}

//===----------------------------------------------------------------------===//
// SymTable
//===----------------------------------------------------------------------===//

NodeId SymTable::intern(SymNode Node) {
  std::ostringstream Key;
  Key << static_cast<int>(Node.Kind) << '|' << static_cast<int>(Node.Tag)
      << '|' << Node.A << '|' << Node.B << '|' << Node.Value << '|'
      << Node.Aux << '|';
  for (NodeId Arg : Node.Args)
    Key << Arg << ',';
  auto It = Interned.find(Key.str());
  if (It != Interned.end())
    return It->second;
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes.push_back(std::move(Node));
  Interned.emplace(Key.str(), Id);
  return Id;
}

NodeId SymTable::makeConst(uint64_t Value) {
  SymNode N;
  N.Kind = SymKind::Const;
  N.Value = Value;
  N.KnownZero = ~Value;
  return intern(std::move(N));
}

NodeId SymTable::makeInitReg(unsigned DenseIndex) {
  SymNode N;
  N.Kind = SymKind::InitReg;
  N.A = DenseIndex;
  return intern(std::move(N));
}

NodeId SymTable::makeInitFlag(unsigned FlagPos) {
  SymNode N;
  N.Kind = SymKind::InitFlag;
  N.A = FlagPos;
  N.KnownZero = ~1ULL;
  return intern(std::move(N));
}

NodeId SymTable::makeSymAddr(const std::string &Sym, int64_t Addend) {
  SymNode N;
  N.Kind = SymKind::SymAddr;
  N.Aux = Sym;
  N.Value = static_cast<uint64_t>(Addend);
  return intern(std::move(N));
}

NodeId SymTable::makeUnknown(const std::string &Aux, uint32_t A, uint32_t B) {
  SymNode N;
  N.Kind = SymKind::Unknown;
  N.Aux = Aux;
  N.A = A;
  N.B = B;
  if (B >= 100)
    N.KnownZero = ~1ULL; // Flag-valued unknowns are 0/1.
  return intern(std::move(N));
}

namespace {

bool isCommutative(SymTag Tag) {
  switch (Tag) {
  case SymTag::Add:
  case SymTag::Mul:
  case SymTag::And:
  case SymTag::Or:
  case SymTag::Xor:
    return true;
  default:
    return false;
  }
}

/// Constant evaluation of an Op node. Returns nullopt for non-foldable tags
/// (Load, opaque FlagFns, division by a constant zero, ...).
std::optional<uint64_t> foldOp(SymTag Tag, uint32_t A, uint32_t B,
                               const std::vector<uint64_t> &V) {
  switch (Tag) {
  case SymTag::Add:
    return V[0] + V[1];
  case SymTag::Sub:
    return V[0] - V[1];
  case SymTag::Mul:
    return V[0] * V[1];
  case SymTag::MulHiU: {
    unsigned Bits = A;
    uint64_t Mask = onesMask(Bits);
    unsigned __int128 Prod =
        static_cast<unsigned __int128>(V[0] & Mask) * (V[1] & Mask);
    return static_cast<uint64_t>(Prod >> Bits) & Mask;
  }
  case SymTag::MulHiS: {
    unsigned Bits = A;
    __int128 Prod = static_cast<__int128>(sext(V[0], Bits)) * sext(V[1], Bits);
    return static_cast<uint64_t>(Prod >> Bits) & onesMask(Bits);
  }
  case SymTag::DivQ:
  case SymTag::DivR: {
    unsigned Bits = A;
    uint64_t Mask = onesMask(Bits);
    uint64_t Den = V[2] & Mask;
    if (Den == 0)
      return std::nullopt;
    unsigned __int128 Num =
        (static_cast<unsigned __int128>(V[0] & Mask) << Bits) | (V[1] & Mask);
    return static_cast<uint64_t>(Tag == SymTag::DivQ ? Num / Den : Num % Den) &
           Mask;
  }
  case SymTag::IDivQ:
  case SymTag::IDivR: {
    unsigned Bits = A;
    int64_t Den = sext(V[2], Bits);
    if (Den == 0)
      return std::nullopt;
    __int128 Num = (static_cast<__int128>(sext(V[0], Bits)) << Bits) |
                   (V[1] & onesMask(Bits));
    __int128 R = Tag == SymTag::IDivQ ? Num / Den : Num % Den;
    return static_cast<uint64_t>(R) & onesMask(Bits);
  }
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
    unsigned Bits = A ? A : 64;
    uint64_t Count = V[1] >= Bits ? Bits - 1 : V[1];
    return static_cast<uint64_t>(sext(V[0], Bits) >> Count) & onesMask(Bits);
  }
  case SymTag::Rol:
  case SymTag::Ror: {
    unsigned Bits = A ? A : 64;
    uint64_t Mask = onesMask(Bits);
    uint64_t Val = V[0] & Mask;
    uint64_t Count = V[1] % Bits;
    if (Count == 0)
      return Val;
    if (Tag == SymTag::Rol)
      return ((Val << Count) | (Val >> (Bits - Count))) & Mask;
    return ((Val >> Count) | (Val << (Bits - Count))) & Mask;
  }
  case SymTag::Bswap: {
    unsigned Bytes = (A ? A : 64) / 8;
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
    return (V[0] >> ((A ? A : 64) - 1)) & 1;
  case SymTag::Par8:
    return parity8(V[0]) ? 1 : 0;
  case SymTag::FlagFn: {
    auto R = foldFlagFn(A, static_cast<Mnemonic>(B & 0xffff), B >> 16, V);
    if (!R)
      return std::nullopt;
    return *R ? 1 : 0;
  }
  case SymTag::FAdd32:
    return fromF32(asF32(V[0]) + asF32(V[1]));
  case SymTag::FSub32:
    return fromF32(asF32(V[0]) - asF32(V[1]));
  case SymTag::FMul32:
    return fromF32(asF32(V[0]) * asF32(V[1]));
  case SymTag::FDiv32:
    return fromF32(asF32(V[0]) / asF32(V[1]));
  case SymTag::FAdd64:
    return fromF64(asF64(V[0]) + asF64(V[1]));
  case SymTag::FSub64:
    return fromF64(asF64(V[0]) - asF64(V[1]));
  case SymTag::FMul64:
    return fromF64(asF64(V[0]) * asF64(V[1]));
  case SymTag::FDiv64:
    return fromF64(asF64(V[0]) / asF64(V[1]));
  case SymTag::Load:
  case SymTag::None:
    return std::nullopt;
  }
  return std::nullopt;
}

} // namespace

NodeId SymTable::makeOp(SymTag Tag, uint32_t A, uint32_t B,
                        std::vector<NodeId> Args) {
  // Constant folding first: the fold paths replicate sim/Emulator exactly.
  bool AllConst = true;
  for (NodeId Arg : Args)
    AllConst = AllConst && Nodes[Arg].isConst();
  if (AllConst && !Args.empty()) {
    std::vector<uint64_t> Vals;
    Vals.reserve(Args.size());
    for (NodeId Arg : Args)
      Vals.push_back(Nodes[Arg].Value);
    if (auto R = foldOp(Tag, A, B, Vals))
      return makeConst(*R);
  }

  // Canonical argument order for commutative binary operations: constant
  // last, otherwise ascending NodeId. Shared-table interning then makes
  // syntactically flipped expressions identical.
  if (isCommutative(Tag) && Args.size() == 2) {
    bool C0 = Nodes[Args[0]].isConst(), C1 = Nodes[Args[1]].isConst();
    if ((C0 && !C1) || (!C0 && !C1 && Args[0] > Args[1]))
      std::swap(Args[0], Args[1]);
  }

  // Algebraic simplifications. Every rule is a semantic identity on the
  // 64-bit domain; they are chosen to discharge exactly the rewrites MAO's
  // peephole passes perform.
  switch (Tag) {
  case SymTag::Sub:
    if (Args[0] == Args[1])
      return makeConst(0);
    if (Nodes[Args[1]].isConst())
      return makeOp(SymTag::Add, 0, 0,
                    {Args[0], makeConst(0 - Nodes[Args[1]].Value)});
    break;
  case SymTag::Add: {
    if (isConst(Args[1], 0))
      return Args[0];
    // add(add(x, c1), c2) -> add(x, c1 + c2)
    const SymNode &L = Nodes[Args[0]];
    if (Nodes[Args[1]].isConst() && L.Kind == SymKind::Op &&
        L.Tag == SymTag::Add && L.Args.size() == 2 &&
        Nodes[L.Args[1]].isConst())
      return makeOp(SymTag::Add, 0, 0,
                    {L.Args[0], makeConst(Nodes[L.Args[1]].Value +
                                          Nodes[Args[1]].Value)});
    break;
  }
  case SymTag::And: {
    if (Args[0] == Args[1])
      return Args[0];
    if (Nodes[Args[1]].isConst()) {
      uint64_t M = Nodes[Args[1]].Value;
      if (M == 0)
        return makeConst(0);
      if (M == ~0ULL)
        return Args[0];
      // and(and(x, c1), c2) -> and(x, c1 & c2)
      const SymNode &L = Nodes[Args[0]];
      if (L.Kind == SymKind::Op && L.Tag == SymTag::And &&
          L.Args.size() == 2 && Nodes[L.Args[1]].isConst())
        return makeOp(SymTag::And, 0, 0,
                      {L.Args[0], makeConst(Nodes[L.Args[1]].Value & M)});
      // Low-ones masks commute with +, -, * on the bits they keep: strip
      // redundant interior masks so `and(add(and(x, m), c), m)` and
      // `and(add(x, c), m)` intern to the same node (32-bit arithmetic
      // chains rewritten by CONSTFOLD/ADDADD).
      if (isLowOnesMask(M)) {
        NodeId Stripped = stripLowMask(Args[0], M);
        if (Stripped != Args[0])
          return makeOp(SymTag::And, 0, 0, {Stripped, Args[1]});
      }
      // All bits the mask would clear are already known zero.
      if ((~M & ~Nodes[Args[0]].KnownZero) == 0)
        return Args[0];
    }
    break;
  }
  case SymTag::Or:
    if (Args[0] == Args[1])
      return Args[0];
    if (isConst(Args[1], 0))
      return Args[0];
    if (Nodes[Args[1]].isConst() && Nodes[Args[1]].Value == ~0ULL)
      return makeConst(~0ULL);
    break;
  case SymTag::Xor:
    if (Args[0] == Args[1])
      return makeConst(0);
    if (isConst(Args[1], 0))
      return Args[0];
    break;
  case SymTag::Mul:
    if (isConst(Args[1], 1))
      return Args[0];
    if (isConst(Args[1], 0))
      return makeConst(0);
    break;
  case SymTag::Shl:
  case SymTag::Shr:
  case SymTag::Sar:
  case SymTag::Rol:
  case SymTag::Ror:
    if (isConst(Args[1], 0))
      return Args[0];
    break;
  case SymTag::SExt:
    // High bits (sign bit included) already zero: sign extension is the
    // identity.
    if (A < 64 && ((~Nodes[Args[0]].KnownZero) >> (A - 1)) == 0)
      return Args[0];
    // sext of an exactly-matching low mask: the mask is redundant.
    if (Nodes[Args[0]].Kind == SymKind::Op &&
        Nodes[Args[0]].Tag == SymTag::And &&
        Nodes[Args[0]].Args.size() == 2 &&
        Nodes[Nodes[Args[0]].Args[1]].isConst() &&
        Nodes[Nodes[Args[0]].Args[1]].Value == onesMask(A))
      return makeOp(SymTag::SExt, A, 0, {Nodes[Args[0]].Args[0]});
    break;
  case SymTag::Select:
    if (Nodes[Args[0]].isConst())
      return Nodes[Args[0]].Value ? Args[1] : Args[2];
    if (Args[1] == Args[2])
      return Args[1];
    break;
  default:
    break;
  }

  SymNode N;
  N.Kind = SymKind::Op;
  N.Tag = Tag;
  N.A = A;
  N.B = B;
  N.Args = std::move(Args);

  // Known-zero propagation (sound under-approximation).
  switch (Tag) {
  case SymTag::And:
    N.KnownZero = Nodes[N.Args[0]].KnownZero | Nodes[N.Args[1]].KnownZero;
    break;
  case SymTag::Or:
  case SymTag::Xor:
    N.KnownZero = Nodes[N.Args[0]].KnownZero & Nodes[N.Args[1]].KnownZero;
    break;
  case SymTag::Load:
    N.KnownZero = ~onesMask(A * 8);
    break;
  case SymTag::Shl:
    if (Nodes[N.Args[1]].isConst() && Nodes[N.Args[1]].Value < 64) {
      uint64_t C = Nodes[N.Args[1]].Value;
      N.KnownZero = (Nodes[N.Args[0]].KnownZero << C) | onesMask(C);
    }
    break;
  case SymTag::Shr:
    if (Nodes[N.Args[1]].isConst() && Nodes[N.Args[1]].Value < 64) {
      uint64_t C = Nodes[N.Args[1]].Value;
      N.KnownZero = (Nodes[N.Args[0]].KnownZero >> C) | ~(~0ULL >> C);
    }
    break;
  case SymTag::Select:
    N.KnownZero = Nodes[N.Args[1]].KnownZero & Nodes[N.Args[2]].KnownZero;
    break;
  case SymTag::EqZero:
  case SymTag::SignBit:
  case SymTag::Par8:
  case SymTag::FlagFn:
    N.KnownZero = ~1ULL;
    break;
  case SymTag::Sar:
  case SymTag::Rol:
  case SymTag::Ror:
  case SymTag::MulHiU:
  case SymTag::MulHiS:
  case SymTag::DivQ:
  case SymTag::DivR:
  case SymTag::IDivQ:
  case SymTag::IDivR:
  case SymTag::Bswap:
    if (A && A < 64)
      N.KnownZero = ~onesMask(A);
    break;
  case SymTag::FAdd32:
  case SymTag::FSub32:
  case SymTag::FMul32:
  case SymTag::FDiv32:
    N.KnownZero = ~0xffffffffULL;
    break;
  default:
    break;
  }

  return intern(std::move(N));
}

/// Removes And-masks that are supersets of the low-ones mask \p M from a
/// +,-,* expression tree: under an outer `and m`, only the low bits matter,
/// and add/sub/mul carries propagate strictly upward.
NodeId SymTable::stripLowMask(NodeId Id, uint64_t M) {
  const SymNode &N = Nodes[Id];
  if (N.Kind != SymKind::Op)
    return Id;
  if (N.Tag == SymTag::And && N.Args.size() == 2 &&
      Nodes[N.Args[1]].isConst() && (Nodes[N.Args[1]].Value & M) == M)
    return stripLowMask(N.Args[0], M);
  if (N.Tag == SymTag::Add || N.Tag == SymTag::Sub || N.Tag == SymTag::Mul) {
    NodeId A0 = stripLowMask(N.Args[0], M);
    NodeId A1 = stripLowMask(N.Args[1], M);
    if (A0 != N.Args[0] || A1 != N.Args[1])
      return makeOp(N.Tag, N.A, N.B, {A0, A1});
  }
  return Id;
}

//===----------------------------------------------------------------------===//
// renderNode
//===----------------------------------------------------------------------===//

namespace {

const char *tagName(SymTag Tag) {
  switch (Tag) {
  case SymTag::None: return "none";
  case SymTag::Add: return "add";
  case SymTag::Sub: return "sub";
  case SymTag::Mul: return "mul";
  case SymTag::MulHiU: return "mulhiu";
  case SymTag::MulHiS: return "mulhis";
  case SymTag::DivQ: return "divq";
  case SymTag::DivR: return "divr";
  case SymTag::IDivQ: return "idivq";
  case SymTag::IDivR: return "idivr";
  case SymTag::And: return "and";
  case SymTag::Or: return "or";
  case SymTag::Xor: return "xor";
  case SymTag::Not: return "not";
  case SymTag::Neg: return "neg";
  case SymTag::Shl: return "shl";
  case SymTag::Shr: return "shr";
  case SymTag::Sar: return "sar";
  case SymTag::Rol: return "rol";
  case SymTag::Ror: return "ror";
  case SymTag::Bswap: return "bswap";
  case SymTag::SExt: return "sext";
  case SymTag::Select: return "select";
  case SymTag::Load: return "load";
  case SymTag::EqZero: return "eqz";
  case SymTag::SignBit: return "sign";
  case SymTag::Par8: return "par8";
  case SymTag::FlagFn: return "flagfn";
  case SymTag::FAdd32: return "fadd32";
  case SymTag::FSub32: return "fsub32";
  case SymTag::FMul32: return "fmul32";
  case SymTag::FDiv32: return "fdiv32";
  case SymTag::FAdd64: return "fadd64";
  case SymTag::FSub64: return "fsub64";
  case SymTag::FMul64: return "fmul64";
  case SymTag::FDiv64: return "fdiv64";
  }
  return "?";
}

void renderRec(const SymTable &T, NodeId Id, std::ostringstream &Out,
               unsigned Depth) {
  const SymNode &N = T.node(Id);
  if (Depth > 6) {
    Out << "#" << Id;
    return;
  }
  switch (N.Kind) {
  case SymKind::Const:
    Out << "0x" << std::hex << N.Value << std::dec;
    return;
  case SymKind::InitReg:
    Out << "reg" << N.A;
    return;
  case SymKind::InitFlag:
    Out << "flag" << N.A;
    return;
  case SymKind::SymAddr:
    Out << "&" << N.Aux;
    if (N.Value)
      Out << "+" << static_cast<int64_t>(N.Value);
    return;
  case SymKind::Unknown:
    Out << "?" << N.Aux << ":" << N.A << ":" << N.B;
    return;
  case SymKind::Op:
    Out << "(" << tagName(N.Tag);
    if (N.A)
      Out << "." << N.A;
    for (NodeId Arg : N.Args) {
      Out << " ";
      renderRec(T, Arg, Out, Depth + 1);
    }
    Out << ")";
    return;
  }
}

} // namespace

std::string mao::renderNode(const SymTable &T, NodeId Id) {
  std::ostringstream Out;
  renderRec(T, Id, Out, 0);
  return Out.str();
}

//===----------------------------------------------------------------------===//
// BlockEvaluator
//===----------------------------------------------------------------------===//

BlockEvaluator::BlockEvaluator(SymTable &Table) : T(Table) {
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    InitRegs[I] = T.makeInitReg(I);
  for (unsigned I = 0; I < NumStatusFlags; ++I)
    InitFlags[I] = T.makeInitFlag(I);
}

void BlockEvaluator::setInitialReg(unsigned DenseIndex, NodeId Value) {
  InitRegs[DenseIndex] = Value;
}

void BlockEvaluator::setInitialFlag(unsigned FlagPos, NodeId Value) {
  InitFlags[FlagPos] = Value;
}

namespace {

/// One in-flight block evaluation: mirrors Interp in sim/Emulator.cpp.
class Eval {
public:
  Eval(SymTable &T, const std::array<NodeId, NumDenseRegs> &Regs,
       const std::array<NodeId, NumStatusFlags> &Flags)
      : T(T), Regs(Regs), Flags(Flags) {}

  BlockSummary run(const std::vector<const Instruction *> &Insns);

private:
  // --- Node shorthands ------------------------------------------------------
  NodeId cst(uint64_t V) { return T.makeConst(V); }
  NodeId op(SymTag Tag, std::vector<NodeId> Args) {
    return T.makeOp(Tag, 0, 0, std::move(Args));
  }
  NodeId opW(SymTag Tag, uint32_t A, std::vector<NodeId> Args) {
    return T.makeOp(Tag, A, 0, std::move(Args));
  }
  NodeId truncTo(NodeId V, unsigned Bits) {
    return Bits >= 64 ? V : op(SymTag::And, {V, cst(onesMask(Bits))});
  }
  NodeId not01(NodeId V) { return op(SymTag::Xor, {V, cst(1)}); }

  // --- Register file --------------------------------------------------------
  NodeId readReg(Reg R) {
    unsigned D = denseRegIndex(R);
    NodeId Full = Regs[D];
    if (regIsXmm(R))
      return Full;
    if (regIsHighByte(R))
      return op(SymTag::And, {op(SymTag::Shr, {Full, cst(8)}), cst(0xff)});
    switch (regWidth(R)) {
    case Width::B:
      return truncTo(Full, 8);
    case Width::W:
      return truncTo(Full, 16);
    case Width::L:
      return truncTo(Full, 32);
    default:
      return Full;
    }
  }

  void writeReg(Reg R, NodeId V) {
    unsigned D = denseRegIndex(R);
    if (regIsXmm(R)) {
      Regs[D] = V;
      return;
    }
    NodeId Full = Regs[D];
    if (regIsHighByte(R)) {
      Regs[D] = op(SymTag::Or,
                   {op(SymTag::And, {Full, cst(~0xff00ULL)}),
                    op(SymTag::Shl, {truncTo(V, 8), cst(8)})});
      return;
    }
    switch (regWidth(R)) {
    case Width::B:
      Regs[D] = op(SymTag::Or,
                   {op(SymTag::And, {Full, cst(~0xffULL)}), truncTo(V, 8)});
      break;
    case Width::W:
      Regs[D] = op(SymTag::Or, {op(SymTag::And, {Full, cst(~0xffffULL)}),
                                truncTo(V, 16)});
      break;
    case Width::L:
      Regs[D] = truncTo(V, 32); // 32-bit writes zero-extend.
      break;
    default:
      Regs[D] = V;
      break;
    }
  }

  // --- Memory ---------------------------------------------------------------
  NodeId memAddr(const Operand &Op) {
    const MemRef &M = Op.Mem;
    NodeId A;
    if (Op.hasSymDisp())
      A = T.makeSymAddr(Op.Sym, Op.Imm);
    else if (M.isRipRelative())
      A = T.makeSymAddr("<rip>", Op.Imm);
    else
      A = cst(static_cast<uint64_t>(Op.Imm));
    if (M.Base != Reg::None && M.Base != Reg::RIP)
      A = op(SymTag::Add, {A, Regs[denseRegIndex(M.Base)]});
    if (M.Index != Reg::None) {
      NodeId Idx = Regs[denseRegIndex(M.Index)];
      if (M.Scale > 1)
        Idx = op(SymTag::Mul, {Idx, cst(M.Scale)});
      A = op(SymTag::Add, {A, Idx});
    }
    return A;
  }

  NodeId loadAt(NodeId Addr, unsigned Bytes) {
    if (LastStoreValid && LastStoreAddr == Addr && LastStoreBytes == Bytes)
      return LastStoreValue; // Exact store-to-load forwarding.
    return T.makeOp(SymTag::Load, Bytes, Epoch, {Addr});
  }

  void storeAt(NodeId Addr, NodeId V, unsigned Bytes) {
    NodeId Val = Bytes < 8 ? truncTo(V, Bytes * 8) : V;
    Sum.Stores.push_back({Addr, Val, static_cast<uint8_t>(Bytes)});
    ++Epoch;
    LastStoreValid = true;
    LastStoreAddr = Addr;
    LastStoreBytes = Bytes;
    LastStoreValue = Val;
  }

  void clobberMemory() {
    ++Epoch;
    LastStoreValid = false;
  }

  // --- Operand access (mirrors Interp::readOperand/writeOperand) ------------
  std::optional<NodeId> readOperand(const Operand &Op, Width W) {
    switch (Op.Kind) {
    case OperandKind::Immediate:
      if (!Op.Sym.empty())
        return truncTo(T.makeSymAddr(Op.Sym, Op.Imm), widthBytes(W) * 8);
      return cst(static_cast<uint64_t>(Op.Imm) & widthMask(W));
    case OperandKind::Register:
      return readReg(Op.R);
    case OperandKind::Memory:
      return loadAt(memAddr(Op), bytesOf(W));
    default:
      return std::nullopt;
    }
  }

  bool writeOperand(const Operand &Op, Width W, NodeId V) {
    if (Op.isReg()) {
      writeReg(Op.R, V);
      return true;
    }
    if (Op.isMem()) {
      storeAt(memAddr(Op), V, bytesOf(W));
      return true;
    }
    return false;
  }

  // --- Flags ----------------------------------------------------------------
  static unsigned flagPos(uint8_t Bit) {
    return static_cast<unsigned>(std::countr_zero(static_cast<unsigned>(Bit)));
  }

  void setFlag(uint8_t Bit, NodeId V) {
    Flags[flagPos(Bit)] = V;
    Touched |= Bit;
  }

  NodeId flagFn(uint8_t Bit, Mnemonic Mn, unsigned Bits,
                const std::vector<NodeId> &Args) {
    return T.makeOp(SymTag::FlagFn, flagPos(Bit),
                    static_cast<uint32_t>(Mn) | (Bits << 16), Args);
  }

  /// ZF/SF/PF from a width-truncated result (Interp::setResultFlags).
  void setResultFlags(NodeId TruncR, unsigned Bits) {
    setFlag(FlagZF, op(SymTag::EqZero, {TruncR}));
    setFlag(FlagSF, opW(SymTag::SignBit, Bits, {TruncR}));
    setFlag(FlagPF, op(SymTag::Par8, {TruncR}));
  }

  /// CF/OF/AF (+result flags) of an addition/subtraction with carry-in.
  void setArithFlags(Mnemonic Mn, NodeId A, NodeId B, NodeId Carry,
                     unsigned Bits, bool WithCF) {
    std::vector<NodeId> Args = {A, B, Carry};
    if (WithCF)
      setFlag(FlagCF, flagFn(FlagCF, Mn, Bits, Args));
    setFlag(FlagOF, flagFn(FlagOF, Mn, Bits, Args));
    setFlag(FlagAF, flagFn(FlagAF, Mn, Bits, Args));
  }

  void setLogicFlags(NodeId TruncR, unsigned Bits) {
    setFlag(FlagCF, cst(0));
    setFlag(FlagOF, cst(0));
    setFlag(FlagAF, cst(0));
    setResultFlags(TruncR, Bits);
  }

  NodeId condNode(CondCode CC) {
    NodeId CF = Flags[flagPos(FlagCF)], ZF = Flags[flagPos(FlagZF)],
           SF = Flags[flagPos(FlagSF)], OF = Flags[flagPos(FlagOF)],
           PF = Flags[flagPos(FlagPF)];
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

  bool translate(const Instruction &Insn, std::string &Why);
  void clobberForCall(const Instruction &Insn);
  void clobberForOpaque(const Instruction &Insn);

  SymTable &T;
  BlockSummary Sum;
  std::array<NodeId, NumDenseRegs> Regs;
  std::array<NodeId, NumStatusFlags> Flags;
  uint32_t Epoch = 0;
  unsigned CallOrdinal = 0;
  unsigned OpaqueOrdinal = 0;
  bool LastStoreValid = false;
  NodeId LastStoreAddr = 0;
  NodeId LastStoreValue = 0;
  unsigned LastStoreBytes = 0;
  /// Flags written by the current instruction's precise model; table-declared
  /// definitions not in this set become opaque FlagFn clobbers.
  uint8_t Touched = 0;
  /// When set, skip the table-declared flag clobber entirely (shift with a
  /// constant zero count: the emulator leaves flags untouched).
  bool SuppressTableFlags = false;
  /// Per-instruction operand inputs, used as the FlagFn argument vector for
  /// table-declared-but-emulator-undefined flags.
  std::vector<NodeId> FlagArgs;
};

void Eval::clobberForCall(const Instruction &Insn) {
  CallEvent Ev;
  if (Insn.hasIndirectTarget()) {
    Ev.Indirect = true;
    auto V = readOperand(Insn.Ops[0], Width::Q);
    Ev.IndirectTarget = V ? *V : cst(0);
    Ev.Target = "*";
  } else {
    Ev.Target = Insn.Ops[0].Sym;
  }
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    if (CallUsedMask & (1u << I))
      Ev.Args.emplace_back(static_cast<uint8_t>(I), Regs[I]);
  Sum.Calls.push_back(std::move(Ev));

  const std::string Key = "call:" + Sum.Calls.back().Target;
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    if (CallClobberedMask & (1u << I))
      Regs[I] = T.makeUnknown(Key, CallOrdinal, I);
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    Flags[F] = T.makeUnknown(Key, CallOrdinal, 100 + F);
  clobberMemory();
  ++CallOrdinal;
}

void Eval::clobberForOpaque(const Instruction &Insn) {
  OpaqueEvent Ev;
  Ev.Text = Insn.rawText();
  Ev.RegState.assign(Regs.begin(), Regs.end());
  Ev.FlagState.assign(Flags.begin(), Flags.end());
  Sum.Opaques.push_back(std::move(Ev));

  const std::string Key = "opq:" + Insn.rawText();
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    Regs[I] = T.makeUnknown(Key, OpaqueOrdinal, I);
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    Flags[F] = T.makeUnknown(Key, OpaqueOrdinal, 100 + F);
  clobberMemory();
  ++OpaqueOrdinal;
}

bool Eval::translate(const Instruction &Insn, std::string &Why) {
  const Width W = Insn.W;
  const unsigned Bits = bytesOf(W) * 8;
  switch (Insn.info().Kind) {
  case EncKind::Nop:
  case EncKind::Prefetch:
    return true;

  case EncKind::Mov: {
    auto V = readOperand(Insn.Ops[0], W);
    if (!V || !writeOperand(Insn.Ops[1], W, *V)) {
      Why = "mov operand: " + Insn.toString();
      return false;
    }
    return true;
  }

  case EncKind::Movx: {
    auto V = readOperand(Insn.Ops[0], Insn.SrcW);
    if (!V) {
      Why = "movx source: " + Insn.toString();
      return false;
    }
    unsigned SrcBits = widthBytes(Insn.SrcW) * 8;
    NodeId Value = Insn.Mn == Mnemonic::MOVZX
                       ? *V
                       : opW(SymTag::SExt, SrcBits, {*V});
    return writeOperand(Insn.Ops[1], W, truncTo(Value, Bits));
  }

  case EncKind::Lea:
    return writeOperand(Insn.Ops[1], W,
                        truncTo(memAddr(Insn.Ops[0]), Bits));

  case EncKind::AluRMI: {
    auto A = readOperand(Insn.Ops[1], W); // dest (first ALU input)
    auto B = readOperand(Insn.Ops[0], W); // src
    if (!A || !B) {
      Why = "ALU operand: " + Insn.toString();
      return false;
    }
    FlagArgs = {*A, *B};
    NodeId R = 0;
    switch (Insn.Mn) {
    case Mnemonic::ADD:
      setArithFlags(Mnemonic::ADD, *A, *B, cst(0), Bits, true);
      R = op(SymTag::Add, {*A, *B});
      break;
    case Mnemonic::ADC: {
      NodeId C = Flags[flagPos(FlagCF)];
      setArithFlags(Mnemonic::ADC, *A, *B, C, Bits, true);
      R = op(SymTag::Add, {op(SymTag::Add, {*A, *B}), C});
      break;
    }
    case Mnemonic::SUB:
    case Mnemonic::CMP:
      setArithFlags(Mnemonic::SUB, *A, *B, cst(0), Bits, true);
      R = op(SymTag::Sub, {*A, *B});
      break;
    case Mnemonic::SBB: {
      NodeId C = Flags[flagPos(FlagCF)];
      setArithFlags(Mnemonic::SBB, *A, *B, C, Bits, true);
      R = op(SymTag::Sub, {op(SymTag::Sub, {*A, *B}), C});
      break;
    }
    case Mnemonic::AND:
      R = op(SymTag::And, {*A, *B});
      setLogicFlags(truncTo(R, Bits), Bits);
      break;
    case Mnemonic::OR:
      R = op(SymTag::Or, {*A, *B});
      setLogicFlags(truncTo(R, Bits), Bits);
      break;
    case Mnemonic::XOR:
      R = op(SymTag::Xor, {*A, *B});
      setLogicFlags(truncTo(R, Bits), Bits);
      break;
    default:
      Why = "unexpected ALU mnemonic";
      return false;
    }
    if (Insn.Mn != Mnemonic::AND && Insn.Mn != Mnemonic::OR &&
        Insn.Mn != Mnemonic::XOR)
      setResultFlags(truncTo(R, Bits), Bits);
    if (Insn.Mn != Mnemonic::CMP)
      writeOperand(Insn.Ops[1], W, truncTo(R, Bits));
    return true;
  }

  case EncKind::Test: {
    auto A = readOperand(Insn.Ops[1], W);
    auto B = readOperand(Insn.Ops[0], W);
    if (!A || !B) {
      Why = "test operand";
      return false;
    }
    FlagArgs = {*A, *B};
    setLogicFlags(truncTo(op(SymTag::And, {*A, *B}), Bits), Bits);
    return true;
  }

  case EncKind::UnaryRM: {
    auto V = readOperand(Insn.Ops[0], W);
    if (!V) {
      Why = "unary operand";
      return false;
    }
    FlagArgs = {*V};
    switch (Insn.Mn) {
    case Mnemonic::NOT:
      return writeOperand(Insn.Ops[0], W, truncTo(op(SymTag::Not, {*V}), Bits));
    case Mnemonic::NEG:
      // Emulator: flagsSub(0, V) with an explicit CF = V != 0 — which is
      // exactly flagsSub's CF, so the generic SUB flag function is precise
      // (and makes neg equivalent to a sub-from-zero rewrite).
      setArithFlags(Mnemonic::SUB, cst(0), *V, cst(0), Bits, true);
      setResultFlags(truncTo(op(SymTag::Neg, {*V}), Bits), Bits);
      return writeOperand(Insn.Ops[0], W, truncTo(op(SymTag::Neg, {*V}), Bits));
    case Mnemonic::INC:
      // inc == add $1 except CF is preserved; sharing the ADD flag
      // functions makes inc/add rewrites provable.
      setArithFlags(Mnemonic::ADD, *V, cst(1), cst(0), Bits, false);
      setResultFlags(truncTo(op(SymTag::Add, {*V, cst(1)}), Bits), Bits);
      return writeOperand(Insn.Ops[0], W,
                          truncTo(op(SymTag::Add, {*V, cst(1)}), Bits));
    case Mnemonic::DEC:
      setArithFlags(Mnemonic::SUB, *V, cst(1), cst(0), Bits, false);
      setResultFlags(truncTo(op(SymTag::Sub, {*V, cst(1)}), Bits), Bits);
      return writeOperand(Insn.Ops[0], W,
                          truncTo(op(SymTag::Sub, {*V, cst(1)}), Bits));
    case Mnemonic::MUL: {
      NodeId A = readReg(gprWithWidth(Reg::RAX, W));
      FlagArgs = {A, *V};
      NodeId Lo = truncTo(op(SymTag::Mul, {A, *V}), Bits);
      NodeId Hi = opW(SymTag::MulHiU, Bits, {A, *V});
      writeReg(gprWithWidth(Reg::RAX, W), Lo);
      writeReg(gprWithWidth(Reg::RDX, W), Hi);
      NodeId HiNonZero = not01(op(SymTag::EqZero, {Hi}));
      setFlag(FlagCF, HiNonZero);
      setFlag(FlagOF, HiNonZero);
      return true;
    }
    case Mnemonic::DIV: {
      NodeId Hi = readReg(gprWithWidth(Reg::RDX, W));
      NodeId Lo = readReg(gprWithWidth(Reg::RAX, W));
      FlagArgs = {Hi, Lo, *V};
      writeReg(gprWithWidth(Reg::RAX, W), opW(SymTag::DivQ, Bits, {Hi, Lo, *V}));
      writeReg(gprWithWidth(Reg::RDX, W), opW(SymTag::DivR, Bits, {Hi, Lo, *V}));
      return true;
    }
    case Mnemonic::IDIV: {
      NodeId Hi = readReg(gprWithWidth(Reg::RDX, W));
      NodeId Lo = readReg(gprWithWidth(Reg::RAX, W));
      FlagArgs = {Hi, Lo, *V};
      writeReg(gprWithWidth(Reg::RAX, W),
               opW(SymTag::IDivQ, Bits, {Hi, Lo, *V}));
      writeReg(gprWithWidth(Reg::RDX, W),
               opW(SymTag::IDivR, Bits, {Hi, Lo, *V}));
      return true;
    }
    default:
      Why = "unexpected unary mnemonic";
      return false;
    }
  }

  case EncKind::ImulMulti: {
    if (Insn.Ops.size() == 1) {
      auto V = readOperand(Insn.Ops[0], W);
      if (!V) {
        Why = "imul operand";
        return false;
      }
      NodeId A = readReg(gprWithWidth(Reg::RAX, W));
      FlagArgs = {A, *V};
      writeReg(gprWithWidth(Reg::RAX, W), truncTo(op(SymTag::Mul, {A, *V}), Bits));
      writeReg(gprWithWidth(Reg::RDX, W), opW(SymTag::MulHiS, Bits, {A, *V}));
      setFlag(FlagCF, flagFn(FlagCF, Mnemonic::IMUL, Bits, {A, *V}));
      setFlag(FlagOF, flagFn(FlagOF, Mnemonic::IMUL, Bits, {A, *V}));
      return true;
    }
    std::optional<NodeId> A, B;
    const Operand *DstOp;
    if (Insn.Ops.size() == 2) {
      A = readOperand(Insn.Ops[0], W);
      B = readOperand(Insn.Ops[1], W);
      DstOp = &Insn.Ops[1];
    } else {
      A = readOperand(Insn.Ops[0], W); // immediate
      B = readOperand(Insn.Ops[1], W);
      DstOp = &Insn.Ops[2];
    }
    if (!A || !B) {
      Why = "imul operand";
      return false;
    }
    FlagArgs = {*A, *B};
    NodeId R = truncTo(op(SymTag::Mul, {*A, *B}), Bits);
    setFlag(FlagCF, flagFn(FlagCF, Mnemonic::IMUL, Bits, {*A, *B}));
    setFlag(FlagOF, flagFn(FlagOF, Mnemonic::IMUL, Bits, {*A, *B}));
    setResultFlags(R, Bits);
    return writeOperand(*DstOp, W, R);
  }

  case EncKind::ShiftRot: {
    const Operand &Target = Insn.Ops.back();
    auto V = readOperand(Target, W);
    if (!V) {
      Why = "shift operand";
      return false;
    }
    NodeId Count;
    bool CountIsConstZero = false;
    const uint64_t CountMask = (W == Width::Q) ? 63 : 31;
    if (Insn.Ops.size() == 2) {
      if (Insn.Ops[0].isReg()) {
        Count = op(SymTag::And, {readReg(Reg::CL), cst(CountMask)});
      } else {
        uint64_t C = static_cast<uint64_t>(Insn.Ops[0].Imm) & CountMask;
        Count = cst(C);
        CountIsConstZero = C == 0;
      }
    } else {
      Count = cst(1);
    }
    if (CountIsConstZero) {
      SuppressTableFlags = true; // Emulator: no write, flags unchanged.
      return true;
    }
    FlagArgs = {*V, Count};
    SymTag ValTag;
    switch (Insn.Mn) {
    case Mnemonic::SHL:
      ValTag = SymTag::Shl;
      break;
    case Mnemonic::SHR:
      ValTag = SymTag::Shr;
      break;
    case Mnemonic::SAR:
      ValTag = SymTag::Sar;
      break;
    case Mnemonic::ROL:
      ValTag = SymTag::Rol;
      break;
    case Mnemonic::ROR:
      ValTag = SymTag::Ror;
      break;
    default:
      Why = "unexpected shift mnemonic";
      return false;
    }
    NodeId R = truncTo(opW(ValTag, Bits, {*V, Count}), Bits);
    // Precisely modelled flags; the rest (AF always, and all-but-CF for
    // rotates) fall through to the table-declared opaque clobber.
    if (Insn.Mn == Mnemonic::SHL || Insn.Mn == Mnemonic::SHR ||
        Insn.Mn == Mnemonic::SAR) {
      setFlag(FlagCF, flagFn(FlagCF, Insn.Mn, Bits, {*V, Count}));
      setFlag(FlagOF, flagFn(FlagOF, Insn.Mn, Bits, {*V, Count}));
      setResultFlags(R, Bits);
    } else {
      setFlag(FlagCF, flagFn(FlagCF, Insn.Mn, Bits, {*V, Count}));
    }
    return writeOperand(Target, W, R);
  }

  case EncKind::Push: {
    auto V = readOperand(Insn.Ops[0], Width::Q);
    if (!V) {
      Why = "push operand";
      return false;
    }
    NodeId Rsp = op(SymTag::Add, {Regs[denseRegIndex(Reg::RSP)],
                                  cst(static_cast<uint64_t>(-8))});
    Regs[denseRegIndex(Reg::RSP)] = Rsp;
    storeAt(Rsp, *V, 8);
    return true;
  }
  case EncKind::Pop: {
    NodeId Rsp = Regs[denseRegIndex(Reg::RSP)];
    NodeId V = loadAt(Rsp, 8);
    Regs[denseRegIndex(Reg::RSP)] = op(SymTag::Add, {Rsp, cst(8)});
    return writeOperand(Insn.Ops[0], Width::Q, V);
  }

  case EncKind::Xchg: {
    auto A = readOperand(Insn.Ops[0], W);
    auto B = readOperand(Insn.Ops[1], W);
    if (!A || !B) {
      Why = "xchg operand";
      return false;
    }
    writeOperand(Insn.Ops[0], W, *B);
    writeOperand(Insn.Ops[1], W, *A);
    return true;
  }

  case EncKind::Bswap: {
    NodeId V = readReg(Insn.Ops[0].R);
    writeReg(Insn.Ops[0].R, opW(SymTag::Bswap, Bits, {V}));
    return true;
  }

  case EncKind::Setcc:
    return writeOperand(Insn.Ops[0], Width::B, condNode(Insn.CC));

  case EncKind::Cmovcc: {
    auto Src = readOperand(Insn.Ops[0], W);
    auto Dst = readOperand(Insn.Ops[1], W);
    if (!Src || !Dst) {
      Why = "cmov operand";
      return false;
    }
    // Uniform model: dst = cond ? src : dst, rewritten at the destination's
    // width — this matches the emulator including the not-taken 32-bit
    // zero-extension quirk.
    return writeOperand(Insn.Ops[1], W,
                        op(SymTag::Select, {condNode(Insn.CC), *Src, *Dst}));
  }

  case EncKind::Fixed:
    switch (Insn.Mn) {
    case Mnemonic::CLTQ:
      Regs[denseRegIndex(Reg::RAX)] =
          opW(SymTag::SExt, 32, {Regs[denseRegIndex(Reg::RAX)]});
      return true;
    case Mnemonic::CWTL:
      writeReg(Reg::EAX, truncTo(opW(SymTag::SExt, 16, {readReg(Reg::AX)}), 32));
      return true;
    case Mnemonic::CBTW:
      writeReg(Reg::AX, truncTo(opW(SymTag::SExt, 8, {readReg(Reg::AL)}), 16));
      return true;
    case Mnemonic::CLTD:
      writeReg(Reg::EDX,
               op(SymTag::Select,
                  {opW(SymTag::SignBit, 32, {readReg(Reg::EAX)}),
                   cst(0xffffffffULL), cst(0)}));
      return true;
    case Mnemonic::CQTO:
      Regs[denseRegIndex(Reg::RDX)] =
          op(SymTag::Select,
             {opW(SymTag::SignBit, 64, {Regs[denseRegIndex(Reg::RAX)]}),
              cst(~0ULL), cst(0)});
      return true;
    case Mnemonic::LEAVE: {
      NodeId Rbp = Regs[denseRegIndex(Reg::RBP)];
      Regs[denseRegIndex(Reg::RBP)] = loadAt(Rbp, 8);
      Regs[denseRegIndex(Reg::RSP)] = op(SymTag::Add, {Rbp, cst(8)});
      return true;
    }
    case Mnemonic::CPUID:
      Regs[denseRegIndex(Reg::RAX)] = cst(0);
      Regs[denseRegIndex(Reg::RBX)] = cst(0);
      Regs[denseRegIndex(Reg::RCX)] = cst(0);
      Regs[denseRegIndex(Reg::RDX)] = cst(0);
      return true;
    case Mnemonic::RDTSC:
      writeReg(Reg::EAX, cst(0));
      writeReg(Reg::EDX, cst(0));
      return true;
    default:
      Why = "unmodelled fixed instruction: " + Insn.toString();
      return false;
    }

  case EncKind::SseMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    unsigned Bytes = Insn.Mn == Mnemonic::MOVSS ? 4 : 8;
    NodeId V;
    if (Src.isReg() && regIsXmm(Src.R)) {
      V = Regs[denseRegIndex(Src.R)];
    } else if (Src.isMem()) {
      V = loadAt(memAddr(Src), Bytes);
    } else {
      Why = "SSE move source";
      return false;
    }
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      // The emulator copies all 64 modelled bits even for movss; mirror it.
      Regs[denseRegIndex(Dst.R)] = V;
      return true;
    }
    if (Dst.isMem()) {
      storeAt(memAddr(Dst), V, Bytes);
      return true;
    }
    Why = "SSE move destination";
    return false;
  }

  case EncKind::SseCvtMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    const bool IsMovd = Insn.Mn == Mnemonic::MOVD;
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      std::optional<NodeId> V;
      if (Src.isReg())
        V = readReg(Src.R);
      else
        V = readOperand(Src, Width::Q);
      if (!V) {
        Why = "movq/movd source";
        return false;
      }
      Regs[denseRegIndex(Dst.R)] = IsMovd ? truncTo(*V, 32) : *V;
      return true;
    }
    if (Src.isReg() && regIsXmm(Src.R)) {
      NodeId V = Regs[denseRegIndex(Src.R)];
      if (IsMovd)
        V = truncTo(V, 32);
      if (Dst.isReg()) {
        writeReg(Dst.R, V);
        return true;
      }
      if (Dst.isMem()) {
        storeAt(memAddr(Dst), V, IsMovd ? 4 : 8);
        return true;
      }
    }
    Why = "unsupported movd/movq form";
    return false;
  }

  case EncKind::SseAlu: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    if (!Dst.isReg() || !regIsXmm(Dst.R)) {
      Why = "SSE ALU needs xmm destination";
      return false;
    }
    NodeId SrcBits;
    if (Src.isReg() && regIsXmm(Src.R)) {
      SrcBits = Regs[denseRegIndex(Src.R)];
    } else if (Src.isMem()) {
      SrcBits = loadAt(memAddr(Src), 8);
    } else {
      Why = "SSE ALU source";
      return false;
    }
    NodeId &DstBits = Regs[denseRegIndex(Dst.R)];
    FlagArgs = {DstBits, SrcBits};
    auto Scalar32 = [&](SymTag Tag) {
      DstBits = op(SymTag::Or, {op(SymTag::And, {DstBits, cst(~0xffffffffULL)}),
                                op(Tag, {DstBits, SrcBits})});
    };
    switch (Insn.Mn) {
    case Mnemonic::ADDSS:
      Scalar32(SymTag::FAdd32);
      return true;
    case Mnemonic::SUBSS:
      Scalar32(SymTag::FSub32);
      return true;
    case Mnemonic::MULSS:
      Scalar32(SymTag::FMul32);
      return true;
    case Mnemonic::DIVSS:
      Scalar32(SymTag::FDiv32);
      return true;
    case Mnemonic::ADDSD:
      DstBits = op(SymTag::FAdd64, {DstBits, SrcBits});
      return true;
    case Mnemonic::SUBSD:
      DstBits = op(SymTag::FSub64, {DstBits, SrcBits});
      return true;
    case Mnemonic::MULSD:
      DstBits = op(SymTag::FMul64, {DstBits, SrcBits});
      return true;
    case Mnemonic::DIVSD:
      DstBits = op(SymTag::FDiv64, {DstBits, SrcBits});
      return true;
    case Mnemonic::XORPS:
    case Mnemonic::PXOR:
      DstBits = op(SymTag::Xor, {DstBits, SrcBits});
      return true;
    case Mnemonic::UCOMISS:
    case Mnemonic::UCOMISD:
      setFlag(FlagOF, cst(0));
      setFlag(FlagAF, cst(0));
      setFlag(FlagSF, cst(0));
      setFlag(FlagZF, flagFn(FlagZF, Insn.Mn, 0, {FlagArgs[0], FlagArgs[1]}));
      setFlag(FlagCF, flagFn(FlagCF, Insn.Mn, 0, {FlagArgs[0], FlagArgs[1]}));
      setFlag(FlagPF, flagFn(FlagPF, Insn.Mn, 0, {FlagArgs[0], FlagArgs[1]}));
      return true;
    default:
      Why = "unmodelled SSE ALU op: " + Insn.toString();
      return false;
    }
  }

  case EncKind::Jmp:
  case EncKind::Jcc:
  case EncKind::Call:
  case EncKind::Ret:
  case EncKind::Opaque:
    assert(false && "control flow handled by the run loop");
    return false;
  }
  Why = "unmodelled instruction: " + Insn.toString();
  return false;
}

BlockSummary Eval::run(const std::vector<const Instruction *> &Insns) {
  for (const Instruction *InsnP : Insns) {
    const Instruction &Insn = *InsnP;
    if (Insn.info().Kind == EncKind::Nop ||
        Insn.info().Kind == EncKind::Prefetch)
      continue;

    if (Insn.isCall()) {
      clobberForCall(Insn);
      continue;
    }
    if (Insn.isReturn()) {
      Sum.Term.Kind = TermKind::Return;
      for (unsigned I = 0; I < NumDenseRegs; ++I)
        if (RetUsedMask & (1u << I))
          Sum.Term.RetValues.emplace_back(static_cast<uint8_t>(I), Regs[I]);
      break;
    }
    if (Insn.isUncondJump()) {
      if (Insn.hasIndirectTarget()) {
        Sum.Term.Kind = TermKind::IndirectJump;
        auto V = readOperand(Insn.Ops[0], Width::Q);
        Sum.Term.Target = V ? *V : T.makeConst(0);
      } else {
        Sum.Term.Kind = TermKind::Jump;
        Sum.Term.TargetLabel = Insn.Ops[0].Sym;
      }
      break;
    }
    if (Insn.isCondJump()) {
      Sum.Term.Kind = TermKind::CondJump;
      Sum.Term.Cond = condNode(Insn.CC);
      Sum.Term.TargetLabel = Insn.Ops[0].Sym;
      break;
    }
    if (Insn.isOpaque()) {
      clobberForOpaque(Insn);
      continue;
    }

    Touched = 0;
    SuppressTableFlags = false;
    FlagArgs.clear();
    std::string Why;
    if (!translate(Insn, Why)) {
      Sum.Supported = false;
      Sum.UnsupportedWhy = Why;
      break;
    }
    // Table-declared flag definitions the precise model did not cover become
    // opaque deterministic functions of the instruction's inputs. This
    // mirrors what Dataflow liveness assumes (the table is the contract),
    // so passes exploiting a table-declared clobber still validate.
    if (!SuppressTableFlags) {
      uint8_t Remaining =
          Insn.effects().FlagsDef & FlagsAllStatus & ~Touched;
      for (unsigned F = 0; F < NumStatusFlags; ++F)
        if (Remaining & (1u << F))
          Flags[F] = T.makeOp(SymTag::FlagFn, F,
                              static_cast<uint32_t>(Insn.Mn) |
                                  (bytesOf(Insn.W) * 8 << 16),
                              FlagArgs);
    }
  }

  Sum.Regs = Regs;
  Sum.Flags = Flags;
  return Sum;
}

} // namespace

BlockSummary
BlockEvaluator::evaluate(const std::vector<const Instruction *> &Insns) {
  Eval E(T, InitRegs, InitFlags);
  return E.run(Insns);
}
