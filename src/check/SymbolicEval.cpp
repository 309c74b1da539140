//===- check/SymbolicEval.cpp - Symbolic per-block evaluator -----------------==//

#include "check/SymbolicEval.h"

#include "x86/Opcodes.h"
#include "x86/Registers.h"

#include <optional>
#include <sstream>

using namespace mao;

namespace {

/// True for masks of the form 00..011..1 (at least one low bit set).
bool isLowOnesMask(uint64_t M) { return M != 0 && ((M + 1) & M) == 0; }

} // namespace

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

} // namespace

NodeId SymTable::makeOp(SymTag Tag, uint32_t A, uint32_t B,
                        std::vector<NodeId> Args) {
  // Constant folding first, through the emulator's own evaluation.
  uint64_t Vals[3];
  bool AllConst = !Args.empty() && Args.size() <= 3;
  for (size_t I = 0; AllConst && I < Args.size(); ++I) {
    AllConst = Nodes[Args[I]].isConst();
    Vals[I] = Nodes[Args[I]].Value;
  }
  if (AllConst)
    if (std::optional<uint64_t> R = evalOp(Tag, A, B, Vals, Args.size()))
      return makeConst(*R);

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
    // A copy: the recursion interns nodes, which may move Nodes.
    const SymNode Op = N;
    NodeId A0 = stripLowMask(Op.Args[0], M);
    NodeId A1 = stripLowMask(Op.Args[1], M);
    if (A0 != Op.Args[0] || A1 != Op.Args[1])
      return makeOp(Op.Tag, Op.A, Op.B, {A0, A1});
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

/// The symbolic value domain Interpreter runs over for one block: registers
/// and flags hold NodeIds, stores become events, loads epoch-tagged nodes.
class SymbolicDomain {
public:
  using Value = NodeId;

  SymbolicDomain(SymTable &T, const std::array<NodeId, NumDenseRegs> &Regs,
                 const std::array<NodeId, NumStatusFlags> &Flags)
      : T(T), Regs(Regs), Flags(Flags) {}

  NodeId cst(uint64_t V) { return T.makeConst(V); }
  NodeId op(SymTag Tag, uint32_t A, std::initializer_list<NodeId> Args) {
    return T.makeOp(Tag, A, 0, Args);
  }
  std::optional<uint64_t> constant(NodeId Id) const {
    const SymNode &N = T.node(Id);
    return N.isConst() ? std::optional<uint64_t>(N.Value) : std::nullopt;
  }

  NodeId reg(unsigned Dense) const { return Regs[Dense]; }
  void setReg(unsigned Dense, NodeId V) { Regs[Dense] = V; }
  NodeId flag(uint8_t Flag) const { return Flags[flagPos(Flag)]; }
  void setFlag(uint8_t Flag, NodeId V) { Flags[flagPos(Flag)] = V; }

  NodeId flagFn(uint8_t Flag, Mnemonic Mn, unsigned Bits,
                std::initializer_list<NodeId> Args) {
    return T.makeOp(SymTag::FlagFn, flagPos(Flag),
                    static_cast<uint32_t>(Mn) | (Bits << 16), Args);
  }
  /// An undefined flag is an opaque function of the instruction's inputs,
  /// so a pass relying on the table's clobber still validates.
  template <class Fn>
  NodeId undefinedFlag(uint8_t Flag, Mnemonic Mn, unsigned Bits,
                       std::initializer_list<NodeId> Args, Fn &&) {
    return flagFn(Flag, Mn, Bits, Args);
  }

  std::optional<NodeId> symbol(const Operand &Op) {
    return T.makeSymAddr(Op.Sym.empty() ? "<rip>" : Op.Sym, Op.Imm);
  }

  NodeId load(NodeId Addr, unsigned Bytes) {
    if (LastStoreValid && LastStoreAddr == Addr && LastStoreBytes == Bytes)
      return LastStoreValue; // Exact store-to-load forwarding.
    return T.makeOp(SymTag::Load, Bytes, Epoch, {Addr});
  }

  void store(NodeId Addr, NodeId V, unsigned Bytes) {
    NodeId Val = Bytes < 8 ? T.makeOp(SymTag::And, 0, 0,
                                      {V, cst(onesMask(Bytes * 8))})
                           : V;
    Stores.push_back({Addr, Val, static_cast<uint8_t>(Bytes)});
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

  SymTable &T;
  std::array<NodeId, NumDenseRegs> Regs;
  std::array<NodeId, NumStatusFlags> Flags;
  std::vector<StoreEvent> Stores;

private:
  uint32_t Epoch = 0;
  bool LastStoreValid = false;
  NodeId LastStoreAddr = 0;
  NodeId LastStoreValue = 0;
  unsigned LastStoreBytes = 0;
};

/// One block evaluation: the shared interpreter for data instructions,
/// summaries for calls, opaque instructions and the terminator.
class Eval {
public:
  Eval(SymTable &T, const std::array<NodeId, NumDenseRegs> &Regs,
       const std::array<NodeId, NumStatusFlags> &Flags)
      : Dom(T, Regs, Flags), Interp(Dom) {}

  BlockSummary run(const std::vector<const Instruction *> &Insns);

private:
  void clobberForCall(const Instruction &Insn);
  void clobberForOpaque(const Instruction &Insn);
  NodeId target(const Instruction &Insn) {
    std::optional<NodeId> V = Interp.readOperand(Insn.Ops[0], Width::Q);
    return V ? *V : Dom.cst(0);
  }

  SymbolicDomain Dom;
  Interpreter<SymbolicDomain> Interp;
  BlockSummary Sum;
  unsigned CallOrdinal = 0;
  unsigned OpaqueOrdinal = 0;
};

void Eval::clobberForCall(const Instruction &Insn) {
  CallEvent Ev;
  Ev.Indirect = Insn.hasIndirectTarget();
  if (Ev.Indirect)
    Ev.IndirectTarget = target(Insn);
  Ev.Target = Ev.Indirect ? std::string("*") : Insn.Ops[0].Sym;
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    if (CallUsedMask & (1u << I))
      Ev.Args.emplace_back(static_cast<uint8_t>(I), Dom.Regs[I]);
  Sum.Calls.push_back(std::move(Ev));

  const std::string Key = "call:" + Sum.Calls.back().Target;
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    if (CallClobberedMask & (1u << I))
      Dom.Regs[I] = Dom.T.makeUnknown(Key, CallOrdinal, I);
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    Dom.Flags[F] = Dom.T.makeUnknown(Key, CallOrdinal, 100 + F);
  Dom.clobberMemory();
  ++CallOrdinal;
}

void Eval::clobberForOpaque(const Instruction &Insn) {
  OpaqueEvent Ev;
  Ev.Text = Insn.rawText();
  Ev.RegState.assign(Dom.Regs.begin(), Dom.Regs.end());
  Ev.FlagState.assign(Dom.Flags.begin(), Dom.Flags.end());
  Sum.Opaques.push_back(std::move(Ev));

  const std::string Key = "opq:" + Insn.rawText();
  for (unsigned I = 0; I < NumDenseRegs; ++I)
    Dom.Regs[I] = Dom.T.makeUnknown(Key, OpaqueOrdinal, I);
  for (unsigned F = 0; F < NumStatusFlags; ++F)
    Dom.Flags[F] = Dom.T.makeUnknown(Key, OpaqueOrdinal, 100 + F);
  Dom.clobberMemory();
  ++OpaqueOrdinal;
}

BlockSummary Eval::run(const std::vector<const Instruction *> &Insns) {
  for (const Instruction *InsnP : Insns) {
    const Instruction &Insn = *InsnP;
    if (Insn.isCall()) {
      clobberForCall(Insn);
      continue;
    }
    if (Insn.isReturn()) {
      Sum.Term.Kind = TermKind::Return;
      for (unsigned I = 0; I < NumDenseRegs; ++I)
        if (RetUsedMask & (1u << I))
          Sum.Term.RetValues.emplace_back(static_cast<uint8_t>(I),
                                          Dom.Regs[I]);
      break;
    }
    if (Insn.isUncondJump()) {
      if (Insn.hasIndirectTarget()) {
        Sum.Term.Kind = TermKind::IndirectJump;
        Sum.Term.Target = target(Insn);
      } else {
        Sum.Term.Kind = TermKind::Jump;
        Sum.Term.TargetLabel = Insn.Ops[0].Sym;
      }
      break;
    }
    if (Insn.isCondJump()) {
      Sum.Term.Kind = TermKind::CondJump;
      Sum.Term.Cond = Interp.condition(Insn.CC);
      Sum.Term.InvertedCond = Interp.condition(invertCondCode(Insn.CC));
      Sum.Term.TargetLabel = Insn.Ops[0].Sym;
      break;
    }
    if (Insn.isOpaque()) {
      clobberForOpaque(Insn);
      continue;
    }
    if (StepError Why = Interp.step(Insn)) {
      Sum.Supported = false;
      Sum.UnsupportedWhy = std::string(Why) + ": " + Insn.toString();
      break;
    }
  }

  Sum.Regs = Dom.Regs;
  Sum.Flags = Dom.Flags;
  Sum.Stores = std::move(Dom.Stores);
  return Sum;
}

} // namespace

BlockSummary
BlockEvaluator::evaluate(const std::vector<const Instruction *> &Insns) {
  Eval E(T, InitRegs, InitFlags);
  return E.run(Insns);
}
