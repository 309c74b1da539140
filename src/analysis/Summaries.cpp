//===- analysis/Summaries.cpp - Per-function ABI summaries -----------------==//

#include "analysis/Summaries.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

using namespace mao;

namespace {

RegMask bit(Reg R) { return regMaskBit(R); }

} // namespace

const RegMask mao::CalleeSavedMask = bit(Reg::RBX) | bit(Reg::RBP) |
                                     bit(Reg::R12) | bit(Reg::R13) |
                                     bit(Reg::R14) | bit(Reg::R15);

const RegMask mao::ArgRegsMask = bit(Reg::RDI) | bit(Reg::RSI) |
                                 bit(Reg::RDX) | bit(Reg::RCX) |
                                 bit(Reg::R8) | bit(Reg::R9) |
                                 0x00ff0000u; // xmm0-7

const RegMask mao::ReturnRegsMask =
    bit(Reg::RAX) | bit(Reg::RDX) | (1u << 16) | (1u << 17); // xmm0, xmm1

namespace {

constexpr RegMask PltScratch = (1u << 10) | (1u << 11); // r10, r11

/// True for `pushq %R` where R's super is \p Super, or a full-width store
/// of \p Super to memory — the shapes accepted as saving the register.
bool savesReg(const Instruction &Insn, Reg Super) {
  EncKind K = Insn.info().Kind;
  if (K == EncKind::Push)
    return Insn.Ops.size() == 1 && Insn.Ops[0].isReg() &&
           superReg(Insn.Ops[0].R) == Super && regWidth(Insn.Ops[0].R) == Width::Q;
  if (K == EncKind::Mov)
    return Insn.Ops.size() == 2 && Insn.Ops[0].isReg() &&
           superReg(Insn.Ops[0].R) == Super &&
           regWidth(Insn.Ops[0].R) == Width::Q && Insn.Ops[1].isMem();
  return false;
}

/// True for `popq %R`, a full-width load into \p Super, or `leave` when
/// \p Super is %rbp — the shapes accepted as restoring the register.
bool restoresReg(const Instruction &Insn, Reg Super) {
  EncKind K = Insn.info().Kind;
  if (K == EncKind::Pop)
    return Insn.Ops.size() == 1 && Insn.Ops[0].isReg() &&
           superReg(Insn.Ops[0].R) == Super && regWidth(Insn.Ops[0].R) == Width::Q;
  if (K == EncKind::Mov)
    return Insn.Ops.size() == 2 && Insn.Ops[0].isMem() &&
           Insn.Ops[1].isReg() && superReg(Insn.Ops[1].R) == Super &&
           regWidth(Insn.Ops[1].R) == Width::Q;
  return Insn.Mn == Mnemonic::LEAVE && Super == Reg::RBP;
}

/// `movq %rsp, %rbp` — captures the frame anchor.
bool capturesFrameAnchor(const Instruction &Insn) {
  return Insn.info().Kind == EncKind::Mov && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isReg() && superReg(Insn.Ops[0].R) == Reg::RSP &&
         Insn.Ops[1].isReg() && superReg(Insn.Ops[1].R) == Reg::RBP &&
         regWidth(Insn.Ops[1].R) == Width::Q;
}

/// `movq %rbp, %rsp` — rewinds the stack to the frame anchor.
bool rewindsToFrameAnchor(const Instruction &Insn) {
  return Insn.info().Kind == EncKind::Mov && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isReg() && superReg(Insn.Ops[0].R) == Reg::RBP &&
         Insn.Ops[1].isReg() && superReg(Insn.Ops[1].R) == Reg::RSP &&
         regWidth(Insn.Ops[1].R) == Width::Q;
}

/// Data-emitting directives inside a function body are executable bytes
/// the instruction-level walk cannot see through.
bool emitsOpaqueBytes(const MaoFunction &Fn) {
  for (auto It = Fn.begin(), E = Fn.end(); It != E; ++It) {
    if (!It->isDirective())
      continue;
    switch (It->directive().Kind) {
    case DirKind::Byte:
    case DirKind::Word:
    case DirKind::Long:
    case DirKind::Quad:
    case DirKind::Zero:
    case DirKind::String:
    case DirKind::Ascii:
    case DirKind::Asciz:
      return true;
    default:
      break;
    }
  }
  return false;
}

/// A summary every consumer treats as the architectural call model.
FunctionSummary conservativeSummary(const CallGraph::Node &N) {
  FunctionSummary S;
  S.Known = false;
  S.Clobbered = CallClobberedMask | CalleeSavedMask;
  S.Preserved = 0;
  S.ArgsRead = ArgRegsMask;
  S.Leaf = N.Sites.empty() && !N.HasUnknownTailJump;
  S.StackKnown = false;
  S.MaxTotalFrameBytes = -1;
  return S;
}

bool summaryEquals(const FunctionSummary &A, const FunctionSummary &B) {
  return A.Known == B.Known && A.Clobbered == B.Clobbered &&
         A.Preserved == B.Preserved && A.ArgsRead == B.ArgsRead &&
         A.Leaf == B.Leaf && A.StackKnown == B.StackKnown &&
         A.StackBalanced == B.StackBalanced &&
         A.MaxFrameBytes == B.MaxFrameBytes &&
         A.MaxTotalFrameBytes == B.MaxTotalFrameBytes &&
         A.UsesRedZone == B.UsesRedZone &&
         A.CalleeSavedViolations == B.CalleeSavedViolations &&
         A.StackViolations == B.StackViolations &&
         A.RedZoneSites == B.RedZoneSites;
}

/// One function's summary given the (possibly still-evolving) summaries of
/// its callees in \p Table.
FunctionSummary computeOne(const CallGraph &CG, unsigned FnIdx, CFG &G,
                           const std::vector<FunctionSummary> &Table) {
  const CallGraph::Node &N = CG.node(FnIdx);
  MaoFunction &Fn = *N.Fn;

  if (Fn.hasOpaqueInstructions() || emitsOpaqueBytes(Fn))
    return conservativeSummary(N);

  FunctionSummary S;
  S.Known = true;
  S.Leaf = N.Sites.empty() && !N.HasUnknownTailJump;

  const std::vector<BasicBlock> &Blocks = G.blocks();
  if (Blocks.empty()) {
    S.Preserved = CalleeSavedMask;
    S.StackKnown = S.StackBalanced = true;
    S.MaxTotalFrameBytes = 0;
    return S;
  }

  // Call-site lookup by instruction entry (covers calls and tail jumps).
  std::unordered_map<const MaoEntry *, const CallSite *> SiteOf;
  for (const CallSite &Site : N.Sites)
    SiteOf.emplace(&*Site.Insn, &Site);

  auto siteAt = [&](EntryIter It) -> const CallSite * {
    auto SIt = SiteOf.find(&*It);
    return SIt == SiteOf.end() ? nullptr : SIt->second;
  };
  auto siteClobbers = [&](const CallSite &Site) -> RegMask {
    if (Site.Callee == CallSite::External || !Table[Site.Callee].Known)
      return CallClobberedMask;
    RegMask M = Table[Site.Callee].Clobbered;
    if (Site.Kind == CallEdgeKind::Plt)
      M |= PltScratch;
    return M;
  };
  auto siteReads = [&](const CallSite &Site) -> RegMask {
    if (Site.Callee == CallSite::External || !Table[Site.Callee].Known)
      return ArgRegsMask;
    return Table[Site.Callee].ArgsRead;
  };
  /// May-written registers of one instruction as the caller perceives it:
  /// call and tail-call sites contribute their callee's clobber summary
  /// instead of the instruction's own architectural effects.
  auto insnClobbers = [&](EntryIter It) -> RegMask {
    if (const CallSite *Site = siteAt(It))
      return siteClobbers(*Site);
    return std::as_const(*It).instruction().effects().RegDefs;
  };

  //===--------------------------------------------------------------------===//
  // Raw clobber union and first-write bookkeeping (all blocks: sound even
  // when indirect-jump edges are unresolved).
  //===--------------------------------------------------------------------===//
  RegMask RawClobbers = 0;
  std::unordered_map<unsigned, std::string> FirstWriteDesc; // gpr index -> text
  for (const BasicBlock &B : Blocks) {
    for (EntryIter It : B.Insns) {
      const Instruction &Insn = std::as_const(*It).instruction();
      RegMask W = insnClobbers(It);
      RegMask NewCalleeSaved = W & CalleeSavedMask & ~RawClobbers;
      if (NewCalleeSaved) {
        const CallSite *Site = siteAt(It);
        std::string Desc = Site && Site->Kind != CallEdgeKind::Indirect
                               ? "a call to '" + Site->Target + "'"
                               : "'" + Insn.toString() + "'";
        for (unsigned I = 0; I < NumGprSupers; ++I)
          if (NewCalleeSaved & (1u << I))
            FirstWriteDesc.emplace(I, Desc);
      }
      RawClobbers |= W;

      // Red zone: any non-lea memory access below the stack pointer.
      if (Insn.info().Kind != EncKind::Lea) {
        if (const Operand *Mem = Insn.memOperand()) {
          if (Mem->Mem.Base != Reg::None && Mem->Mem.Base != Reg::RIP &&
              superReg(Mem->Mem.Base) == Reg::RSP && Mem->Imm < 0 &&
              !Mem->hasSymDisp()) {
            S.UsesRedZone = true;
            S.RedZoneSites.push_back(
                "'" + Insn.toString() + "' addresses " +
                std::to_string(Mem->Imm) + "(%rsp), below the stack "
                "pointer");
          }
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Callee-saved save/restore pairing: per candidate register a forward
  // (Dirty, SavedAvailable) dataflow. Dirty joins with OR, SavedAvailable
  // with AND; the optimistic start descends to a fixpoint, and blocks not
  // reached over known edges stay optimistic (silent).
  //===--------------------------------------------------------------------===//
  RegMask PairedPreserved = 0;
  for (unsigned RegIdx = 0; RegIdx < NumGprSupers; ++RegIdx) {
    RegMask RBit = 1u << RegIdx;
    if (!(CalleeSavedMask & RBit))
      continue;
    if (!(RawClobbers & RBit)) {
      S.Preserved |= RBit;
      continue;
    }
    Reg Super = static_cast<Reg>(static_cast<unsigned>(Reg::RAX) + RegIdx);
    // In-states: bit0 = may-be-dirty, bit1 = definitely-saved.
    std::vector<uint8_t> In(Blocks.size(), 2); // optimistic: clean, saved
    In[0] = 0;                                 // entry: clean, not saved
    auto Transfer = [&](const BasicBlock &B, uint8_t State,
                        std::vector<std::string> *Violations) -> uint8_t {
      bool Dirty = State & 1, Saved = (State & 2) != 0;
      for (EntryIter It : B.Insns) {
        const Instruction &Insn = std::as_const(*It).instruction();
        const CallSite *Site = siteAt(It);
        if (!Dirty && savesReg(Insn, Super)) {
          Saved = true;
          // The push itself only writes rsp/memory; fall through so a
          // later write marks Dirty.
        } else if (restoresReg(Insn, Super)) {
          Dirty = !Saved;
        } else if (insnClobbers(It) & RBit) {
          Dirty = true;
        }
        bool IsExit = Insn.isReturn() ||
                      (Site && Site->Kind == CallEdgeKind::TailCall);
        if (IsExit && Dirty && Violations) {
          auto DescIt = FirstWriteDesc.find(RegIdx);
          std::string Desc =
              DescIt == FirstWriteDesc.end() ? "an unmodelled instruction"
                                             : DescIt->second;
          Violations->push_back(
              "callee-saved %" + std::string(regName(Super)) +
              " is clobbered by " + Desc + " and not restored before " +
              (Insn.isReturn() ? "'ret'" : "the tail call") + " in block #" +
              std::to_string(B.Index));
        }
      }
      return static_cast<uint8_t>((Dirty ? 1 : 0) | (Saved ? 2 : 0));
    };
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const BasicBlock &B : Blocks) {
        uint8_t Out = Transfer(B, In[B.Index], nullptr);
        for (unsigned Succ : B.Succs) {
          uint8_t Merged = static_cast<uint8_t>(((In[Succ] | Out) & 1) |
                                                (In[Succ] & Out & 2));
          if (Merged != In[Succ]) {
            In[Succ] = Merged;
            Changed = true;
          }
        }
      }
    }
    std::vector<std::string> Violations;
    for (const BasicBlock &B : Blocks)
      Transfer(B, In[B.Index], &Violations);
    if (Violations.empty()) {
      S.Preserved |= RBit;
      PairedPreserved |= RBit;
    } else {
      for (std::string &V : Violations)
        S.CalleeSavedViolations.push_back(std::move(V));
    }
  }

  //===--------------------------------------------------------------------===//
  // Stack walk: per-block (depth, frame anchor) with merge-to-unknown on
  // conflicting joins, mirroring the stack-misalignment rule but also
  // modelling the %rbp frame idiom (mov %rsp,%rbp / leave).
  //===--------------------------------------------------------------------===//
  {
    constexpr int64_t Unknown = INT64_MIN;
    constexpr int64_t NoAnchor = INT64_MIN;
    constexpr int64_t Unvisited = INT64_MIN + 1;
    std::vector<int64_t> Depth(Blocks.size(), Unvisited);
    std::vector<int64_t> Anchor(Blocks.size(), Unvisited);
    Depth[0] = 0;
    Anchor[0] = NoAnchor;
    S.StackKnown = true;
    std::vector<unsigned> Work = {0};
    while (!Work.empty()) {
      unsigned BI = Work.back();
      Work.pop_back();
      int64_t D = Depth[BI], A = Anchor[BI];
      for (EntryIter It : Blocks[BI].Insns) {
        const Instruction &Insn = std::as_const(*It).instruction();
        const CallSite *Site = siteAt(It);
        if (D != Unknown) {
          if (D > S.MaxFrameBytes)
            S.MaxFrameBytes = D;
          if (Insn.isReturn() && D != 0)
            S.StackViolations.push_back(
                "'ret' in block #" + std::to_string(BI) +
                " executes with a net stack delta of " + std::to_string(D) +
                " byte(s) (expected 0)");
          if (Site && Site->Kind == CallEdgeKind::TailCall && D != 0)
            S.StackViolations.push_back(
                "tail call to '" + Site->Target + "' in block #" +
                std::to_string(BI) + " executes with a net stack delta of " +
                std::to_string(D) + " byte(s) (expected 0)");
        }
        // Advance the (depth, anchor) state.
        if (Site && Site->Kind != CallEdgeKind::TailCall) {
          // A call is balanced when the callee is (or must be assumed)
          // ABI-conformant; a callee with a known-unbalanced or untracked
          // stack loses us the depth, and one that clobbers %rbp loses
          // the frame anchor.
          bool CalleeBalanced =
              Site->Callee == CallSite::External ||
              !Table[Site->Callee].Known ||
              (Table[Site->Callee].StackKnown &&
               Table[Site->Callee].StackBalanced);
          if (!CalleeBalanced)
            D = Unknown;
          if (siteClobbers(*Site) & regMaskBit(Reg::RBP))
            A = NoAnchor;
        } else if (capturesFrameAnchor(Insn)) {
          A = D == Unknown ? NoAnchor : D;
        } else if (Insn.Mn == Mnemonic::LEAVE) {
          D = A == NoAnchor ? Unknown : A - 8;
          A = NoAnchor; // leave pops %rbp; the anchor value is gone.
        } else if (rewindsToFrameAnchor(Insn)) {
          D = A == NoAnchor ? Unknown : A;
        } else {
          if (D != Unknown) {
            std::optional<int64_t> Delta = stackDelta(Insn);
            D = Delta ? D + *Delta : Unknown;
          }
          if (Insn.effects().RegDefs & regMaskBit(Reg::RBP))
            A = NoAnchor;
        }
        if (D != Unknown && D > S.MaxFrameBytes)
          S.MaxFrameBytes = D;
        if (D == Unknown)
          S.StackKnown = false;
      }
      for (unsigned Succ : Blocks[BI].Succs) {
        if (Depth[Succ] == Unvisited) {
          Depth[Succ] = D;
          Anchor[Succ] = A;
          Work.push_back(Succ);
        } else if (Depth[Succ] != D || Anchor[Succ] != A) {
          int64_t NewD = Depth[Succ] == D ? D : Unknown;
          int64_t NewA = Anchor[Succ] == A ? A : NoAnchor;
          if (NewD != Depth[Succ] || NewA != Anchor[Succ]) {
            Depth[Succ] = NewD;
            Anchor[Succ] = NewA;
            Work.push_back(Succ);
          }
        }
      }
    }
    if (Fn.HasUnresolvedIndirect)
      S.StackKnown = false; // Unknown edges: depths beyond them untracked.
    S.StackBalanced = S.StackKnown && S.StackViolations.empty();
  }

  //===--------------------------------------------------------------------===//
  // Argument reads: forward definite-assignment (R1-style) where only the
  // argument registers start undefined; a read of a still-undefined
  // argument register means the entry value may flow into it. Call sites
  // read their callee's ArgsRead and define their clobber summary.
  //===--------------------------------------------------------------------===//
  {
    std::vector<RegMask> In(Blocks.size(), ~RegMask(0));
    In[0] = ~ArgRegsMask;
    if (Fn.HasUnresolvedIndirect)
      In.assign(Blocks.size(), ~ArgRegsMask); // Unknown edges: stay sound.
    auto Transfer = [&](const BasicBlock &B, RegMask Defined,
                        RegMask *Reads) -> RegMask {
      for (EntryIter It : B.Insns) {
        const Instruction &Insn = std::as_const(*It).instruction();
        const CallSite *Site = siteAt(It);
        RegMask Uses =
            Site ? siteReads(*Site) : Insn.effects().RegUses;
        // `ret` claims the return registers as uses so liveness keeps
        // them alive for the caller; that is not an argument read.
        if (Insn.isReturn())
          Uses &= ~RetUsedMask;
        if (Reads)
          *Reads |= Uses & ~Defined & ArgRegsMask;
        Defined |= insnClobbers(It);
      }
      return Defined;
    };
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const BasicBlock &B : Blocks) {
        RegMask Out = Transfer(B, In[B.Index], nullptr);
        for (unsigned Succ : B.Succs) {
          RegMask Merged = In[Succ] & Out;
          if (Merged != In[Succ]) {
            In[Succ] = Merged;
            Changed = true;
          }
        }
      }
    }
    RegMask Reads = 0;
    for (const BasicBlock &B : Blocks)
      Transfer(B, In[B.Index], &Reads);
    S.ArgsRead = Reads;
  }

  //===--------------------------------------------------------------------===//
  // Final masks and the interprocedural frame-depth bound.
  //===--------------------------------------------------------------------===//
  S.Clobbered = RawClobbers & ~PairedPreserved;
  if (S.StackKnown && S.StackBalanced)
    S.Clobbered &= ~regMaskBit(Reg::RSP);
  S.Preserved &= ~S.Clobbered;

  if (!S.StackKnown) {
    S.MaxTotalFrameBytes = -1;
  } else if (S.Leaf) {
    S.MaxTotalFrameBytes = S.MaxFrameBytes;
  } else {
    int64_t WorstCallee = 0;
    bool Bounded = !N.HasUnknownTailJump;
    for (const CallSite &Site : N.Sites) {
      if (Site.Callee == CallSite::External ||
          !Table[Site.Callee].Known ||
          Table[Site.Callee].MaxTotalFrameBytes < 0) {
        Bounded = false;
        break;
      }
      int64_t Callee = Table[Site.Callee].MaxTotalFrameBytes +
                       (Site.Kind == CallEdgeKind::TailCall ? 0 : 8);
      WorstCallee = std::max(WorstCallee, Callee);
    }
    S.MaxTotalFrameBytes = Bounded ? S.MaxFrameBytes + WorstCallee : -1;
  }
  return S;
}

} // namespace

SummaryTable SummaryTable::compute(const CallGraph &CG,
                                   std::vector<CFG> &Graphs) {
  SummaryTable T;
  T.CG = &CG;
  T.Summaries.resize(CG.size());
  for (unsigned I = 0; I < CG.size(); ++I)
    T.Summaries[I] = conservativeSummary(CG.node(I));

  for (unsigned Scc = 0; Scc < CG.sccs().size(); ++Scc) {
    const std::vector<unsigned> &Members = CG.sccs()[Scc];
    if (!CG.sccIsRecursive(Scc)) {
      // Callees live in earlier SCCs and are final: one round suffices.
      unsigned FnIdx = Members.front();
      T.Summaries[FnIdx] = computeOne(CG, FnIdx, Graphs[FnIdx], T.Summaries);
      continue;
    }
    // A recursive component iterates to a fixpoint from the conservative
    // start (a self call means the architectural call model until the
    // round converges); components that fail to settle are pinned
    // conservative rather than trusted.
    constexpr unsigned MaxRounds = 8;
    bool Converged = false;
    for (unsigned Round = 0; Round < MaxRounds && !Converged; ++Round) {
      Converged = true;
      for (unsigned FnIdx : Members) {
        FunctionSummary S = computeOne(CG, FnIdx, Graphs[FnIdx], T.Summaries);
        if (!summaryEquals(S, T.Summaries[FnIdx])) {
          Converged = false;
          T.Summaries[FnIdx] = std::move(S);
        }
      }
    }
    if (!Converged)
      for (unsigned FnIdx : Members)
        T.Summaries[FnIdx] = conservativeSummary(CG.node(FnIdx));
  }
  return T;
}

const FunctionSummary *
SummaryTable::calleeSummary(const Instruction &Call) const {
  const Operand *Target = Call.branchTarget();
  if (!Target || !Target->isSymbol())
    return nullptr;
  std::string Sym = Target->Sym;
  stripPltSuffix(Sym);
  unsigned Idx = CG->indexOf(Sym);
  if (Idx == ~0u || !Summaries[Idx].Known)
    return nullptr;
  return &Summaries[Idx];
}

RegMask SummaryTable::callClobbers(const Instruction &Call) const {
  const Operand *Target = Call.branchTarget();
  if (!Target || !Target->isSymbol())
    return CallClobberedMask;
  std::string Sym = Target->Sym;
  bool Plt = stripPltSuffix(Sym);
  unsigned Idx = CG->indexOf(Sym);
  if (Idx == ~0u || !Summaries[Idx].Known)
    return CallClobberedMask;
  RegMask M = Summaries[Idx].Clobbered;
  if (Plt)
    M |= PltScratch;
  return M;
}

RegMask SummaryTable::callReads(const Instruction &Call) const {
  const FunctionSummary *Callee = calleeSummary(Call);
  return Callee ? Callee->ArgsRead : ArgRegsMask;
}

std::optional<int64_t> mao::stackDelta(const Instruction &Insn) {
  const OpcodeInfo &Info = Insn.info();
  switch (Info.Kind) {
  case EncKind::Push:
    return 8;
  case EncKind::Pop:
    return -8;
  case EncKind::Call:
  case EncKind::Ret:
    return 0;
  default:
    break;
  }
  if (Info.Kind == EncKind::AluRMI && Insn.Ops.size() == 2 &&
      Insn.Ops[1].isReg() && superReg(Insn.Ops[1].R) == Reg::RSP &&
      Insn.Ops[0].isConstImm()) {
    if (Insn.Mn == Mnemonic::SUB)
      return Insn.Ops[0].Imm;
    if (Insn.Mn == Mnemonic::ADD)
      return -Insn.Ops[0].Imm;
    return std::nullopt;
  }
  if (Insn.effects().RegDefs & regMaskBit(Reg::RSP))
    return std::nullopt;
  return 0;
}
