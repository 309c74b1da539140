//===- check/SymbolicEval.h - Symbolic per-block evaluator ------*- C++ -*-===//
///
/// \file
/// A symbolic evaluator over the modelled x86-64 subset, the core of the
/// MaoCheck translation validator (Minotaur-style, see PAPERS.md): every
/// register, flag and stored value of one basic block is expressed as a
/// node in a hash-consed expression DAG over the block's inputs. Two blocks
/// are semantically equivalent when their observable outputs — live-out
/// registers and flags, the ordered store/call/opaque event lists, and the
/// terminator — map to the *same* node ids in a shared SymTable.
///
/// The evaluator has no instruction semantics of its own: it runs the
/// interpreter of x86/Semantics.h over NodeIds, and SymTable folds constant
/// operations with the same evalOp the emulator executes. The domains
/// differ in one place, which Semantics.h names per instruction: flags the
/// ISA leaves undefined (and the opcode table models as clobbered, e.g. ZF
/// after mul, AF after a shift) are opaque deterministic functions of the
/// operands here, where the emulator stores a fixed value. That matches the
/// liveness assumptions every pass is written against, so a pass
/// exploiting "table says clobbered" is not flagged as a miscompile.
///
/// Simplification rules are chosen to prove exactly the rewrites MAO's
/// peephole passes perform: known-zero-bit tracking discharges
/// zero-extension elimination, `and(x,x) -> x` discharges redundant-test
/// removal, constant reassociation discharges add/add collapsing and
/// constant folding, and epoch-tagged load nodes discharge redundant-load
/// elimination.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_CHECK_SYMBOLICEVAL_H
#define MAO_CHECK_SYMBOLICEVAL_H

#include "x86/Semantics.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mao {

using NodeId = uint32_t;

/// Node kinds. Op carries a SymTag; the others are leaves.
enum class SymKind : uint8_t {
  Const,    ///< 64-bit constant (Value).
  InitReg,  ///< Register A (dense index, 0-15 GPR supers, 16-31 XMM) at
            ///< region entry.
  InitFlag, ///< Flag bit A (FlagBit position) at region entry.
  SymAddr,  ///< Address of symbol Aux (+ addend Value).
  Unknown,  ///< Opaque fresh value keyed by (Aux, A, B): call results,
            ///< post-opaque state.
  Op,       ///< Operation Tag over Args (see SymTag).
};

/// One DAG node. Interned: equal structure implies equal NodeId.
struct SymNode {
  SymKind Kind = SymKind::Const;
  SymTag Tag = SymTag::None;
  uint32_t A = 0;
  uint32_t B = 0;
  uint64_t Value = 0; ///< Constant value / SymAddr addend.
  std::string Aux;    ///< Symbol name / unknown key / call target.
  std::vector<NodeId> Args;
  /// Bits known to be zero in every concrete evaluation; drives the
  /// zero-extension simplifications.
  uint64_t KnownZero = 0;

  bool isConst() const { return Kind == SymKind::Const; }
};

/// Hash-consing table shared by the evaluations that are to be compared.
class SymTable {
public:
  NodeId makeConst(uint64_t Value);
  NodeId makeInitReg(unsigned DenseIndex);
  NodeId makeInitFlag(unsigned FlagPos);
  NodeId makeSymAddr(const std::string &Sym, int64_t Addend);
  NodeId makeUnknown(const std::string &Aux, uint32_t A, uint32_t B);
  /// Builds (and simplifies) an operation node.
  NodeId makeOp(SymTag Tag, uint32_t A, uint32_t B,
                std::vector<NodeId> Args);

  const SymNode &node(NodeId Id) const { return Nodes[Id]; }
  size_t size() const { return Nodes.size(); }

  /// True when \p Id is the constant \p Value.
  bool isConst(NodeId Id, uint64_t Value) const {
    return Nodes[Id].isConst() && Nodes[Id].Value == Value;
  }

private:
  NodeId intern(SymNode Node);
  /// Strips And-masks subsumed by the low-ones mask \p M from a +,-,*
  /// expression tree (carries only propagate upward).
  NodeId stripLowMask(NodeId Id, uint64_t M);

  std::vector<SymNode> Nodes;
  std::map<std::string, NodeId> Interned;
};

/// One buffered store: the address/value expressions and the size.
struct StoreEvent {
  NodeId Addr = 0;
  NodeId Value = 0;
  uint8_t Bytes = 0;
  bool operator==(const StoreEvent &O) const = default;
};

/// One call site: target plus the ABI-visible argument state.
struct CallEvent {
  std::string Target;
  bool Indirect = false;
  NodeId IndirectTarget = 0;
  /// (dense register index, value) for every register in CallUsedMask.
  std::vector<std::pair<uint8_t, NodeId>> Args;
  bool operator==(const CallEvent &O) const = default;
};

/// One opaque instruction: raw text plus the full machine state it sees.
struct OpaqueEvent {
  std::string Text;
  std::vector<NodeId> RegState;  ///< All 32 dense registers, in order.
  std::vector<NodeId> FlagState; ///< The 6 status flags, in order.
  bool operator==(const OpaqueEvent &O) const = default;
};

/// How the block ends.
enum class TermKind : uint8_t {
  Fallthrough,
  Jump,
  CondJump,
  IndirectJump,
  Return,
};

struct Terminator {
  TermKind Kind = TermKind::Fallthrough;
  std::string TargetLabel; ///< Jump / CondJump direct target.
  NodeId Cond = 0;         ///< CondJump: 0/1 condition expression.
  NodeId InvertedCond = 0; ///< CondJump: the inverted code's condition.
  NodeId Target = 0;       ///< IndirectJump: target address expression.
  /// Return: (dense register index, value) for the ABI return registers.
  std::vector<std::pair<uint8_t, NodeId>> RetValues;
};

/// Everything observable about one evaluated block.
struct BlockSummary {
  bool Supported = true;
  std::string UnsupportedWhy;
  std::array<NodeId, 32> Regs{};  ///< Final value per dense register.
  std::array<NodeId, 6> Flags{};  ///< Final CF,PF,AF,ZF,SF,OF (bit order).
  std::vector<StoreEvent> Stores;
  std::vector<CallEvent> Calls;
  std::vector<OpaqueEvent> Opaques;
  Terminator Term;
};

/// Evaluates one straight-line instruction sequence into a BlockSummary.
/// Reusable: every evaluate() call starts from the configured initial
/// state. Two evaluators sharing one SymTable produce comparable node ids.
class BlockEvaluator {
public:
  explicit BlockEvaluator(SymTable &Table);

  /// Overrides the initial value of a register / flag (defaults are
  /// InitReg / InitFlag leaves). Used by the differential tests to seed
  /// concrete constants.
  void setInitialReg(unsigned DenseIndex, NodeId Value);
  void setInitialFlag(unsigned FlagPos, NodeId Value);

  BlockSummary evaluate(const std::vector<const Instruction *> &Insns);

private:
  SymTable &T;
  std::array<NodeId, NumDenseRegs> InitRegs{};
  std::array<NodeId, NumStatusFlags> InitFlags{};
};

/// Renders a node as a compact s-expression (diagnostics and tests).
std::string renderNode(const SymTable &T, NodeId Id);

} // namespace mao

#endif // MAO_CHECK_SYMBOLICEVAL_H
