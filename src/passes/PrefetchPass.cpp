//===- passes/PrefetchPass.cpp - Inverse prefetching ---------------------------===//
///
/// \file
/// Inverse prefetching (paper Sec. III-E-k): on Core-2, a load preceded by a
/// prefetchnta to the same address becomes non-temporal — it replaces only
/// a single way of the associative caches, reducing cache pollution for
/// loads with little reuse. The paper drove this from a memory-reuse-
/// distance profiler; here the profile arrives either via the
/// `profile[path]` option (lines: `<function> <load-ordinal>`) or
/// programmatically through insertInversePrefetches().
///
//===----------------------------------------------------------------------===//

#include "passes/PrefetchPass.h"

#include "pass/MaoPass.h"
#include "support/FileIO.h"

#include <sstream>

using namespace mao;

unsigned mao::insertInversePrefetches(MaoUnit &Unit, MaoFunction &Fn,
                                      const std::vector<unsigned> &Ordinals) {
  // Enumerate load instructions (memory-read, non-prefetch) in order.
  std::vector<EntryIter> Loads;
  for (auto It = Fn.begin(), E = Fn.end(); It != E; ++It) {
    if (!It->isInstruction())
      continue;
    const Instruction &Insn = std::as_const(*It).instruction();
    if (Insn.isOpaque() || Insn.info().Kind == EncKind::Prefetch)
      continue;
    const Operand *Mem = Insn.memOperand();
    if (!Mem || !Insn.effects().MemRead)
      continue;
    Loads.push_back(It.underlying());
  }

  unsigned Inserted = 0;
  for (unsigned Ordinal : Ordinals) {
    if (Ordinal >= Loads.size())
      continue;
    EntryIter Load = Loads[Ordinal];
    Instruction Prefetch =
        makeInstr(Mnemonic::PREFETCHNTA, Width::None,
                  *std::as_const(*Load).instruction().memOperand());
    // prefetchnta takes a plain memory operand; drop any indirect marker.
    Prefetch.Ops[0].IndirectStar = false;
    Unit.insertBefore(Load, MaoEntry::makeInstruction(std::move(Prefetch)));
    ++Inserted;
  }
  return Inserted;
}

namespace {

class InversePrefetchPass : public MaoFunctionPass {
public:
  InversePrefetchPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("INVPREF", Options, Unit, Fn) {}

  bool go() override {
    const std::string Path = options().getString("profile");
    if (Path.empty())
      return true; // Nothing to do without a profile.
    std::string Profile;
    if (!readWholeFile(Path, Profile))
      return fail("cannot read reuse profile " + Path);
    std::vector<unsigned> Ordinals;
    std::istringstream In(Profile);
    std::string Name;
    unsigned Ordinal;
    while (In >> Name >> Ordinal)
      if (function().name() == Name)
        Ordinals.push_back(Ordinal);

    unsigned N = insertInversePrefetches(unit(), function(), Ordinals);
    countTransformation(N);
    if (N > 0)
      trace(1, "func %s: made %u loads non-temporal",
            function().name().c_str(), N);
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("INVPREF", InversePrefetchPass)

} // namespace

namespace mao {
void linkPrefetchPass() {}
} // namespace mao
