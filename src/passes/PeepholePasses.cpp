//===- passes/PeepholePasses.cpp - Pattern-matching peepholes ---------------===//
///
/// \file
/// The pattern-matching passes of paper Sec. III-B, now thin shims over the
/// table-driven rewrite engine (PeepholeEngine.h): each pass runs one rule
/// group of PeepholeRules.def over its function. They "try to cleanup
/// redundant or bad code sequences which typically come from weaknesses or
/// deficiencies in the compiler":
///
///   ZEE     - redundant zero extension:    andl $255,%eax ; mov %eax,%eax
///   REDTEST - redundant test instructions: subl $16,%r15d ; testl %r15d,%r15d
///   REDMOV  - redundant memory access:     movq 24(%rsp),%rdx ; movq 24(%rsp),%rcx
///   ADDADD  - add/add sequences:           add $I1,rX ; ... ; add $I2,rX
///   SYNTH   - superoptimizer-synthesized window rewrites (mao --synth)
///
/// The matching algorithms live in PeepholeEngine.cpp; migrating them there
/// preserved byte-identical pipeline output (PassesTest pins the patterns).
/// Every rule application bumps its `peep.fire.<rule>` counter, which
/// surfaces per-rule activity in `--mao-report`.
///
//===----------------------------------------------------------------------===//

#include "pass/MaoPass.h"
#include "passes/PeepholeEngine.h"

using namespace mao;

namespace {

/// Shared go(): run one rule group through the engine, wiring rule firings
/// into pass tracing and the transformation count.
class PeepholeGroupPass : public MaoFunctionPass {
public:
  PeepholeGroupPass(const char *PassName, const char *Group,
                    MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass(PassName, Options, Unit, Fn), Group(Group) {}

  bool go() override {
    PeepholeContext Ctx{unit(), function(), nullptr};
    if (traceLevel() >= 1)
      Ctx.OnFire = [this](const PeepholeRule &R, const std::string &At) {
        trace(1, "rule %s fired at: %s", R.Name.c_str(), At.c_str());
      };
    countTransformation(runPeepholeGroup(Ctx, Group));
    return true;
  }

private:
  const char *Group;
};

/// ZEE: removes `movl %rX, %rX` (a zero-extension idiom) when the
/// preceding definition of %rX in the same block is a 32-bit operation.
class ZeroExtentElimPass : public PeepholeGroupPass {
public:
  ZeroExtentElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : PeepholeGroupPass("ZEE", "zee", Options, Unit, Fn) {}
};

REGISTER_SHARDED_FUNC_PASS("ZEE", ZeroExtentElimPass)

/// REDTEST: removes `test %r, %r` when the preceding flag-writing
/// instruction is an ALU operation whose result landed in %r.
class RedundantTestElimPass : public PeepholeGroupPass {
public:
  RedundantTestElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : PeepholeGroupPass("REDTEST", "redtest", Options, Unit, Fn) {}
};

REGISTER_SHARDED_FUNC_PASS("REDTEST", RedundantTestElimPass)

/// REDMOV: rewrites the second of two identical loads to a register move.
class RedundantMemMovePass : public PeepholeGroupPass {
public:
  RedundantMemMovePass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : PeepholeGroupPass("REDMOV", "redmov", Options, Unit, Fn) {}
};

REGISTER_SHARDED_FUNC_PASS("REDMOV", RedundantMemMovePass)

/// ADDADD: folds `add/sub $I1, rX ; ... ; add/sub $I2, rX` pairs.
class AddAddElimPass : public PeepholeGroupPass {
public:
  AddAddElimPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : PeepholeGroupPass("ADDADD", "addadd", Options, Unit, Fn) {}
};

REGISTER_SHARDED_FUNC_PASS("ADDADD", AddAddElimPass)

/// SYNTH: applies the superoptimizer-synthesized window rules. Not in the
/// default pipeline; enable with --mao-passes=SYNTH (or the tuner's
/// --synth-tune axis), and swap the rule set with --synth-rules=FILE.
class SynthRulesPass : public PeepholeGroupPass {
public:
  SynthRulesPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : PeepholeGroupPass("SYNTH", "synth", Options, Unit, Fn) {}
};

REGISTER_SHARDED_FUNC_PASS("SYNTH", SynthRulesPass)

} // namespace

namespace mao {
void linkPeepholePasses() {}
} // namespace mao
