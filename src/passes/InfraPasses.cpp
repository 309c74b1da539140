//===- passes/InfraPasses.cpp - ASM output, LFIND, example pass --------------===//
///
/// \file
/// Infrastructure passes from the paper:
///   ASM     - "the assembly generation ASM pass" writing the output file
///             (option o[path], /dev/null suppresses output)
///   LFIND   - loop finder: builds the CFG and LSG and traces what it found
///             (the pass named in the paper's example command line)
///   MAOPASS - the minimal example pass of Fig. 3, printing function names
///
//===----------------------------------------------------------------------===//

#include "asm/AsmEmitter.h"
#include "pass/MaoPass.h"
#include "passes/PassUtil.h"
#include "support/FileIO.h"

using namespace mao;

namespace {

class AsmOutputPass : public MaoUnitPass {
public:
  AsmOutputPass(MaoOptionMap *Options, MaoUnit *Unit)
      : MaoUnitPass("ASM", Options, Unit) {}

  bool go() override {
    std::string Path = options().getString("o", "-");
    if (Path == "/dev/null")
      return true;
    if (MaoStatus S = writeWholeFile(Path, emitAssembly(unit())))
      throw OutputWriteError(S.message());
    return true;
  }
};

REGISTER_UNIT_PASS("ASM", AsmOutputPass)

class LoopFinderPass : public MaoFunctionPass {
public:
  LoopFinderPass(MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("LFIND", Options, Unit, Fn) {}

  bool go() override {
    const CFG &Graph = keptCFG(function());
    const LoopStructureGraph &LSG = keptLoops(function());
    trace(0, "func %s: %zu blocks, %zu loops%s", function().name().c_str(),
          Graph.blocks().size(), LSG.loopCount(),
          function().HasUnresolvedIndirect ? " (unresolved indirect)" : "");
    for (size_t I = 1; I < LSG.loops().size(); ++I) {
      const Loop &L = LSG.loops()[I];
      trace(1, "  loop %zu: header bb%u depth %u %s, %zu blocks", I,
            L.Header, L.Depth, L.IsReducible ? "reducible" : "IRREDUCIBLE",
            L.Blocks.size());
    }
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("LFIND", LoopFinderPass)

/// The minimal pass of the paper's Fig. 3, verbatim in spirit: prints the
/// name of every function via the standard tracing facility.
class ExamplePass : public MaoFunctionPass {
public:
  ExamplePass(MaoOptionMap *Options, // specific options
              MaoUnit *Unit,         // current asm file
              MaoFunction *Fn)       // current function
      : MaoFunctionPass("MAOPASS", Options, Unit, Fn) {}

  bool go() override {
    trace(3, "Func: %s", function().name().c_str());
    return true;
  }
};

REGISTER_SHARDED_FUNC_PASS("MAOPASS", ExamplePass)

} // namespace

namespace mao {
void linkInfraPasses() {}
} // namespace mao
