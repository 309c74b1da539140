//===- tests/IdentityTest.cpp - The paper's verification workflow -------------==//
//
// Paper Sec. III-A: "For each source file we take the compiler generated
// assembly file A1 and run the assembler on it to generate an object file
// O1. Then we run MAO on A1 [with no transformations] and generate an
// assembly file A2 ... We then disassemble O1 and O2 and verify that both
// disassembled files are textually identical."
//
// Property tests over the synthetic corpus: identity (analysis-only MAO
// runs change nothing), and — when binutils is installed — byte equality
// between MAO's own assembler and GNU as on workload output.
//
//===----------------------------------------------------------------------===//

#include "GasOracle.h"
#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "pass/MaoPass.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

using namespace mao;

namespace {

TEST(Identity, AnalysisOnlyRunPreservesBinary) {
  linkAllPasses();
  for (const WorkloadSpec &Spec : spec2000IntProfiles()) {
    std::string A1 = generateWorkloadAssembly(Spec);
    auto U1 = parseAssembly(A1);
    ASSERT_TRUE(U1.ok()) << Spec.Name;

    // MAO run with analysis-only passes (build CFG, loops; no transforms).
    auto U2 = parseAssembly(A1);
    ASSERT_TRUE(U2.ok());
    std::vector<PassRequest> Requests;
    ASSERT_TRUE(parseMaoOption("LFIND:MAOPASS", Requests).ok());
    ASSERT_TRUE(runPasses(*U2, Requests).Ok);
    std::string A2 = emitAssembly(*U2);
    auto U2Re = parseAssembly(A2);
    ASSERT_TRUE(U2Re.ok());

    auto O1 = assembleUnit(*U1);
    auto O2 = assembleUnit(*U2Re);
    ASSERT_TRUE(O1.ok()) << Spec.Name << ": " << O1.message();
    ASSERT_TRUE(O2.ok()) << Spec.Name << ": " << O2.message();
    EXPECT_EQ(*O1, *O2) << Spec.Name << ": identity run changed the binary";
  }
}

TEST(Identity, EmitParseEmitIsFixpoint) {
  for (const WorkloadSpec &Spec : spec2006Profiles()) {
    std::string A1 = generateWorkloadAssembly(Spec);
    auto U1 = parseAssembly(A1);
    ASSERT_TRUE(U1.ok());
    std::string E1 = emitAssembly(*U1);
    auto U2 = parseAssembly(E1);
    ASSERT_TRUE(U2.ok());
    EXPECT_EQ(emitAssembly(*U2), E1) << Spec.Name;
  }
}

TEST(Identity, MaoAssemblerMatchesGasOnWorkloads) {
  if (!haveBinutils())
    GTEST_SKIP() << "binutils not installed";

  const WorkloadSpec *Spec = findBenchmarkProfile("175.vpr");
  ASSERT_NE(Spec, nullptr);
  std::string Asm = generateWorkloadAssembly(*Spec);

  // MAO's own .text bytes.
  auto Unit = parseAssembly(Asm);
  ASSERT_TRUE(Unit.ok());
  auto Sections = assembleUnit(*Unit);
  ASSERT_TRUE(Sections.ok()) << Sections.message();
  std::string MaoHex;
  char Buffer[4];
  for (uint8_t B : Sections->at(".text")) {
    std::snprintf(Buffer, sizeof(Buffer), "%02x", B);
    MaoHex += Buffer;
  }

  // GNU as bytes.
  std::map<std::string, GasSection> Gas;
  std::string Error;
  ASSERT_TRUE(assembleWithGas(gasDialect(Asm), Gas, &Error)) << Error;
  EXPECT_EQ(MaoHex, Gas[".text"].Hex)
      << "MAO-assembled workload differs from GNU as output";
}

} // namespace
