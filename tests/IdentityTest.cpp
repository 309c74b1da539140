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

#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "x86/Encoder.h"
#include "pass/MaoPass.h"
#include "support/FileIO.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

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
  if (std::system("which as > /dev/null 2>&1") != 0 ||
      std::system("which objdump > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "binutils not installed";

  const WorkloadSpec *Spec = findBenchmarkProfile("175.vpr");
  ASSERT_NE(Spec, nullptr);
  std::string Asm = generateWorkloadAssembly(*Spec);

  // GNU as does not know the MAO dialect's explicit-length "nopN"
  // mnemonics; translate them into the equivalent .byte sequences for the
  // gas side of the comparison.
  std::string GasAsm;
  {
    size_t Pos = 0;
    while (Pos <= Asm.size()) {
      size_t End = Asm.find('\n', Pos);
      if (End == std::string::npos)
        End = Asm.size();
      std::string Line = Asm.substr(Pos, End - Pos);
      unsigned Len = 0;
      if (std::sscanf(Line.c_str(), "\tnop%u", &Len) == 1 && Len >= 2 &&
          Len <= 15) {
        std::vector<uint8_t> Bytes;
        ASSERT_TRUE(encodeInstruction(makeNop(Len), 0, nullptr, Bytes).ok());
        std::string Repl = "\t.byte ";
        char Hex[8];
        for (size_t I = 0; I < Bytes.size(); ++I) {
          std::snprintf(Hex, sizeof(Hex), "%s0x%02x", I ? ", " : "",
                        Bytes[I]);
          Repl += Hex;
        }
        GasAsm += Repl;
      } else {
        GasAsm += Line;
      }
      GasAsm += '\n';
      Pos = End + 1;
    }
  }

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
  char Dir[] = "/tmp/maoidXXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string Base = Dir;
  std::FILE *F = std::fopen((Base + "/t.s").c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(GasAsm.data(), 1, GasAsm.size(), F);
  std::fclose(F);
  std::string Cmd =
      "as --64 -o " + Base + "/t.o " + Base + "/t.s 2>/dev/null && objdump "
      "-d -j .text " + Base + "/t.o | awk '/^[[:space:]]+[0-9a-f]+:/ {for "
      "(j=2; j<=NF; j++) { if ($j ~ /^[0-9a-f][0-9a-f]$/) printf \"%s\", "
      "$j; else break }}' > " + Base + "/bytes.txt";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  std::string GasHex;
  ASSERT_TRUE(readWholeFile(Base + "/bytes.txt", GasHex));
  std::string Cleanup = "rm -rf " + Base;
  (void)std::system(Cleanup.c_str());

  EXPECT_EQ(MaoHex, GasHex)
      << "MAO-assembled workload differs from GNU as output";
}

} // namespace
