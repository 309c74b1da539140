//===- tests/GasCrossTest.cpp - Cross-validation against GNU as --------------==//
//
// When the system assembler and objdump are installed, these tests assemble
// reference programs with both MAO's encoder and GNU as and require
// byte-identical .text output. Skipped on systems without binutils.
//
//===----------------------------------------------------------------------===//

#include "GasOracle.h"
#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

using namespace mao;

namespace {

/// GNU as's .text bytes of \p Asm as hex, or "" on failure.
std::string gasTextBytes(const std::string &Asm) {
  std::map<std::string, GasSection> Sections;
  return assembleWithGas(Asm, Sections) ? Sections[".text"].Hex : "";
}

std::string maoTextBytes(const std::string &Asm) {
  auto UnitOr = parseAssembly(Asm);
  if (!UnitOr.ok())
    return "<parse error>";
  auto BytesOr = assembleUnit(*UnitOr);
  if (!BytesOr.ok())
    return "<assemble error: " + BytesOr.message() + ">";
  auto It = BytesOr->find(".text");
  if (It == BytesOr->end())
    return "";
  std::string Hex;
  char Buf[4];
  for (uint8_t B : It->second) {
    std::snprintf(Buf, sizeof(Buf), "%02x", B);
    Hex += Buf;
  }
  return Hex;
}

void expectMatchesGas(const std::string &Asm) {
  if (!haveBinutils())
    GTEST_SKIP() << "binutils not installed";
  std::string Gas = gasTextBytes(Asm);
  ASSERT_FALSE(Gas.empty()) << "gas failed on:\n" << Asm;
  EXPECT_EQ(maoTextBytes(Asm), Gas) << Asm;
}

TEST(GasCross, PaperRelaxationExampleShort) {
  std::string S = "\t.text\nmain:\n"
                  "\tpushq %rbp\n"
                  "\tmovq %rsp, %rbp\n"
                  "\tmovl $5, -4(%rbp)\n"
                  "\tjmp .LTAIL\n"
                  ".LBODY:\n";
  for (int I = 0; I < 15; ++I)
    S += "\taddl $1, -4(%rbp)\n\tsubl $1, -4(%rbp)\n";
  S += ".LTAIL:\n\tcmpl $0, -4(%rbp)\n\tjne .LBODY\n\tret\n";
  expectMatchesGas(S);
}

TEST(GasCross, PaperRelaxationExampleGrown) {
  // The nop pushes the branch out of rel8 range: gas and MAO must both
  // produce the grown encoding.
  std::string S = "\t.text\nmain:\n"
                  "\tpushq %rbp\n"
                  "\tmovq %rsp, %rbp\n"
                  "\tmovl $5, -4(%rbp)\n"
                  "\tjmp .LTAIL\n"
                  ".LBODY:\n";
  for (int I = 0; I < 16; ++I)
    S += "\taddl $1, -4(%rbp)\n\tsubl $1, -4(%rbp)\n";
  S += "\tnop\n";
  S += ".LTAIL:\n\tcmpl $0, -4(%rbp)\n\tjne .LBODY\n\tret\n";
  expectMatchesGas(S);
}

TEST(GasCross, Mcf181LoopSnippet) {
  // The paper's Fig. 1 loop (181.mcf) with the strategic nop.
  std::string S = R"(	.text
.L3:
	movsbl 1(%rdi,%r8,4), %edx
	movsbl (%rdi,%r8,4), %eax
	addl %eax, %edx
	movl %edx, (%rsi,%r8,4)
	addq $1, %r8
	nop
.L5:
	movsbl 1(%rdi,%r8,4), %edx
	movsbl (%rdi,%r8,4), %eax
	addl %eax, %edx
	movl %edx, (%rsi,%r8,4)
	addq $1, %r8
	cmpl %r8d, %r9d
	jg .L3
)";
  expectMatchesGas(S);
}

const char *BroadMix = R"(	.text
f:
	pushq %rbp
	movq %rsp, %rbp
	subq $152, %rsp
	movslq %edi, %rax
	movzbl (%rdi), %ecx
	leaq 8(%rsp,%rax,4), %rsi
	imull $100, %ecx, %edx
	shrl $12, %edi
	xorl %edi, %ebx
	subl %ebx, %ecx
	cmovge %eax, %ebx
	setne %dl
	movsbl %dl, %edx
	testq %rdi, %rdi
	je .LX
	negq %rdx
	movabs $81985529216486895, %r12
	movabsq $-81985529216486895, %rax
	movabsq $2147483648, %rcx
	notl %eax
	incl %eax
	decq %rcx
.LX:
	movss (%rdi,%rax,4), %xmm0
	addss %xmm0, %xmm0
	movss %xmm0, (%rdi,%rax,4)
	prefetchnta 64(%rsi)
	leave
	ret
)";

TEST(GasCross, BroadInstructionMix) { expectMatchesGas(BroadMix); }

TEST(GasCross, CrlfInputMatchesGas) {
  // The same program saved with CRLF line endings: MAO models every line
  // as it does the LF text, and its .text equals what gas makes of it.
  std::string S;
  for (const char *C = BroadMix; *C; ++C) {
    if (*C == '\n')
      S += '\r';
    S += *C;
  }
  expectMatchesGas(S);
}

TEST(GasCross, AlignmentDirectives) {
  std::string S = R"(	.text
f:
	ret
	.p2align 4,,15
.LX:
	movl $1, %eax
	ret
	.p2align 3
.LY:
	ret
)";
  expectMatchesGas(S);
}

TEST(GasCross, ColdPathWithBothBranchSizes) {
  // A function whose first branch needs rel32 and second stays rel8.
  std::string S = "\t.text\nf:\n\tcmpl $1, %edi\n\tje .LFAR\n";
  S += "\tcmpl $2, %edi\n\tje .LNEAR\n";
  for (int I = 0; I < 8; ++I)
    S += "\taddl $1, %eax\n";
  S += ".LNEAR:\n";
  for (int I = 0; I < 40; ++I)
    S += "\timull $3, %eax, %eax\n";
  S += ".LFAR:\n\tret\n";
  expectMatchesGas(S);
}

// Layouts that only gas's own relaxation rule lays out as gas does
// (tests/GasOracle.h says why for each).

TEST(GasCross, AlignedLoopBehindABackwardBranch) {
  expectMatchesGas(alignedLoopAsm());
}

TEST(GasCross, ForwardJumpAcrossAnAlignmentKeepsItsPassEstimate) {
  expectMatchesGas(forwardAcrossAlignAsm());
}

TEST(GasCross, EstimateBehindTheBranchDoesNotGrowIt) {
  expectMatchesGas(staleEstimateAsm());
}

TEST(GasCross, BareSymbolDataOperands) {
  // A bare symbol outside a branch or call is an absolute memory operand:
  // mod=00 rm=100 with a no-base, no-index SIB and a disp32.
  std::string S = R"(	.data
counter:
	.long 0
	.text
f:
	shrl $3, counter
	movl counter, %eax
	addq counter, %rcx
	ret
)";
  expectMatchesGas(S);
}

TEST(GasCross, ZeroAbsoluteAddressRoundTrips) {
  if (!haveBinutils())
    GTEST_SKIP() << "binutils not installed";
  const std::string S = "\t.text\nf:\n\tmovq %rax, 0\n\tmovl 0, %eax\n\tret\n";
  auto UnitOr = parseAssembly(S);
  ASSERT_TRUE(UnitOr.ok());
  const std::string Emitted = emitAssembly(*UnitOr);
  EXPECT_EQ(gasTextBytes(Emitted), gasTextBytes(S)) << Emitted;
  expectMatchesGas(S);
}

TEST(GasCross, StringEscapes) {
  // Octal (with gas's reading of 8 and 9 as octal digits), \x with every
  // hex digit that follows, the named escapes, and escapes gas takes
  // literally.
  std::string S = R"(	.text
f:
	ret
	.ascii "\x41\b\f\101\\\""
	.ascii "\x4142\19\q\X4a\0012\xg\n\r\t"
	.string "a", "b\0"
	.asciz "\377"
	ret
)";
  expectMatchesGas(S);
}

} // namespace
