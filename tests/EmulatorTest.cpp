//===- tests/EmulatorTest.cpp - Architectural interpreter tests --------------==//

#include "asm/Parser.h"
#include "sim/Emulator.h"

#include <gtest/gtest.h>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

std::string wrapFunction(const std::string &Body) {
  return "\t.text\n\t.type f, @function\nf:\n" + Body + "\t.size f, .-f\n";
}

/// Runs `f` and returns the final state; fails the test on abnormal stop.
MachineState runF(MaoUnit &Unit, MachineState Init = MachineState()) {
  Emulator Em(Unit);
  EmulationResult R = Em.run("f", Init);
  EXPECT_EQ(R.Reason, StopReason::Returned) << R.Message;
  return R.Final;
}

TEST(Emulator, MovAndArithmetic) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $10, %eax
	addl $32, %eax
	subl $2, %eax
	ret
)"));
  EXPECT_EQ(runF(Unit).gprValue(Reg::EAX), 40u);
}

TEST(Emulator, ThirtyTwoBitWritesZeroExtend) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $-1, %rax
	movl $7, %eax
	ret
)"));
  EXPECT_EQ(runF(Unit).gpr(Reg::RAX), 7u);
}

TEST(Emulator, ByteWritesMerge) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $0x1234, %rax
	movb $0xff, %al
	ret
)"));
  EXPECT_EQ(runF(Unit).gpr(Reg::RAX), 0x12ffu);
}

TEST(Emulator, LoopSum) {
  // Sum 1..100 = 5050.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $0, %eax
	movl $1, %ecx
.LLOOP:
	addl %ecx, %eax
	addl $1, %ecx
	cmpl $101, %ecx
	jne .LLOOP
	ret
)"));
  EXPECT_EQ(runF(Unit).gprValue(Reg::EAX), 5050u);
}

TEST(Emulator, SignedComparisons) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $-5, %eax
	cmpl $3, %eax
	jl .LNEG
	movl $0, %ebx
	ret
.LNEG:
	movl $1, %ebx
	ret
)"));
  EXPECT_EQ(runF(Unit).gprValue(Reg::EBX), 1u);
}

TEST(Emulator, UnsignedComparisons) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $-5, %eax
	cmpl $3, %eax
	ja .LABOVE
	movl $0, %ebx
	ret
.LABOVE:
	movl $1, %ebx
	ret
)"));
  // 0xfffffffb > 3 unsigned.
  EXPECT_EQ(runF(Unit).gprValue(Reg::EBX), 1u);
}

TEST(Emulator, SetccAndCmov) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $7, %eax
	cmpl $7, %eax
	sete %cl
	movzbl %cl, %ecx
	movl $100, %edx
	movl $200, %ebx
	cmpl $1, %ecx
	cmove %edx, %ebx
	ret
)"));
  MachineState S = runF(Unit);
  EXPECT_EQ(S.gprValue(Reg::ECX), 1u);
  EXPECT_EQ(S.gprValue(Reg::EBX), 100u);
}

TEST(Emulator, MovzxMovsx) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $0x80, %eax
	movsbl %al, %ecx
	movzbl %al, %edx
	movslq %ecx, %rsi
	ret
)"));
  MachineState S = runF(Unit);
  EXPECT_EQ(S.gprValue(Reg::ECX), 0xffffff80u);
  EXPECT_EQ(S.gprValue(Reg::EDX), 0x80u);
  EXPECT_EQ(S.gpr(Reg::RSI), 0xffffffffffffff80ull);
}

TEST(Emulator, ShiftsAndRotates) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $-16, %eax
	sarl $2, %eax
	movl $16, %ebx
	shrl $2, %ebx
	movl $1, %ecx
	shll $31, %ecx
	movl $0x80000001, %edx
	roll $1, %edx
	ret
)"));
  MachineState S = runF(Unit);
  EXPECT_EQ(S.gprValue(Reg::EAX), static_cast<uint32_t>(-4));
  EXPECT_EQ(S.gprValue(Reg::EBX), 4u);
  EXPECT_EQ(S.gprValue(Reg::ECX), 0x80000000u);
  EXPECT_EQ(S.gprValue(Reg::EDX), 3u);
}

TEST(Emulator, MulDiv) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $100, %eax
	movl $7, %ecx
	cltd
	idivl %ecx
	movl %edx, %ebx
	imull $6, %eax, %eax
	ret
)"));
  MachineState S = runF(Unit);
  EXPECT_EQ(S.gprValue(Reg::EAX), 84u); // (100/7)*6
  EXPECT_EQ(S.gprValue(Reg::EBX), 2u);  // 100%7
}

TEST(Emulator, ByteMulDivUseAh) {
  // Values from the hardware: the high byte of a product and the remainder
  // go to %ah, and %edx keeps its value.
  struct Case {
    const char *Op;
    uint32_t Eax;
    uint32_t Ecx;
    uint64_t Rax; ///< After the op.
  };
  const Case Cases[] = {
      {"mulb", 7, 3, 0x15},             // ax = 7 * 3
      {"mulb", 200, 3, 0x258},          // ax = 600: %ah = 2
      {"imulb", 0xfd, 5, 0xfff1},       // ax = -3 * 5 = -15
      {"divb", 1000, 7, 0x68e},         // %al = 142, %ah = 6
      {"idivb", 0xffffff9c, 7, 0xfffffef2}, // -100 / 7: %al = -14, %ah = -2
  };
  for (const Case &C : Cases) {
    MaoUnit Unit = parseOk(wrapFunction(
        "\tmovl $5, %edx\n\tmovl $" + std::to_string(C.Eax) +
        ", %eax\n\tmovl $" + std::to_string(C.Ecx) + ", %ecx\n\t" + C.Op +
        " %cl\n\tret\n"));
    MachineState S = runF(Unit);
    EXPECT_EQ(S.gpr(Reg::RAX), C.Rax) << C.Op << " " << C.Eax;
    EXPECT_EQ(S.gpr(Reg::RDX), 5u) << C.Op << " " << C.Eax;
  }
}

TEST(Emulator, MemoryRoundTrip) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	pushq %rbp
	movq %rsp, %rbp
	movl $42, -4(%rbp)
	movl -4(%rbp), %eax
	addl $1, -4(%rbp)
	movl -4(%rbp), %ecx
	leave
	ret
)"));
  MachineState S = runF(Unit);
  EXPECT_EQ(S.gprValue(Reg::EAX), 42u);
  EXPECT_EQ(S.gprValue(Reg::ECX), 43u);
}

TEST(Emulator, IndexedAddressing) {
  std::string Body = R"(	movq $0x100000, %rdi
	movl $0, %ecx
.LINIT:
	movslq %ecx, %rax
	movl %ecx, (%rdi,%rax,4)
	addl $1, %ecx
	cmpl $8, %ecx
	jne .LINIT
	movl 12(%rdi), %eax
	ret
)";
  MaoUnit Unit = parseOk(wrapFunction(Body));
  EXPECT_EQ(runF(Unit).gprValue(Reg::EAX), 3u);
}

TEST(Emulator, CallAndReturn) {
  std::string S = R"(	.text
	.type f, @function
f:
	movl $5, %edi
	call g
	addl $1, %eax
	ret
	.size f, .-f
	.type g, @function
g:
	leal 10(%rdi), %eax
	ret
	.size g, .-g
)";
  MaoUnit Unit = parseOk(S);
  EXPECT_EQ(runF(Unit).gprValue(Reg::EAX), 16u);
}

TEST(Emulator, PushPop) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $111, %rax
	pushq %rax
	movq $222, %rax
	popq %rcx
	ret
)"));
  EXPECT_EQ(runF(Unit).gpr(Reg::RCX), 111u);
}

TEST(Emulator, LeaComputation) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $100, %rdi
	movq $3, %rax
	leaq 8(%rdi,%rax,4), %rcx
	ret
)"));
  EXPECT_EQ(runF(Unit).gpr(Reg::RCX), 120u);
}

TEST(Emulator, SseScalarFloat) {
  // 2.0f + 3.0f = 5.0f via memory.
  MaoUnit Unit = parseOk(wrapFunction(R"(	movq $0x200000, %rdi
	movl $0x40000000, (%rdi)
	movl $0x40400000, 4(%rdi)
	movss (%rdi), %xmm0
	addss 4(%rdi), %xmm0
	movss %xmm0, 8(%rdi)
	movl 8(%rdi), %eax
	ret
)"));
  EXPECT_EQ(runF(Unit).gprValue(Reg::EAX), 0x40a00000u); // 5.0f
}

TEST(Emulator, StepLimitStops) {
  MaoUnit Unit = parseOk(wrapFunction(".LSPIN:\n\tjmp .LSPIN\n\tret\n"));
  Emulator Em(Unit);
  Emulator::Config Cfg;
  Cfg.MaxSteps = 1000;
  EmulationResult R = Em.run("f", MachineState(), Cfg);
  EXPECT_EQ(R.Reason, StopReason::StepLimit);
  EXPECT_EQ(R.InstructionsExecuted, 1000u);
}

TEST(Emulator, OpaqueStops) {
  MaoUnit Unit = parseOk(wrapFunction("\tlock xaddl %eax, (%rdi)\n\tret\n"));
  Emulator Em(Unit);
  EmulationResult R = Em.run("f", MachineState());
  EXPECT_EQ(R.Reason, StopReason::Unsupported);
}

TEST(Emulator, IncDecPreserveCarry) {
  MaoUnit Unit = parseOk(wrapFunction(R"(	movl $-1, %eax
	addl $1, %eax
	incl %ecx
	jc .LCARRY
	movl $0, %ebx
	ret
.LCARRY:
	movl $1, %ebx
	ret
)"));
  // add sets CF; inc must not clear it.
  EXPECT_EQ(runF(Unit).gprValue(Reg::EBX), 1u);
}

TEST(Emulator, OnStepSeesPreState) {
  MaoUnit Unit = parseOk(wrapFunction("\tmovl $9, %eax\n\tret\n"));
  Emulator Em(Unit);
  Emulator::Config Cfg;
  std::vector<uint64_t> EaxAtStep;
  Cfg.OnStep = [&](const MaoEntry &, const MachineState &S) {
    EaxAtStep.push_back(S.gprValue(Reg::EAX));
    return true;
  };
  MachineState Init;
  Init.setGpr(Reg::EAX, 5);
  EmulationResult R = Em.run("f", Init, Cfg);
  ASSERT_EQ(R.Reason, StopReason::Returned);
  ASSERT_EQ(EaxAtStep.size(), 2u);
  EXPECT_EQ(EaxAtStep[0], 5u); // Before the mov executes.
  EXPECT_EQ(EaxAtStep[1], 9u); // Before ret, after the mov.
}

} // namespace
