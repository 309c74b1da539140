//===- tests/X86Test.cpp - Register, opcode, effects, encoder tests --------==//

#include "TestCorpus.h"
#include "asm/Parser.h"
#include "x86/Encoder.h"
#include "x86/Instruction.h"
#include "x86/Registers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mao;

namespace {

std::vector<uint8_t> enc(const Instruction &Insn) {
  std::vector<uint8_t> Bytes;
  MaoStatus S = encodeInstruction(Insn, 0, nullptr, Bytes);
  EXPECT_TRUE(S.ok()) << S.message();
  return Bytes;
}

std::vector<uint8_t> bytes(std::initializer_list<int> L) {
  std::vector<uint8_t> V;
  for (int B : L)
    V.push_back(static_cast<uint8_t>(B));
  return V;
}

// --- Registers --------------------------------------------------------------

TEST(Registers, NamesRoundTrip) {
  for (unsigned I = 1; I < static_cast<unsigned>(Reg::NumRegs); ++I) {
    Reg R = static_cast<Reg>(I);
    EXPECT_EQ(parseRegName(regName(R)), R) << regName(R);
  }
}

TEST(Operands, MemoryEqualityCoversDisplacementAndSymbol) {
  MemRef M;
  M.Base = Reg::RSP;
  EXPECT_EQ(Operand::makeMem(M, 8), Operand::makeMem(M, 8));
  EXPECT_NE(Operand::makeMem(M, 8), Operand::makeMem(M, 16));
  EXPECT_NE(Operand::makeMem(M, 8), Operand::makeMem(M, 8, "sym"));
  EXPECT_NE(Operand::makeMem(M, 8, "a"), Operand::makeMem(M, 8, "b"));
  EXPECT_TRUE(Operand::makeMem(M, 8, "sym").hasSymDisp());
  EXPECT_FALSE(Operand::makeMem(M, 8).hasSymDisp());
  EXPECT_FALSE(Operand::makeSymbol("sym").hasSymDisp());
  EXPECT_EQ(Operand::makeMem(M, 8, "sym").toString(), "sym+8(%rsp)");
}

TEST(Registers, SuperRegisters) {
  EXPECT_EQ(superReg(Reg::AL), Reg::RAX);
  EXPECT_EQ(superReg(Reg::AH), Reg::RAX);
  EXPECT_EQ(superReg(Reg::EAX), Reg::RAX);
  EXPECT_EQ(superReg(Reg::R15D), Reg::R15);
  EXPECT_EQ(superReg(Reg::RSP), Reg::RSP);
}

TEST(Registers, WidthViews) {
  EXPECT_EQ(gprWithWidth(Reg::RAX, Width::L), Reg::EAX);
  EXPECT_EQ(gprWithWidth(Reg::RAX, Width::B), Reg::AL);
  EXPECT_EQ(gprWithWidth(Reg::R9, Width::W), Reg::R9W);
  EXPECT_EQ(gprWithWidth(Reg::RDI, Width::B), Reg::DIL);
}

TEST(Registers, RexProperties) {
  EXPECT_TRUE(regNeedsRex(Reg::SPL));
  EXPECT_TRUE(regNeedsRex(Reg::R8));
  EXPECT_FALSE(regNeedsRex(Reg::AL));
  EXPECT_TRUE(regIsHighByte(Reg::AH));
  EXPECT_FALSE(regIsHighByte(Reg::SPL));
}

TEST(Registers, Encodings) {
  EXPECT_EQ(regEncoding(Reg::RAX), 0u);
  EXPECT_EQ(regEncoding(Reg::RDI), 7u);
  EXPECT_EQ(regEncoding(Reg::R8), 8u);
  EXPECT_EQ(regEncoding(Reg::R15B), 15u);
  EXPECT_EQ(regEncoding(Reg::AH), 4u); // Same slot as SPL without REX.
}

// --- Condition codes --------------------------------------------------------

TEST(CondCodes, ParseAliases) {
  EXPECT_EQ(parseCondCode("e"), CondCode::E);
  EXPECT_EQ(parseCondCode("z"), CondCode::E);
  EXPECT_EQ(parseCondCode("nae"), CondCode::B);
  EXPECT_EQ(parseCondCode("nle"), CondCode::G);
  EXPECT_EQ(parseCondCode("xyz"), CondCode::None);
}

TEST(CondCodes, Inversion) {
  EXPECT_EQ(invertCondCode(CondCode::E), CondCode::NE);
  EXPECT_EQ(invertCondCode(CondCode::L), CondCode::GE);
  EXPECT_EQ(invertCondCode(CondCode::A), CondCode::BE);
}

TEST(CondCodes, FlagsUsed) {
  EXPECT_EQ(condCodeFlagsUsed(CondCode::E), FlagZF);
  EXPECT_EQ(condCodeFlagsUsed(CondCode::L), FlagSF | FlagOF);
  EXPECT_EQ(condCodeFlagsUsed(CondCode::BE), FlagCF | FlagZF);
  EXPECT_EQ(condCodeFlagsUsed(CondCode::G), FlagZF | FlagSF | FlagOF);
}

// --- Effects ----------------------------------------------------------------

TEST(Effects, AluDefinesFlagsAndDest) {
  Instruction I = makeInstr(Mnemonic::ADD, Width::Q,
                            Operand::makeReg(Reg::RDI),
                            Operand::makeReg(Reg::RAX));
  InstructionEffects Fx = I.effects();
  EXPECT_EQ(Fx.FlagsDef, FlagsAllStatus);
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RAX)); // read-modify-write
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RDI));
  EXPECT_FALSE(Fx.MemRead);
  EXPECT_FALSE(Fx.MemWrite);
}

TEST(Effects, MovLDefinesFullRegister) {
  // A 32-bit write zero-extends: full def, no use of the old value.
  Instruction I = makeInstr(Mnemonic::MOV, Width::L,
                            Operand::makeReg(Reg::EDI),
                            Operand::makeReg(Reg::EAX));
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX));
  EXPECT_FALSE(Fx.RegUses & regMaskBit(Reg::RAX));
}

TEST(Effects, ByteWriteMerges) {
  Instruction I = makeInstr(Mnemonic::MOV, Width::B,
                            Operand::makeReg(Reg::DIL),
                            Operand::makeReg(Reg::AL));
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RAX)); // merge preserves bits
}

TEST(Effects, CmpReadsBothWritesNone) {
  Instruction I = makeInstr(Mnemonic::CMP, Width::L,
                            Operand::makeReg(Reg::R8D),
                            Operand::makeReg(Reg::R9D));
  InstructionEffects Fx = I.effects();
  EXPECT_FALSE(Fx.RegDefs & regMaskBit(Reg::R9));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::R8));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::R9));
  EXPECT_EQ(Fx.FlagsDef, FlagsAllStatus);
}

TEST(Effects, MemoryOperandUsesAddressRegs) {
  MemRef M;
  M.Base = Reg::RSP;
  M.Index = Reg::RCX;
  M.Scale = 4;
  Instruction I = makeInstr(Mnemonic::MOV, Width::Q, Operand::makeMem(M, 24),
                            Operand::makeReg(Reg::RDX));
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.MemRead);
  EXPECT_FALSE(Fx.MemWrite);
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RSP));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RCX));
}

TEST(Effects, StoreWritesMemory) {
  MemRef M;
  M.Base = Reg::RSI;
  Instruction I = makeInstr(Mnemonic::MOV, Width::L,
                            Operand::makeReg(Reg::EDX), Operand::makeMem(M));
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.MemWrite);
  EXPECT_FALSE(Fx.MemRead);
}

TEST(Effects, DivImplicit) {
  Instruction I = makeInstr(Mnemonic::DIV, Width::Q,
                            Operand::makeReg(Reg::RCX));
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX));
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RDX));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RAX));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RDX));
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RCX));
}

TEST(Effects, ImulOneOpVsTwoOp) {
  Instruction One = makeInstr(Mnemonic::IMUL, Width::Q,
                              Operand::makeReg(Reg::R8));
  EXPECT_TRUE(One.effects().RegDefs & regMaskBit(Reg::RDX));
  Instruction Two = makeInstr(Mnemonic::IMUL, Width::Q,
                              Operand::makeReg(Reg::RDX),
                              Operand::makeReg(Reg::RAX));
  // Two-operand form does not implicitly define RDX (it reads it as an
  // explicit source here).
  EXPECT_FALSE(Two.effects().RegDefs & regMaskBit(Reg::RDX));
}

TEST(Effects, ByteMulDivKeepTheHighHalfInAh) {
  // ax = al * src and al, ah = ax / src: %rdx is neither read nor written.
  for (Mnemonic Mn :
       {Mnemonic::MUL, Mnemonic::IMUL, Mnemonic::DIV, Mnemonic::IDIV}) {
    Instruction I = makeInstr(Mn, Width::B, Operand::makeReg(Reg::CL));
    InstructionEffects Fx = I.effects();
    EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX)) << I.mnemonicText();
    EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RAX)) << I.mnemonicText();
    EXPECT_FALSE(Fx.RegDefs & regMaskBit(Reg::RDX)) << I.mnemonicText();
    EXPECT_FALSE(Fx.RegUses & regMaskBit(Reg::RDX)) << I.mnemonicText();
  }
}

TEST(Effects, CallClobbersAndBarriers) {
  Instruction I = makeCall("foo");
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.Barrier);
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::RAX));
  EXPECT_TRUE(Fx.RegDefs & regMaskBit(Reg::R11));
  EXPECT_FALSE(Fx.RegDefs & regMaskBit(Reg::RBX)); // callee-saved
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RDI));
}

TEST(Effects, JccUsesFlagsByCondition) {
  Instruction I = makeCondJump(CondCode::G, ".L1");
  EXPECT_EQ(I.effects().FlagsUse, FlagZF | FlagSF | FlagOF);
  EXPECT_EQ(I.effects().FlagsDef, 0);
}

TEST(Effects, TestDefinesAllStatusFlags) {
  Instruction I = makeInstr(Mnemonic::TEST, Width::L,
                            Operand::makeReg(Reg::R15D),
                            Operand::makeReg(Reg::R15D));
  EXPECT_EQ(I.effects().FlagsDef, FlagsAllStatus);
  EXPECT_FALSE(I.effects().RegDefs & regMaskBit(Reg::R15));
}

TEST(Effects, OpaqueIsBarrier) {
  Instruction I = makeOpaque("lock cmpxchg %rax, (%rbx)");
  InstructionEffects Fx = I.effects();
  EXPECT_TRUE(Fx.Barrier);
  EXPECT_EQ(Fx.RegDefs, ~RegMask(0));
  EXPECT_EQ(Fx.RegUses, ~RegMask(0));
}

TEST(Effects, ShiftByClUsesRcx) {
  Instruction I = makeInstr(Mnemonic::SHL, Width::Q,
                            Operand::makeReg(Reg::CL),
                            Operand::makeReg(Reg::R9));
  EXPECT_TRUE(I.effects().RegUses & regMaskBit(Reg::RCX));
}

TEST(Effects, PrefetchHasNoArchitecturalEffect) {
  MemRef M;
  M.Base = Reg::RDI;
  Instruction I = makeInstr(Mnemonic::PREFETCHNTA, Width::None,
                            Operand::makeMem(M));
  InstructionEffects Fx = I.effects();
  EXPECT_FALSE(Fx.MemRead);
  EXPECT_FALSE(Fx.MemWrite);
  EXPECT_EQ(Fx.RegDefs, 0u);
  EXPECT_TRUE(Fx.RegUses & regMaskBit(Reg::RDI));
}

// --- Encoder: known byte patterns (cross-checked against GNU as). -----------

TEST(Encoder, MovRegReg) {
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::Q,
                          Operand::makeReg(Reg::RSP),
                          Operand::makeReg(Reg::RBP))),
            bytes({0x48, 0x89, 0xe5}));
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::L,
                          Operand::makeReg(Reg::EAX),
                          Operand::makeReg(Reg::EAX))),
            bytes({0x89, 0xc0}));
}

TEST(Encoder, MovImmForms) {
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::L, Operand::makeImm(5),
                          Operand::makeReg(Reg::EAX))),
            bytes({0xb8, 0x05, 0x00, 0x00, 0x00}));
  // 64-bit move of a small immediate: sign-extended C7 form.
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::Q, Operand::makeImm(5),
                          Operand::makeReg(Reg::RAX))),
            bytes({0x48, 0xc7, 0xc0, 0x05, 0x00, 0x00, 0x00}));
  // movabs for a 64-bit immediate.
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::Q,
                          Operand::makeImm(0x0123456789abcdefLL),
                          Operand::makeReg(Reg::RAX))),
            bytes({0x48, 0xb8, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23,
                   0x01}));
}

TEST(Encoder, MemAddressingModes) {
  // movq 24(%rsp), %rdx -> RSP base forces a SIB byte.
  MemRef M;
  M.Base = Reg::RSP;
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::Q, Operand::makeMem(M, 24),
                          Operand::makeReg(Reg::RDX))),
            bytes({0x48, 0x8b, 0x54, 0x24, 0x18}));
  // movl (%rdi,%r8,4), %edx -> REX.X for r8.
  MemRef M2;
  M2.Base = Reg::RDI;
  M2.Index = Reg::R8;
  M2.Scale = 4;
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::L, Operand::makeMem(M2),
                          Operand::makeReg(Reg::EDX))),
            bytes({0x42, 0x8b, 0x14, 0x87}));
  // (%rbp) with zero displacement still needs disp8.
  MemRef M3;
  M3.Base = Reg::RBP;
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::L, Operand::makeMem(M3),
                          Operand::makeReg(Reg::EAX))),
            bytes({0x8b, 0x45, 0x00}));
  // Same for r13 (encoding 13 & 7 == 5).
  MemRef M4;
  M4.Base = Reg::R13;
  EXPECT_EQ(enc(makeInstr(Mnemonic::MOV, Width::L, Operand::makeMem(M4),
                          Operand::makeReg(Reg::EAX))),
            bytes({0x41, 0x8b, 0x45, 0x00}));
}

TEST(Encoder, AluImmediateSelection) {
  // Small immediate -> 83 /0 ib.
  EXPECT_EQ(enc(makeInstr(Mnemonic::ADD, Width::Q, Operand::makeImm(1),
                          Operand::makeReg(Reg::R8))),
            bytes({0x49, 0x83, 0xc0, 0x01}));
  // Accumulator with a 32-bit immediate -> short form 05 id.
  EXPECT_EQ(enc(makeInstr(Mnemonic::ADD, Width::L, Operand::makeImm(255),
                          Operand::makeReg(Reg::EAX))),
            bytes({0x05, 0xff, 0x00, 0x00, 0x00}));
  // Non-accumulator -> 81 /0 id.
  EXPECT_EQ(enc(makeInstr(Mnemonic::ADD, Width::L, Operand::makeImm(255),
                          Operand::makeReg(Reg::EBX))),
            bytes({0x81, 0xc3, 0xff, 0x00, 0x00, 0x00}));
}

TEST(Encoder, RedundantTestPatternBytes) {
  // The paper's REDTEST example: subl $16, %r15d ; testl %r15d, %r15d.
  EXPECT_EQ(enc(makeInstr(Mnemonic::SUB, Width::L, Operand::makeImm(16),
                          Operand::makeReg(Reg::R15D))),
            bytes({0x41, 0x83, 0xef, 0x10}));
  EXPECT_EQ(enc(makeInstr(Mnemonic::TEST, Width::L,
                          Operand::makeReg(Reg::R15D),
                          Operand::makeReg(Reg::R15D))),
            bytes({0x45, 0x85, 0xff}));
}

TEST(Encoder, BranchSizes) {
  Instruction Short = makeJump(".L1");
  Short.BranchSize = 1;
  EXPECT_EQ(enc(Short).size(), 2u);
  Instruction Long = makeJump(".L1");
  Long.BranchSize = 4;
  EXPECT_EQ(enc(Long).size(), 5u);
  Instruction CondShort = makeCondJump(CondCode::NE, ".L1");
  CondShort.BranchSize = 1;
  EXPECT_EQ(enc(CondShort).size(), 2u);
  Instruction CondLong = makeCondJump(CondCode::NE, ".L1");
  CondLong.BranchSize = 4;
  EXPECT_EQ(enc(CondLong).size(), 6u);
  EXPECT_EQ(enc(makeCall("foo")).size(), 5u);
}

TEST(Encoder, BranchDisplacementsResolve) {
  LabelAddressMap Labels;
  Labels[".L1"] = 0x15;
  Instruction J = makeJump(".L1");
  J.BranchSize = 1;
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(encodeInstruction(J, 0xb, &Labels, Bytes).ok());
  EXPECT_EQ(Bytes, bytes({0xeb, 0x08})); // matches the gas reference

  // Backward conditional branch (jne .L1 from 0x19, target 0xd -> 0xf2).
  Labels[".L1"] = 0xd;
  Instruction C = makeCondJump(CondCode::NE, ".L1");
  C.BranchSize = 1;
  Bytes.clear();
  ASSERT_TRUE(encodeInstruction(C, 0x19, &Labels, Bytes).ok());
  EXPECT_EQ(Bytes, bytes({0x75, 0xf2}));
}

TEST(Encoder, Rel8OutOfRangeFails) {
  LabelAddressMap Labels;
  Labels[".L1"] = 1000;
  Instruction J = makeJump(".L1");
  J.BranchSize = 1;
  std::vector<uint8_t> Bytes;
  EXPECT_FALSE(encodeInstruction(J, 0, &Labels, Bytes).ok());
}

TEST(Encoder, RipRelative) {
  MemRef M;
  M.Base = Reg::RIP;
  Instruction I = makeInstr(Mnemonic::LEA, Width::Q,
                            Operand::makeMem(M, 0, ".LC0"),
                            Operand::makeReg(Reg::RDI));
  EXPECT_EQ(enc(I), bytes({0x48, 0x8d, 0x3d, 0x00, 0x00, 0x00, 0x00}));
}

TEST(Encoder, MultiByteNops) {
  for (unsigned Len = 1; Len <= 15; ++Len)
    EXPECT_EQ(enc(makeNop(Len)).size(), Len) << "nop length " << Len;
  EXPECT_EQ(enc(makeNop(1)), bytes({0x90}));
  EXPECT_EQ(enc(makeNop(3)), bytes({0x0f, 0x1f, 0x00}));
}

TEST(Encoder, HighByteWithRexRejected) {
  // movb %ah, %r8b is unencodable: AH requires no REX, r8b requires one.
  Instruction I = makeInstr(Mnemonic::MOV, Width::B,
                            Operand::makeReg(Reg::AH),
                            Operand::makeReg(Reg::R8B));
  std::vector<uint8_t> Bytes;
  EXPECT_FALSE(encodeInstruction(I, 0, nullptr, Bytes).ok());
}

TEST(Encoder, MovzxMovsx) {
  MemRef M;
  M.Base = Reg::RDI;
  Instruction I = makeInstr(Mnemonic::MOVZX, Width::L, Operand::makeMem(M),
                            Operand::makeReg(Reg::EAX));
  I.SrcW = Width::B;
  EXPECT_EQ(enc(I), bytes({0x0f, 0xb6, 0x07}));
  Instruction S = makeInstr(Mnemonic::MOVSX, Width::Q,
                            Operand::makeReg(Reg::EDI),
                            Operand::makeReg(Reg::RAX));
  S.SrcW = Width::L;
  EXPECT_EQ(enc(S), bytes({0x48, 0x63, 0xc7})); // movslq
}

/// Expects instructionLength to agree with the encoder's byte count for
/// \p Insn at both branch widths; returns how many encodings it compared.
unsigned expectLengthMatchesEncoding(Instruction Insn, const std::string &What) {
  unsigned Compared = 0;
  for (uint8_t BranchSize : {1, 4}) {
    Insn.BranchSize = BranchSize;
    std::vector<uint8_t> Bytes;
    if (!encodeInstructionNoInject(Insn, 0, nullptr, Bytes).ok())
      continue; // Outside instructionLength's contract.
    EXPECT_EQ(instructionLength(Insn), Bytes.size())
        << What << ": " << Insn.toString() << " at BranchSize "
        << unsigned(BranchSize);
    ++Compared;
  }
  return Compared;
}

TEST(Encoder, LengthsMatchEncoding) {
  // instructionLength measures without building bytes; it must agree with
  // actual encoding for a spread of instructions...
  std::vector<Instruction> Insns = {
      makeInstr(Mnemonic::RET),
      makeInstr(Mnemonic::LEAVE),
      makeInstr(Mnemonic::CLTQ),
      makeNop(7),
      makeCall("external_symbol"),
      makeInstr(Mnemonic::PUSH, Width::Q, Operand::makeReg(Reg::R15)),
      makeInstr(Mnemonic::IMUL, Width::Q, Operand::makeReg(Reg::RDX),
                Operand::makeReg(Reg::RAX)),
  };
  for (const Instruction &I : Insns) {
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(encodeInstruction(I, 0, nullptr, Bytes).ok());
    EXPECT_EQ(instructionLength(I), Bytes.size()) << I.toString();
  }

  // ...and for every instruction of the differential corpus: the example
  // programs and every SPEC profile, at rel8 and rel32.
  const auto Corpus = exampleAndSpecCorpus();
  ASSERT_GT(Corpus.size(), 19u);
  size_t Compared = 0;
  for (const auto &[Name, Text] : Corpus) {
    auto UnitOr = parseAssembly(Text);
    ASSERT_TRUE(UnitOr.ok()) << Name;
    for (const MaoEntry &E : UnitOr->entries())
      if (E.isInstruction())
        Compared += expectLengthMatchesEncoding(E.instruction(), Name);
    if (HasFailure())
      return;
  }
  EXPECT_GT(Compared, 100000u);
}

} // namespace
