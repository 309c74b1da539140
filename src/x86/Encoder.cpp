//===- x86/Encoder.cpp - x86-64 binary encoder ------------------------------==//

#include "x86/Encoder.h"

#include "support/FaultInjection.h"

#include <cassert>
#include <cstring>

using namespace mao;

namespace {

/// REX prefix bits.
enum RexBit : uint8_t { RexB = 1, RexX = 2, RexR = 4, RexW = 8 };

/// Accumulates one instruction encoding, then serializes it in canonical
/// prefix / opcode / ModRM / SIB / displacement / immediate order.
class EncodingBuilder {
public:
  EncodingBuilder(const Instruction &Insn, int64_t Address,
                  const LabelAddressMap *Labels)
      : Insn(Insn), Address(Address), Labels(Labels) {}

  MaoStatus run(std::vector<uint8_t> &Out);

  /// Builds the encoding and returns its length in \p Length without
  /// producing bytes. No label map, so no displacement check.
  MaoStatus length(unsigned &Length);

private:
  MaoStatus encodeBody();
  /// encodeBody() plus the validity checks every encoding needs; run() and
  /// length() both start here so the two cannot disagree.
  MaoStatus build();

  // Per-kind encoders.
  MaoStatus encodeMov();
  MaoStatus encodeMovx();
  MaoStatus encodeLea();
  MaoStatus encodeAluRMI();
  MaoStatus encodeTest();
  MaoStatus encodeUnaryRM();
  MaoStatus encodeImul();
  MaoStatus encodeShiftRot();
  MaoStatus encodePush();
  MaoStatus encodePop();
  MaoStatus encodeXchg();
  MaoStatus encodeBswap();
  MaoStatus encodeBranch();
  MaoStatus encodeCall();
  MaoStatus encodeRet();
  MaoStatus encodeSetcc();
  MaoStatus encodeCmovcc();
  MaoStatus encodeFixed();
  MaoStatus encodeNop();
  MaoStatus encodeSseMov();
  MaoStatus encodeSseCvtMov();
  MaoStatus encodeSseAlu();
  MaoStatus encodePrefetch();

  // Component helpers ------------------------------------------------------
  void addPrefix(uint8_t Byte) {
    assert(NumPrefixes < sizeof(Prefixes) && "too many prefixes");
    Prefixes[NumPrefixes++] = Byte;
  }
  void addOpcode(uint8_t Byte) {
    assert(OpcodeLen < sizeof(Opcode) && "opcode too long");
    Opcode[OpcodeLen++] = Byte;
  }

  /// Applies operand-size conventions for width \p W: 0x66 for 16-bit,
  /// REX.W for 64-bit.
  void applyWidth(Width W) {
    if (W == Width::W)
      Need66 = true;
    else if (W == Width::Q)
      Rex |= RexW;
  }

  /// Notes register \p R's REX constraints (REX-only byte registers force
  /// an empty REX; high-byte registers forbid one).
  void noteRegConstraints(Reg R) {
    if (regNeedsRex(R) && regWidth(R) == Width::B)
      ForceRex = true;
    if (regIsHighByte(R))
      HighByteUsed = true;
  }

  /// Places \p R in the ModRM reg field.
  void setModRMReg(Reg R) {
    noteRegConstraints(R);
    unsigned Enc = regEncoding(R);
    ModRM |= static_cast<uint8_t>((Enc & 7) << 3);
    if (Enc & 8)
      Rex |= RexR;
    HasModRM = true;
  }

  /// Places digit \p D in the ModRM reg field (/digit forms).
  void setModRMDigit(unsigned D) {
    assert(D < 8 && "ModRM digit out of range");
    ModRM |= static_cast<uint8_t>(D << 3);
    HasModRM = true;
  }

  /// Places a register or memory operand in the ModRM rm/SIB fields.
  MaoStatus setRM(const Operand &Op);

  /// Sets an immediate of \p Bytes bytes.
  void setImm(int64_t Value, unsigned Bytes) {
    Imm = Value;
    ImmSize = Bytes;
  }

  /// Resolves \p Sym + \p Addend to an address, or 0 when unknown.
  int64_t resolveSym(const std::string &Sym, int64_t Addend) const {
    if (!Labels)
      return 0;
    auto It = Labels->find(Sym);
    if (It == Labels->end())
      return 0;
    return It->second + Addend;
  }

  unsigned totalLength() const {
    return NumPrefixes + (Need66 ? 1 : 0) + (rexByteNeeded() ? 1 : 0) +
           OpcodeLen + (HasModRM ? 1 : 0) + (HasSib ? 1 : 0) + DispSize +
           ImmSize;
  }

  bool rexByteNeeded() const { return Rex != 0 || ForceRex; }

  const Instruction &Insn;
  int64_t Address;
  const LabelAddressMap *Labels;

  // Encodings are short and bounded, so the component buffers are plain
  // inline arrays: this builder is constructed once per encoded (or merely
  // validated) instruction and must not touch the heap on the hot path.
  uint8_t Prefixes[4];                // mandatory + legacy prefixes except 66
  uint8_t NumPrefixes = 0;
  bool Need66 = false;
  uint8_t Rex = 0;
  bool ForceRex = false;
  bool HighByteUsed = false;
  uint8_t Opcode[4];
  uint8_t OpcodeLen = 0;
  bool HasModRM = false;
  uint8_t ModRM = 0;
  bool HasSib = false;
  uint8_t Sib = 0;
  unsigned DispSize = 0;
  int64_t Disp = 0;
  bool DispIsPcRel = false;           // patched after length is known
  const std::string *PcRelSym = nullptr; // symbol for PC-relative disp
  int64_t PcRelAddend = 0;
  unsigned ImmSize = 0;
  int64_t Imm = 0;
  uint8_t RawBytes[16];               // fixed-pattern instructions (NOPs)
  uint8_t RawLen = 0;
};

bool fitsInt8(int64_t V) { return V >= -128 && V <= 127; }
bool fitsInt32(int64_t V) {
  return V >= INT64_C(-2147483648) && V <= INT64_C(2147483647);
}

MaoStatus EncodingBuilder::setRM(const Operand &Op) {
  HasModRM = true;
  if (Op.isReg()) {
    noteRegConstraints(Op.R);
    unsigned Enc = regEncoding(Op.R);
    ModRM |= 0xc0;
    ModRM |= static_cast<uint8_t>(Enc & 7);
    if (Enc & 8)
      Rex |= RexB;
    return MaoStatus::success();
  }

  // An immediate here (`shrl $2, $1f`) is no x86 operand: the
  // instruction stays opaque, as gas rejects it.
  if (!Op.isMem())
    return MaoStatus::error("rm operand must be a register or memory "
                            "reference");
  const MemRef &M = Op.Mem;

  if (M.isRipRelative()) {
    if (M.Index != Reg::None)
      return MaoStatus::error("RIP-relative reference cannot have an index");
    ModRM |= 0x05; // mod=00 rm=101
    DispSize = 4;
    DispIsPcRel = true;
    PcRelSym = &Op.Sym;
    PcRelAddend = Op.Imm;
    return MaoStatus::success();
  }

  if (M.Index == Reg::RSP)
    return MaoStatus::error("%rsp cannot be used as an index register");

  const bool HasBase = M.Base != Reg::None;
  const bool HasIndex = M.Index != Reg::None;
  if ((HasBase && regWidth(M.Base) != Width::Q) ||
      (HasIndex && regWidth(M.Index) != Width::Q))
    return MaoStatus::error("addressing requires 64-bit base/index registers");

  // Absolute address: [disp32] via SIB with no base, no index.
  if (!HasBase && !HasIndex) {
    ModRM |= 0x04; // mod=00 rm=100 -> SIB
    HasSib = true;
    Sib = 0x25; // scale=0, index=100 (none), base=101 (disp32)
    DispSize = 4;
    Disp = Op.hasSymDisp() ? resolveSym(Op.Sym, Op.Imm) : Op.Imm;
    return MaoStatus::success();
  }

  // Pick mod / displacement size.
  unsigned BaseEnc = HasBase ? regEncoding(M.Base) : 5;
  uint8_t Mod;
  if (!HasBase) {
    Mod = 0x00; // SIB with base=101: disp32 follows
    DispSize = 4;
  } else if (Op.hasSymDisp()) {
    Mod = 0x80;
    DispSize = 4;
  } else if (Op.Imm == 0 && (BaseEnc & 7) != 5) {
    Mod = 0x00;
    DispSize = 0;
  } else if (fitsInt8(Op.Imm)) {
    Mod = 0x40;
    DispSize = 1;
  } else {
    Mod = 0x80;
    DispSize = 4;
  }
  Disp = Op.hasSymDisp() ? resolveSym(Op.Sym, Op.Imm) : Op.Imm;

  const bool NeedSib = HasIndex || !HasBase || (BaseEnc & 7) == 4;
  if (!NeedSib) {
    ModRM |= Mod | static_cast<uint8_t>(BaseEnc & 7);
    if (BaseEnc & 8)
      Rex |= RexB;
    return MaoStatus::success();
  }

  ModRM |= Mod | 0x04;
  HasSib = true;
  unsigned ScaleBits;
  switch (M.Scale) {
  case 1:
    ScaleBits = 0;
    break;
  case 2:
    ScaleBits = 1;
    break;
  case 4:
    ScaleBits = 2;
    break;
  case 8:
    ScaleBits = 3;
    break;
  default:
    return MaoStatus::error("memory scale must be 1, 2, 4 or 8");
  }
  unsigned IndexEnc = HasIndex ? regEncoding(M.Index) : 4; // 100 = none
  Sib = static_cast<uint8_t>((ScaleBits << 6) | ((IndexEnc & 7) << 3) |
                             (HasBase ? (BaseEnc & 7) : 5));
  if (HasIndex && (IndexEnc & 8))
    Rex |= RexX;
  if (HasBase && (BaseEnc & 8))
    Rex |= RexB;
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::encodeMov() {
  assert(Insn.Ops.size() == 2 && "mov needs src, dst");
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  const Width W = Insn.W;
  applyWidth(W);
  const bool Byte = W == Width::B;

  if (Src.isImm()) {
    if (Dst.isReg()) {
      if (W == Width::Q) {
        if (Src.isConstImm() && !fitsInt32(Src.Imm)) {
          // movabs: B8+r imm64.
          noteRegConstraints(Dst.R);
          unsigned Enc = regEncoding(Dst.R);
          if (Enc & 8)
            Rex |= RexB;
          addOpcode(static_cast<uint8_t>(0xb8 | (Enc & 7)));
          setImm(Src.Imm, 8);
          return MaoStatus::success();
        }
        // C7 /0 imm32 sign-extended.
        addOpcode(0xc7);
        setModRMDigit(0);
        if (MaoStatus S = setRM(Dst))
          return S;
        setImm(Src.isSymbolicImm() ? resolveSym(Src.Sym, Src.Imm) : Src.Imm,
               4);
        return MaoStatus::success();
      }
      // B0+r / B8+r with a full-width immediate.
      noteRegConstraints(Dst.R);
      unsigned Enc = regEncoding(Dst.R);
      if (Enc & 8)
        Rex |= RexB;
      addOpcode(static_cast<uint8_t>((Byte ? 0xb0 : 0xb8) | (Enc & 7)));
      setImm(Src.isSymbolicImm() ? resolveSym(Src.Sym, Src.Imm) : Src.Imm,
             Byte ? 1 : (W == Width::W ? 2 : 4));
      return MaoStatus::success();
    }
    if (Dst.isMem()) {
      addOpcode(Byte ? 0xc6 : 0xc7);
      setModRMDigit(0);
      if (MaoStatus S = setRM(Dst))
        return S;
      setImm(Src.isSymbolicImm() ? resolveSym(Src.Sym, Src.Imm) : Src.Imm,
             Byte ? 1 : (W == Width::W ? 2 : 4));
      return MaoStatus::success();
    }
    return MaoStatus::error("mov immediate needs a register or memory dest");
  }

  if (Src.isReg() && (Dst.isReg() || Dst.isMem())) {
    addOpcode(Byte ? 0x88 : 0x89);
    setModRMReg(Src.R);
    return setRM(Dst);
  }
  if (Src.isMem() && Dst.isReg()) {
    addOpcode(Byte ? 0x8a : 0x8b);
    setModRMReg(Dst.R);
    return setRM(Src);
  }
  return MaoStatus::error("unsupported mov operand combination");
}

MaoStatus EncodingBuilder::encodeMovx() {
  assert(Insn.Ops.size() == 2 && "movzx/movsx need src, dst");
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  if (!Dst.isReg() || (!Src.isReg() && !Src.isMem()))
    return MaoStatus::error("movzx/movsx need r/m source and register dest");
  applyWidth(Insn.W);

  if (Insn.Mn == Mnemonic::MOVSX && Insn.SrcW == Width::L) {
    if (Insn.W != Width::Q)
      return MaoStatus::error("movslq destination must be 64-bit");
    addOpcode(0x63);
  } else {
    addOpcode(0x0f);
    uint8_t Base = Insn.Mn == Mnemonic::MOVZX ? 0xb6 : 0xbe;
    if (Insn.SrcW == Width::W)
      Base += 1;
    else if (Insn.SrcW != Width::B)
      return MaoStatus::error("movzx/movsx source must be byte or word");
    addOpcode(Base);
  }
  setModRMReg(Dst.R);
  return setRM(Src);
}

MaoStatus EncodingBuilder::encodeLea() {
  assert(Insn.Ops.size() == 2 && "lea needs mem, dst");
  if (!Insn.Ops[0].isMem() || !Insn.Ops[1].isReg())
    return MaoStatus::error("lea needs a memory source and register dest");
  applyWidth(Insn.W);
  addOpcode(0x8d);
  setModRMReg(Insn.Ops[1].R);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodeAluRMI() {
  assert(Insn.Ops.size() == 2 && "ALU needs src, dst");
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  const OpcodeInfo &Info = Insn.info();
  const Width W = Insn.W;
  applyWidth(W);
  const bool Byte = W == Width::B;

  if (Src.isImm()) {
    if (!Dst.isReg() && !Dst.isMem())
      return MaoStatus::error("ALU immediate needs r/m destination");
    int64_t Value =
        Src.isSymbolicImm() ? resolveSym(Src.Sym, Src.Imm) : Src.Imm;
    const bool IsAccumulator =
        Dst.isReg() && regEncoding(Dst.R) == 0 && !regIsHighByte(Dst.R);
    if (Byte) {
      if (IsAccumulator) {
        addOpcode(static_cast<uint8_t>(Info.EncA + 4)); // e.g. add al, imm8
        setImm(Value, 1);
        return MaoStatus::success();
      }
      addOpcode(0x80);
      setModRMDigit(Info.EncB);
      if (MaoStatus S = setRM(Dst))
        return S;
      setImm(Value, 1);
      return MaoStatus::success();
    }
    if (Src.isConstImm() && fitsInt8(Value)) {
      addOpcode(0x83);
      setModRMDigit(Info.EncB);
      if (MaoStatus S = setRM(Dst))
        return S;
      setImm(Value, 1);
      return MaoStatus::success();
    }
    if (IsAccumulator) {
      addOpcode(static_cast<uint8_t>(Info.EncA + 5));
      setImm(Value, W == Width::W ? 2 : 4);
      return MaoStatus::success();
    }
    addOpcode(0x81);
    setModRMDigit(Info.EncB);
    if (MaoStatus S = setRM(Dst))
      return S;
    setImm(Value, W == Width::W ? 2 : 4);
    return MaoStatus::success();
  }

  if (Src.isReg() && (Dst.isReg() || Dst.isMem())) {
    addOpcode(static_cast<uint8_t>(Info.EncA + (Byte ? 0 : 1)));
    setModRMReg(Src.R);
    return setRM(Dst);
  }
  if (Src.isMem() && Dst.isReg()) {
    addOpcode(static_cast<uint8_t>(Info.EncA + (Byte ? 2 : 3)));
    setModRMReg(Dst.R);
    return setRM(Src);
  }
  return MaoStatus::error("unsupported ALU operand combination");
}

MaoStatus EncodingBuilder::encodeTest() {
  assert(Insn.Ops.size() == 2 && "test needs two operands");
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  const Width W = Insn.W;
  applyWidth(W);
  const bool Byte = W == Width::B;

  if (Src.isImm()) {
    if (!Dst.isReg() && !Dst.isMem())
      return MaoStatus::error("test immediate needs r/m operand");
    int64_t Value =
        Src.isSymbolicImm() ? resolveSym(Src.Sym, Src.Imm) : Src.Imm;
    const bool IsAccumulator =
        Dst.isReg() && regEncoding(Dst.R) == 0 && !regIsHighByte(Dst.R);
    if (IsAccumulator) {
      addOpcode(Byte ? 0xa8 : 0xa9);
      setImm(Value, Byte ? 1 : (W == Width::W ? 2 : 4));
      return MaoStatus::success();
    }
    addOpcode(Byte ? 0xf6 : 0xf7);
    setModRMDigit(0);
    if (MaoStatus S = setRM(Dst))
      return S;
    setImm(Value, Byte ? 1 : (W == Width::W ? 2 : 4));
    return MaoStatus::success();
  }
  if (Src.isReg() && (Dst.isReg() || Dst.isMem())) {
    addOpcode(Byte ? 0x84 : 0x85);
    setModRMReg(Src.R);
    return setRM(Dst);
  }
  if (Src.isMem() && Dst.isReg()) {
    // test mem, reg == test reg, mem.
    addOpcode(Byte ? 0x84 : 0x85);
    setModRMReg(Dst.R);
    return setRM(Src);
  }
  return MaoStatus::error("unsupported test operand combination");
}

MaoStatus EncodingBuilder::encodeUnaryRM() {
  assert(Insn.Ops.size() == 1 && "unary op needs one operand");
  const OpcodeInfo &Info = Insn.info();
  const Width W = Insn.W;
  applyWidth(W);
  addOpcode(static_cast<uint8_t>(Info.EncA + (W == Width::B ? 0 : 1)));
  setModRMDigit(Info.EncB);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodeImul() {
  const Width W = Insn.W;
  applyWidth(W);
  if (Insn.Ops.size() == 1) {
    addOpcode(W == Width::B ? 0xf6 : 0xf7);
    setModRMDigit(5);
    return setRM(Insn.Ops[0]);
  }
  if (Insn.Ops.size() == 2) {
    if (!Insn.Ops[1].isReg())
      return MaoStatus::error("two-operand imul needs a register dest");
    addOpcode(0x0f);
    addOpcode(0xaf);
    setModRMReg(Insn.Ops[1].R);
    return setRM(Insn.Ops[0]);
  }
  assert(Insn.Ops.size() == 3 && "imul takes 1-3 operands");
  const Operand &ImmOp = Insn.Ops[0];
  if (!ImmOp.isImm() || !Insn.Ops[2].isReg())
    return MaoStatus::error("three-operand imul needs imm, r/m, reg");
  int64_t Value =
      ImmOp.isSymbolicImm() ? resolveSym(ImmOp.Sym, ImmOp.Imm) : ImmOp.Imm;
  const bool Short = ImmOp.isConstImm() && fitsInt8(Value);
  addOpcode(Short ? 0x6b : 0x69);
  setModRMReg(Insn.Ops[2].R);
  if (MaoStatus S = setRM(Insn.Ops[1]))
    return S;
  setImm(Value, Short ? 1 : (W == Width::W ? 2 : 4));
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::encodeShiftRot() {
  const OpcodeInfo &Info = Insn.info();
  const Width W = Insn.W;
  applyWidth(W);
  const bool Byte = W == Width::B;

  if (Insn.Ops.size() == 1) {
    addOpcode(Byte ? 0xd0 : 0xd1); // shift by 1
    setModRMDigit(Info.EncA);
    return setRM(Insn.Ops[0]);
  }
  assert(Insn.Ops.size() == 2 && "shift takes 1-2 operands");
  const Operand &Count = Insn.Ops[0];
  if (Count.isReg()) {
    if (Count.R != Reg::CL)
      return MaoStatus::error("variable shift count must be %cl");
    addOpcode(Byte ? 0xd2 : 0xd3);
    setModRMDigit(Info.EncA);
    return setRM(Insn.Ops[1]);
  }
  if (!Count.isConstImm())
    return MaoStatus::error("shift count must be an immediate or %cl");
  if (Count.Imm == 1) {
    addOpcode(Byte ? 0xd0 : 0xd1);
    setModRMDigit(Info.EncA);
    return setRM(Insn.Ops[1]);
  }
  addOpcode(Byte ? 0xc0 : 0xc1);
  setModRMDigit(Info.EncA);
  if (MaoStatus S = setRM(Insn.Ops[1]))
    return S;
  setImm(Count.Imm, 1);
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::encodePush() {
  assert(Insn.Ops.size() == 1 && "push needs one operand");
  const Operand &Op = Insn.Ops[0];
  if (Op.isReg()) {
    if (regWidth(Op.R) != Width::Q)
      return MaoStatus::error("push needs a 64-bit register");
    unsigned Enc = regEncoding(Op.R);
    if (Enc & 8)
      Rex |= RexB;
    addOpcode(static_cast<uint8_t>(0x50 | (Enc & 7)));
    return MaoStatus::success();
  }
  if (Op.isImm()) {
    int64_t Value = Op.isSymbolicImm() ? resolveSym(Op.Sym, Op.Imm) : Op.Imm;
    if (Op.isConstImm() && fitsInt8(Value)) {
      addOpcode(0x6a);
      setImm(Value, 1);
    } else {
      addOpcode(0x68);
      setImm(Value, 4);
    }
    return MaoStatus::success();
  }
  if (Op.isMem()) {
    addOpcode(0xff);
    setModRMDigit(6);
    return setRM(Op);
  }
  return MaoStatus::error("unsupported push operand");
}

MaoStatus EncodingBuilder::encodePop() {
  assert(Insn.Ops.size() == 1 && "pop needs one operand");
  const Operand &Op = Insn.Ops[0];
  if (Op.isReg()) {
    if (regWidth(Op.R) != Width::Q)
      return MaoStatus::error("pop needs a 64-bit register");
    unsigned Enc = regEncoding(Op.R);
    if (Enc & 8)
      Rex |= RexB;
    addOpcode(static_cast<uint8_t>(0x58 | (Enc & 7)));
    return MaoStatus::success();
  }
  if (Op.isMem()) {
    addOpcode(0x8f);
    setModRMDigit(0);
    return setRM(Op);
  }
  return MaoStatus::error("unsupported pop operand");
}

MaoStatus EncodingBuilder::encodeXchg() {
  assert(Insn.Ops.size() == 2 && "xchg needs two operands");
  const Width W = Insn.W;
  applyWidth(W);
  // Short form: xchg with the accumulator encodes as 90+r.
  if (W != Width::B && Insn.Ops[0].isReg() && Insn.Ops[1].isReg()) {
    for (unsigned Acc = 0; Acc < 2; ++Acc) {
      const Reg A = Insn.Ops[Acc].R;
      const Reg Other = Insn.Ops[1 - Acc].R;
      if (regEncoding(A) == 0 && regIsGpr(A) && !regIsHighByte(A)) {
        unsigned Enc = regEncoding(Other);
        if (Enc & 8)
          Rex |= RexB;
        addOpcode(static_cast<uint8_t>(0x90 | (Enc & 7)));
        return MaoStatus::success();
      }
    }
  }
  addOpcode(W == Width::B ? 0x86 : 0x87);
  if (Insn.Ops[0].isReg()) {
    setModRMReg(Insn.Ops[0].R);
    return setRM(Insn.Ops[1]);
  }
  if (Insn.Ops[1].isReg()) {
    setModRMReg(Insn.Ops[1].R);
    return setRM(Insn.Ops[0]);
  }
  return MaoStatus::error("xchg needs at least one register operand");
}

MaoStatus EncodingBuilder::encodeBswap() {
  assert(Insn.Ops.size() == 1 && "bswap needs one operand");
  if (!Insn.Ops[0].isReg())
    return MaoStatus::error("bswap needs a register operand");
  applyWidth(Insn.W);
  unsigned Enc = regEncoding(Insn.Ops[0].R);
  if (Enc & 8)
    Rex |= RexB;
  addOpcode(0x0f);
  addOpcode(static_cast<uint8_t>(0xc8 | (Enc & 7)));
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::encodeBranch() {
  assert(Insn.Ops.size() == 1 && "branch needs a target");
  const Operand &Target = Insn.Ops[0];
  const bool Cond = Insn.info().Kind == EncKind::Jcc;

  if (Target.isSymbol()) {
    unsigned Size = Insn.BranchSize == 1 ? 1 : 4;
    if (Cond) {
      if (Size == 1) {
        addOpcode(static_cast<uint8_t>(0x70 | static_cast<uint8_t>(Insn.CC)));
      } else {
        addOpcode(0x0f);
        addOpcode(static_cast<uint8_t>(0x80 | static_cast<uint8_t>(Insn.CC)));
      }
    } else {
      addOpcode(Size == 1 ? 0xeb : 0xe9);
    }
    DispSize = Size;
    DispIsPcRel = true;
    PcRelSym = &Target.Sym;
    PcRelAddend = Target.Imm;
    return MaoStatus::success();
  }

  if (Cond)
    return MaoStatus::error("conditional jumps cannot be indirect");
  addOpcode(0xff);
  setModRMDigit(4);
  return setRM(Target);
}

MaoStatus EncodingBuilder::encodeCall() {
  assert(Insn.Ops.size() == 1 && "call needs a target");
  const Operand &Target = Insn.Ops[0];
  if (Target.isSymbol()) {
    addOpcode(0xe8);
    DispSize = 4;
    DispIsPcRel = true;
    PcRelSym = &Target.Sym;
    PcRelAddend = Target.Imm;
    return MaoStatus::success();
  }
  addOpcode(0xff);
  setModRMDigit(2);
  return setRM(Target);
}

MaoStatus EncodingBuilder::encodeRet() {
  if (Insn.Ops.empty()) {
    addOpcode(0xc3);
    return MaoStatus::success();
  }
  if (Insn.Ops.size() == 1 && Insn.Ops[0].isConstImm()) {
    addOpcode(0xc2);
    setImm(Insn.Ops[0].Imm, 2);
    return MaoStatus::success();
  }
  return MaoStatus::error("ret takes no operand or an imm16");
}

MaoStatus EncodingBuilder::encodeSetcc() {
  assert(Insn.Ops.size() == 1 && "setcc needs one operand");
  addOpcode(0x0f);
  addOpcode(static_cast<uint8_t>(0x90 | static_cast<uint8_t>(Insn.CC)));
  setModRMDigit(0);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodeCmovcc() {
  assert(Insn.Ops.size() == 2 && "cmov needs src, dst");
  if (!Insn.Ops[1].isReg())
    return MaoStatus::error("cmov needs a register destination");
  applyWidth(Insn.W);
  addOpcode(0x0f);
  addOpcode(static_cast<uint8_t>(0x40 | static_cast<uint8_t>(Insn.CC)));
  setModRMReg(Insn.Ops[1].R);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodeFixed() {
  switch (Insn.Mn) {
  case Mnemonic::CLTQ:
    Rex |= RexW;
    addOpcode(0x98);
    return MaoStatus::success();
  case Mnemonic::CWTL:
    addOpcode(0x98);
    return MaoStatus::success();
  case Mnemonic::CBTW:
    Need66 = true;
    addOpcode(0x98);
    return MaoStatus::success();
  case Mnemonic::CLTD:
    addOpcode(0x99);
    return MaoStatus::success();
  case Mnemonic::CQTO:
    Rex |= RexW;
    addOpcode(0x99);
    return MaoStatus::success();
  case Mnemonic::LEAVE:
    addOpcode(0xc9);
    return MaoStatus::success();
  case Mnemonic::CPUID:
    addOpcode(0x0f);
    addOpcode(0xa2);
    return MaoStatus::success();
  case Mnemonic::RDTSC:
    addOpcode(0x0f);
    addOpcode(0x31);
    return MaoStatus::success();
  default:
    return MaoStatus::error("unknown fixed-encoding mnemonic");
  }
}

MaoStatus EncodingBuilder::encodeNop() {
  // Recommended multi-byte NOP sequences (Intel SDM). Lengths above nine
  // bytes prepend 0x66 prefixes to the nine-byte form.
  static const uint8_t Forms[9][9] = {
      {0x90},
      {0x66, 0x90},
      {0x0f, 0x1f, 0x00},
      {0x0f, 0x1f, 0x40, 0x00},
      {0x0f, 0x1f, 0x44, 0x00, 0x00},
      {0x66, 0x0f, 0x1f, 0x44, 0x00, 0x00},
      {0x0f, 0x1f, 0x80, 0x00, 0x00, 0x00, 0x00},
      {0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  unsigned Len = Insn.NopLength == 0 ? 1 : Insn.NopLength;
  assert(Len <= 15 && "NOP length out of range");
  unsigned Extra = Len > 9 ? Len - 9 : 0;
  unsigned FormLen = Len - Extra;
  std::memset(RawBytes, 0x66, Extra);
  std::memcpy(RawBytes + Extra, Forms[FormLen - 1], FormLen);
  RawLen = static_cast<uint8_t>(Len);
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::encodeSseMov() {
  assert(Insn.Ops.size() == 2 && "SSE move needs src, dst");
  const OpcodeInfo &Info = Insn.info();
  static const uint8_t PrefixFor[] = {0x00, 0x66, 0xf3, 0xf2};
  if (uint8_t P = PrefixFor[Info.EncA])
    addPrefix(P);
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  if (Dst.isReg() && regIsXmm(Dst.R)) {
    addOpcode(0x0f);
    addOpcode(Info.EncB);
    setModRMReg(Dst.R);
    return setRM(Src);
  }
  if (Src.isReg() && regIsXmm(Src.R) && Dst.isMem()) {
    addOpcode(0x0f);
    addOpcode(static_cast<uint8_t>(Info.EncB + 1));
    setModRMReg(Src.R);
    return setRM(Dst);
  }
  return MaoStatus::error("unsupported SSE move operand combination");
}

MaoStatus EncodingBuilder::encodeSseCvtMov() {
  assert(Insn.Ops.size() == 2 && "movd/movq need src, dst");
  const Operand &Src = Insn.Ops[0];
  const Operand &Dst = Insn.Ops[1];
  if (Insn.Mn == Mnemonic::MOVQX)
    Rex |= RexW;
  addPrefix(0x66);
  if (Dst.isReg() && regIsXmm(Dst.R) && (Src.isReg() || Src.isMem())) {
    addOpcode(0x0f);
    addOpcode(0x6e);
    setModRMReg(Dst.R);
    return setRM(Src);
  }
  if (Src.isReg() && regIsXmm(Src.R) && (Dst.isReg() || Dst.isMem())) {
    addOpcode(0x0f);
    addOpcode(0x7e);
    setModRMReg(Src.R);
    return setRM(Dst);
  }
  return MaoStatus::error("unsupported movd/movq operand combination");
}

MaoStatus EncodingBuilder::encodeSseAlu() {
  assert(Insn.Ops.size() == 2 && "SSE ALU needs src, dst");
  const OpcodeInfo &Info = Insn.info();
  static const uint8_t PrefixFor[] = {0x00, 0x66, 0xf3, 0xf2};
  if (uint8_t P = PrefixFor[Info.EncA])
    addPrefix(P);
  if (!Insn.Ops[1].isReg() || !regIsXmm(Insn.Ops[1].R))
    return MaoStatus::error("SSE ALU needs an xmm destination");
  addOpcode(0x0f);
  addOpcode(Info.EncB);
  setModRMReg(Insn.Ops[1].R);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodePrefetch() {
  assert(Insn.Ops.size() == 1 && "prefetch needs a memory operand");
  if (!Insn.Ops[0].isMem())
    return MaoStatus::error("prefetch needs a memory operand");
  addOpcode(0x0f);
  addOpcode(0x18);
  setModRMDigit(Insn.info().EncA);
  return setRM(Insn.Ops[0]);
}

MaoStatus EncodingBuilder::encodeBody() {
  switch (Insn.info().Kind) {
  case EncKind::Mov:
    return encodeMov();
  case EncKind::Movx:
    return encodeMovx();
  case EncKind::Lea:
    return encodeLea();
  case EncKind::AluRMI:
    return encodeAluRMI();
  case EncKind::Test:
    return encodeTest();
  case EncKind::UnaryRM:
    return encodeUnaryRM();
  case EncKind::ImulMulti:
    return encodeImul();
  case EncKind::ShiftRot:
    return encodeShiftRot();
  case EncKind::Push:
    return encodePush();
  case EncKind::Pop:
    return encodePop();
  case EncKind::Xchg:
    return encodeXchg();
  case EncKind::Bswap:
    return encodeBswap();
  case EncKind::Jmp:
  case EncKind::Jcc:
    return encodeBranch();
  case EncKind::Call:
    return encodeCall();
  case EncKind::Ret:
    return encodeRet();
  case EncKind::Setcc:
    return encodeSetcc();
  case EncKind::Cmovcc:
    return encodeCmovcc();
  case EncKind::Fixed:
    return encodeFixed();
  case EncKind::Nop:
    return encodeNop();
  case EncKind::SseMov:
    return encodeSseMov();
  case EncKind::SseCvtMov:
    return encodeSseCvtMov();
  case EncKind::SseAlu:
    return encodeSseAlu();
  case EncKind::Prefetch:
    return encodePrefetch();
  case EncKind::Opaque:
    // Unknown instruction: a fixed-size placeholder (see header comment).
    static_assert(OpaqueInstructionSizeEstimate <= sizeof(RawBytes));
    std::memset(RawBytes, 0xcc, OpaqueInstructionSizeEstimate);
    RawLen = OpaqueInstructionSizeEstimate;
    return MaoStatus::success();
  }
  assert(false && "covered switch");
  return MaoStatus::error("unreachable");
}

MaoStatus EncodingBuilder::build() {
  if (MaoStatus S = encodeBody())
    return S;
  if (RawLen == 0 && HighByteUsed && rexByteNeeded())
    return MaoStatus::error(
        "high-byte register cannot be combined with a REX prefix");
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::length(unsigned &Length) {
  if (MaoStatus S = build())
    return S;
  Length = RawLen != 0 ? RawLen : totalLength();
  return MaoStatus::success();
}

MaoStatus EncodingBuilder::run(std::vector<uint8_t> &Out) {
  if (MaoStatus S = build())
    return S;

  if (RawLen != 0) {
    Out.insert(Out.end(), RawBytes, RawBytes + RawLen);
    return MaoStatus::success();
  }

  if (DispIsPcRel) {
    int64_t Target = resolveSym(*PcRelSym, PcRelAddend);
    // PcRelSym may legitimately be unresolved (external symbol): encode 0.
    if (Labels && Labels->count(*PcRelSym))
      Disp = Target - (Address + totalLength());
    else
      Disp = 0;
    if (DispSize == 1 && !fitsInt8(Disp))
      return MaoStatus::error("rel8 branch displacement out of range");
  }

  for (uint8_t I = 0; I < NumPrefixes; ++I)
    Out.push_back(Prefixes[I]);
  if (Need66)
    Out.push_back(0x66);
  if (rexByteNeeded())
    Out.push_back(static_cast<uint8_t>(0x40 | Rex));
  for (uint8_t I = 0; I < OpcodeLen; ++I)
    Out.push_back(Opcode[I]);
  if (HasModRM)
    Out.push_back(ModRM);
  if (HasSib)
    Out.push_back(Sib);
  for (unsigned I = 0; I < DispSize; ++I)
    Out.push_back(static_cast<uint8_t>((Disp >> (8 * I)) & 0xff));
  for (unsigned I = 0; I < ImmSize; ++I)
    Out.push_back(static_cast<uint8_t>((Imm >> (8 * I)) & 0xff));
  return MaoStatus::success();
}

} // namespace

MaoStatus mao::encodeInstruction(const Instruction &Insn, int64_t Address,
                                 const LabelAddressMap *Labels,
                                 std::vector<uint8_t> &Out) {
  // Fault-injection point: only the fallible public entries (this and
  // encodedLength) are instrumented; instructionLength() bypasses it
  // because callers assert success.
  if (FaultInjector::instance().shouldFail(FaultSite::Encoder))
    return MaoStatus::error("injected encoder fault");
  EncodingBuilder Builder(Insn, Address, Labels);
  return Builder.run(Out);
}

MaoStatus mao::encodedLength(const Instruction &Insn, unsigned &Length) {
  if (FaultInjector::instance().shouldFail(FaultSite::Encoder))
    return MaoStatus::error("injected encoder fault");
  EncodingBuilder Builder(Insn, 0, nullptr);
  return Builder.length(Length);
}

MaoStatus mao::encodeInstructionNoInject(const Instruction &Insn,
                                         int64_t Address,
                                         const LabelAddressMap *Labels,
                                         std::vector<uint8_t> &Out) {
  EncodingBuilder Builder(Insn, Address, Labels);
  return Builder.run(Out);
}

unsigned mao::instructionLength(const Instruction &Insn) {
  if (Insn.isOpaque())
    return OpaqueInstructionSizeEstimate;
  unsigned Length = 0;
  EncodingBuilder Builder(Insn, 0, nullptr);
  MaoStatus S = Builder.length(Length);
  (void)S;
  assert(S.ok() && "instructionLength on an unencodable instruction");
  return Length;
}
