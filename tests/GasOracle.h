//===- tests/GasOracle.h - GNU as as a layout oracle ------------*- C++ -*-===//
///
/// \file
/// MAO emits text and GNU as assembles it, so gas's object file is the
/// ground truth for every byte, branch width and address MAO computes.
/// These helpers assemble a program with `as --64 -L` (keeping local labels
/// in the symbol table) and read the object back with objdump: per
/// section, its bytes, where each disassembled instruction starts and the
/// address of each symbol. Tests skip when binutils is not installed.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_TESTS_GASORACLE_H
#define MAO_TESTS_GASORACLE_H

#include "support/FileIO.h"
#include "x86/Encoder.h"
#include "x86/Instruction.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace mao {

/// True when GNU as and objdump are on the PATH.
inline bool haveBinutils() {
  return std::system("which as > /dev/null 2>&1") == 0 &&
         std::system("which objdump > /dev/null 2>&1") == 0;
}

/// \p Asm with the MAO dialect's explicit-length `nopN` mnemonics, which
/// gas does not know, rewritten as the `.byte` sequence MAO encodes them to.
inline std::string gasDialect(const std::string &Asm) {
  std::string Out;
  std::istringstream In(Asm);
  for (std::string Line; std::getline(In, Line);) {
    unsigned Len = 0;
    std::vector<uint8_t> Bytes;
    if (std::sscanf(Line.c_str(), " nop%u", &Len) == 1 && Len >= 2 &&
        Len <= 15 && encodeInstruction(makeNop(Len), 0, nullptr, Bytes).ok()) {
      Line = "\t.byte ";
      char Hex[8];
      for (size_t I = 0; I < Bytes.size(); ++I) {
        std::snprintf(Hex, sizeof(Hex), "%s0x%02x", I ? ", " : "", Bytes[I]);
        Line += Hex;
      }
    }
    Out += Line;
    Out += '\n';
  }
  return Out;
}

/// \p N one-byte `nop` lines.
inline std::string nopLines(unsigned N) {
  std::string Out;
  for (unsigned I = 0; I < N; ++I)
    Out += "\tnop\n";
  return Out;
}

/// A function with a `.L3` loop that LOOP16 aligns, behind a backward
/// `jne .L0` that is one byte out of rel8 reach in gas's first guess. gas
/// grows `jne .LFAR` first in the same pass; that moves .L0 on by 4 bytes
/// while the `.p2align` absorbs the growth, so `jne .L0` fits and stays
/// rel8. A relaxation that checks every branch against the previous
/// round's addresses widens it instead.
inline std::string alignedLoopAsm() {
  return "\t.text\n\t.globl f\n\t.type f, @function\nf:\n"
         "\ttestl %edi, %edi\n\tjne .LFAR\n" +
         nopLines(10) + ".L0:\n" + nopLines(94) + "\t.p2align 4\n" +
         nopLines(29) +
         "\tjne .L0\n\tmovl $100, %ecx\n.L3:\n"
         "\taddl $1, %eax\n\taddl $1, %eax\n\taddl $1, %eax\n"
         "\tsubl $1, %ecx\n\tjne .L3\n" +
         nopLines(300) + ".LFAR:\n\tret\n\t.size f, .-f\n";
}

/// In the first guess `jmp .T` is two bytes out of rel8 reach. gas grows
/// `jne .LFAR` first, which moves the jump on by 4 bytes; .T lies past a
/// `.p2align` that may absorb that, so gas keeps .T's last-pass address,
/// and the jump fits and stays rel8 (eb 7e).
inline std::string forwardAcrossAlignAsm() {
  return "\t.text\nf:\n\tjne .LFAR\n" + nopLines(10) + "\tjmp .T\n" +
         nopLines(120) + "\t.p2align 4\n.T:\n" + nopLines(300) +
         ".LFAR:\n\tret\n";
}

/// Forty `jne .LFAR` grow by 160 bytes in gas's first pass, which moves
/// `jmp .T` far past the last-pass address of .T behind the `.p2align`.
/// gas does not grow a branch on an estimate that falls behind it, so the
/// jump stays rel8 (eb 0e); taken at face value the estimate is out of
/// backward reach and would widen it for good.
inline std::string staleEstimateAsm() {
  std::string S = "\t.text\nf:\n";
  for (unsigned I = 0; I < 40; ++I)
    S += "\tjne .LFAR\n";
  return S + "\tjmp .T\n\t.p2align 4\n.T:\n\tret\n" + nopLines(300) +
         ".LFAR:\n\tret\n";
}

/// One section of gas's object file.
struct GasSection {
  std::string Hex;                       ///< The bytes, as lowercase hex.
  std::set<int64_t> InsnStarts;          ///< Offsets objdump decodes at.
  std::map<std::string, int64_t> Labels; ///< Symbols defined in it.
};

/// Assembles \p Asm (in gas's dialect) and reads the object back. Returns
/// false, with gas's and objdump's messages in \p Error, when either fails.
inline bool assembleWithGas(const std::string &Asm,
                            std::map<std::string, GasSection> &Out,
                            std::string *Error = nullptr) {
  Out.clear();
  char Dir[] = "/tmp/maogasXXXXXX";
  if (!mkdtemp(Dir))
    return false;
  const std::string Base = Dir;
  bool Ok = false;
  if (std::FILE *F = std::fopen((Base + "/t.s").c_str(), "w")) {
    Ok = std::fwrite(Asm.data(), 1, Asm.size(), F) == Asm.size();
    Ok &= std::fclose(F) == 0;
  }
  // -z keeps runs of zero bytes; a 16-byte line width puts every
  // instruction on one line.
  const std::string Cmd =
      "cd " + Base + " && as --64 -L -o t.o t.s 2> err.txt && " +
      "objdump -d -z --insn-width=16 t.o > dis.txt 2>> err.txt && " +
      "objdump -t t.o > sym.txt 2>> err.txt";
  Ok = Ok && std::system(Cmd.c_str()) == 0;
  std::string Dis, Sym;
  if (Ok)
    Ok = readWholeFile(Base + "/dis.txt", Dis) &&
         readWholeFile(Base + "/sym.txt", Sym);
  else if (Error)
    (void)readWholeFile(Base + "/err.txt", *Error);
  (void)std::system(("rm -rf " + Base).c_str());
  if (!Ok)
    return false;

  // "Disassembly of section NAME:" opens a section; "  1c:\teb 7e ...\tjmp"
  // is one instruction at 0x1c.
  GasSection *Cur = nullptr;
  std::istringstream DisIn(Dis);
  for (std::string Line; std::getline(DisIn, Line);) {
    const std::string Header = "Disassembly of section ";
    if (Line.rfind(Header, 0) == 0) {
      Cur = &Out[Line.substr(Header.size(),
                             Line.size() - Header.size() - 1)];
      continue;
    }
    const size_t Colon = Line.find(":\t");
    if (!Cur || Colon == std::string::npos)
      continue;
    char *End = nullptr;
    const long long Offset = std::strtoll(Line.c_str(), &End, 16);
    if (End != Line.c_str() + Colon)
      continue;
    Cur->InsnStarts.insert(Offset);
    // The bytes field runs up to the tab before the mnemonic.
    std::istringstream Bytes(Line.substr(Colon + 2, Line.find('\t', Colon + 2) -
                                                        Colon - 2));
    for (std::string Tok; Bytes >> Tok;)
      Cur->Hex += Tok;
  }

  // "VALUE FLAGS SECTION\tSIZE NAME"; a section's own symbol is skipped.
  std::istringstream SymIn(Sym);
  for (std::string Line; std::getline(SymIn, Line);) {
    const size_t Tab = Line.find('\t');
    if (Tab == std::string::npos)
      continue;
    const std::string Before = Line.substr(0, Tab);
    const std::string Section = Before.substr(Before.find_last_of(' ') + 1);
    const std::string Name = Line.substr(Line.find_last_of(' ') + 1);
    if (Name != Section)
      Out[Section].Labels[Name] = std::strtoll(Line.c_str(), nullptr, 16);
  }
  return true;
}

} // namespace mao

#endif // MAO_TESTS_GASORACLE_H
