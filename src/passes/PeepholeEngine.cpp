//===- passes/PeepholeEngine.cpp - Synthesized window rewrite rules ---------===//
///
/// \file
/// Implementation of the rule table (compiled from PeepholeRules.def, or
/// reloaded from a `mao --synth`-emitted .def at runtime): the template
/// language, the .def reader and writer, the digest and the window
/// matcher the SYNTH pass runs every row through.
///
//===----------------------------------------------------------------------===//

#include "passes/PeepholeEngine.h"

#include "support/Hash.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mao {

namespace {

//===----------------------------------------------------------------------===//
// Template language.
//===----------------------------------------------------------------------===//

/// The straight-line reg/imm vocabulary window rules may use. Restricting
/// the table keeps every window rule inside the subset the synthesis
/// prover (check/SymbolicEval) models exactly.
struct VocabEntry {
  const char *Base;
  Mnemonic Mn;
};
constexpr VocabEntry WindowVocab[] = {
    {"mov", Mnemonic::MOV},   {"add", Mnemonic::ADD},
    {"sub", Mnemonic::SUB},   {"and", Mnemonic::AND},
    {"or", Mnemonic::OR},     {"xor", Mnemonic::XOR},
    {"test", Mnemonic::TEST}, {"cmp", Mnemonic::CMP},
    {"neg", Mnemonic::NEG},   {"not", Mnemonic::NOT},
    {"inc", Mnemonic::INC},   {"dec", Mnemonic::DEC},
    {"shl", Mnemonic::SHL},   {"shr", Mnemonic::SHR},
    {"sar", Mnemonic::SAR},
};

std::string_view trimmed(std::string_view Text) {
  while (!Text.empty() && (Text.front() == ' ' || Text.front() == '\t'))
    Text.remove_prefix(1);
  while (!Text.empty() && (Text.back() == ' ' || Text.back() == '\t'))
    Text.remove_suffix(1);
  return Text;
}

MaoStatus parseTemplateMnemonic(std::string_view Text, Mnemonic &Mn,
                                Width &W) {
  for (const VocabEntry &V : WindowVocab) {
    std::string_view Base = V.Base;
    if (Text.size() != Base.size() + 1 || Text.substr(0, Base.size()) != Base)
      continue;
    switch (Text.back()) {
    case 'b': W = Width::B; break;
    case 'w': W = Width::W; break;
    case 'l': W = Width::L; break;
    case 'q': W = Width::Q; break;
    default:
      return MaoStatus::error("bad width suffix in template mnemonic '" +
                              std::string(Text) + "'");
    }
    Mn = V.Mn;
    return MaoStatus::success();
  }
  return MaoStatus::error("mnemonic '" + std::string(Text) +
                          "' is outside the window-rule vocabulary");
}

MaoStatus parseTemplateOperand(std::string_view Text, TemplateOperand &Out) {
  Text = trimmed(Text);
  if (Text.size() == 2 && Text[0] == '%' && Text[1] >= 'A' &&
      Text[1] < static_cast<char>('A' + MaxRuleVars)) {
    Out.K = TemplateOperand::Kind::RegVar;
    Out.Var = static_cast<unsigned>(Text[1] - 'A');
    return MaoStatus::success();
  }
  if (Text.size() >= 2 && Text[0] == '$') {
    errno = 0;
    char *End = nullptr;
    std::string Digits(Text.substr(1));
    const long long Value = std::strtoll(Digits.c_str(), &End, 0);
    if (errno != 0 || End == Digits.c_str() || *End != '\0')
      return MaoStatus::error("bad immediate in template operand '" +
                              std::string(Text) + "'");
    Out.K = TemplateOperand::Kind::Imm;
    Out.Value = Value;
    return MaoStatus::success();
  }
  return MaoStatus::error("bad template operand '" + std::string(Text) +
                          "' (expected %A..%D or $imm)");
}

//===----------------------------------------------------------------------===//
// Guards.
//===----------------------------------------------------------------------===//

struct FlagName {
  const char *Name;
  uint8_t Bit;
};
constexpr FlagName StatusFlagNames[] = {
    {"CF", FlagCF}, {"PF", FlagPF}, {"AF", FlagAF},
    {"ZF", FlagZF}, {"SF", FlagSF}, {"OF", FlagOF},
};

MaoStatus parseWindowGuards(std::string_view Text, uint8_t &DeadFlags) {
  DeadFlags = 0;
  Text = trimmed(Text);
  if (Text.empty())
    return MaoStatus::success();
  constexpr std::string_view Prefix = "dead-flags:";
  if (Text.substr(0, Prefix.size()) != Prefix)
    return MaoStatus::error("bad window guard '" + std::string(Text) +
                            "' (expected empty or dead-flags:F|F|...)");
  Text.remove_prefix(Prefix.size());
  while (!Text.empty()) {
    const size_t Bar = Text.find('|');
    const std::string_view Part = trimmed(Text.substr(0, Bar));
    bool Known = false;
    for (const FlagName &F : StatusFlagNames)
      if (Part == F.Name) {
        DeadFlags |= F.Bit;
        Known = true;
      }
    if (!Known)
      return MaoStatus::error("unknown flag '" + std::string(Part) +
                              "' in window guard");
    if (Bar == std::string_view::npos)
      break;
    Text.remove_prefix(Bar + 1);
  }
  return MaoStatus::success();
}

//===----------------------------------------------------------------------===//
// The window matcher.
//===----------------------------------------------------------------------===//

bool matchWindowAt(const PeepholeRule &R, const std::vector<EntryIter> &Insns,
                   size_t I, std::array<Reg, MaxRuleVars> &Bind) {
  Bind.fill(Reg::None);
  for (size_t K = 0; K < R.Pat.size(); ++K) {
    const Instruction &Insn = std::as_const(*Insns[I + K]).instruction();
    const TemplateInsn &T = R.Pat[K];
    if (Insn.Mn != T.Mn || Insn.W != T.W || Insn.CC != CondCode::None ||
        Insn.Ops.size() != T.Ops.size())
      return false;
    for (size_t O = 0; O < T.Ops.size(); ++O) {
      const Operand &Op = Insn.Ops[O];
      const TemplateOperand &TO = T.Ops[O];
      if (TO.K == TemplateOperand::Kind::RegVar) {
        if (!Op.isReg() || !regIsGpr(Op.R))
          return false;
        const Reg Super = superReg(Op.R);
        // Canonical view only (excludes %ah-style aliases).
        if (gprWithWidth(Super, T.W) != Op.R)
          return false;
        if (Bind[TO.Var] == Reg::None) {
          // Distinct variables bind distinct registers — the prover
          // assumed it when it proved the rule.
          for (unsigned V = 0; V < MaxRuleVars; ++V)
            if (Bind[V] == Super)
              return false;
          Bind[TO.Var] = Super;
        } else if (Bind[TO.Var] != Super) {
          return false;
        }
      } else if (!Op.isConstImm() || Op.Imm != TO.Value) {
        return false;
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The compiled-in table and the active-table switch.
//===----------------------------------------------------------------------===//

std::vector<PeepholeRule> compileBuiltins() {
  std::vector<PeepholeRule> Rules;
#define MAO_PEEPHOLE_RULE(NameTok, PatStr, GuardStr, RepStr, ProvStr)          \
  {                                                                            \
    PeepholeRule R;                                                            \
    R.Name = #NameTok;                                                         \
    R.Pattern = PatStr;                                                        \
    R.Guards = GuardStr;                                                       \
    R.Replacement = RepStr;                                                    \
    R.Provenance = ProvStr;                                                    \
    if (MaoStatus S = compilePeepholeRule(R); !S.ok()) {                       \
      std::fprintf(stderr, "PeepholeRules.def: %s: %s\n", R.Name.c_str(),      \
                   S.message().c_str());                                       \
      std::abort();                                                            \
    }                                                                          \
    Rules.push_back(std::move(R));                                             \
  }
#include "passes/PeepholeRules.def"
#undef MAO_PEEPHOLE_RULE
  return Rules;
}

std::vector<PeepholeRule> &mutableActiveRules() {
  static std::vector<PeepholeRule> Rules = compileBuiltins();
  return Rules;
}

} // namespace

Instruction renderTemplateInsn(const TemplateInsn &T,
                               const std::array<Reg, MaxRuleVars> &Bind) {
  auto RenderOp = [&](const TemplateOperand &O) {
    if (O.K == TemplateOperand::Kind::RegVar)
      return Operand::makeReg(gprWithWidth(Bind[O.Var], T.W));
    return Operand::makeImm(O.Value);
  };
  switch (T.Ops.size()) {
  case 0:
    return makeInstr(T.Mn, T.W);
  case 1:
    return makeInstr(T.Mn, T.W, RenderOp(T.Ops[0]));
  default:
    return makeInstr(T.Mn, T.W, RenderOp(T.Ops[0]), RenderOp(T.Ops[1]));
  }
}

bool isWindowVocabMnemonic(Mnemonic Mn) {
  for (const VocabEntry &V : WindowVocab)
    if (V.Mn == Mn)
      return true;
  return false;
}

std::string renderWindowGuards(uint8_t DeadFlags) {
  if (!DeadFlags)
    return "";
  std::string Out = "dead-flags:";
  bool First = true;
  for (const FlagName &F : StatusFlagNames)
    if (DeadFlags & F.Bit) {
      if (!First)
        Out += '|';
      Out += F.Name;
      First = false;
    }
  return Out;
}

std::string
PeepholeRule::renderTemplates(const std::vector<TemplateInsn> &Seq) {
  std::string Out;
  for (const TemplateInsn &T : Seq) {
    if (!Out.empty())
      Out += " ; ";
    Out += opcodeInfo(T.Mn).Name;
    Out += widthSuffix(T.W);
    for (size_t O = 0; O < T.Ops.size(); ++O) {
      Out += O == 0 ? " " : ", ";
      const TemplateOperand &TO = T.Ops[O];
      if (TO.K == TemplateOperand::Kind::RegVar) {
        Out += '%';
        Out += static_cast<char>('A' + TO.Var);
      } else {
        Out += '$';
        Out += std::to_string(TO.Value);
      }
    }
  }
  return Out;
}

MaoStatus parseTemplates(std::string_view Text,
                         std::vector<TemplateInsn> &Out) {
  Out.clear();
  Text = trimmed(Text);
  while (!Text.empty()) {
    const size_t Semi = Text.find(';');
    std::string_view Part = trimmed(Text.substr(0, Semi));
    if (Part.empty())
      return MaoStatus::error("empty instruction in template sequence");
    TemplateInsn T;
    const size_t Space = Part.find(' ');
    if (MaoStatus S = parseTemplateMnemonic(
            trimmed(Part.substr(0, Space)), T.Mn, T.W);
        !S.ok())
      return S;
    if (Space != std::string_view::npos) {
      std::string_view Rest = Part.substr(Space + 1);
      while (true) {
        const size_t Comma = Rest.find(',');
        TemplateOperand O;
        if (MaoStatus S = parseTemplateOperand(Rest.substr(0, Comma), O);
            !S.ok())
          return S;
        T.Ops.push_back(O);
        if (Comma == std::string_view::npos)
          break;
        Rest = Rest.substr(Comma + 1);
      }
    }
    if (T.Ops.size() > 2)
      return MaoStatus::error("template instructions take at most 2 operands");
    Out.push_back(std::move(T));
    if (Semi == std::string_view::npos)
      break;
    Text = trimmed(Text.substr(Semi + 1));
  }
  return MaoStatus::success();
}

MaoStatus compilePeepholeRule(PeepholeRule &R) {
  if (MaoStatus S = parseTemplates(R.Pattern, R.Pat); !S.ok())
    return S;
  if (R.Pat.empty())
    return MaoStatus::error("window rule with empty pattern");
  if (MaoStatus S = parseTemplates(R.Replacement, R.Rep); !S.ok())
    return S;
  // Every fire shrinks its block, so SYNTH's rescans end.
  if (R.Rep.size() >= R.Pat.size())
    return MaoStatus::error("window replacement not shorter than its pattern");
  if (MaoStatus S = parseWindowGuards(R.Guards, R.DeadFlags); !S.ok())
    return S;
  // Count pattern variables; the replacement may only use bound ones.
  uint32_t PatVars = 0;
  for (const TemplateInsn &T : R.Pat)
    for (const TemplateOperand &O : T.Ops)
      if (O.K == TemplateOperand::Kind::RegVar)
        PatVars |= 1u << O.Var;
  for (const TemplateInsn &T : R.Rep)
    for (const TemplateOperand &O : T.Ops)
      if (O.K == TemplateOperand::Kind::RegVar && !(PatVars & (1u << O.Var)))
        return MaoStatus::error(
            "replacement uses unbound variable %" +
            std::string(1, static_cast<char>('A' + O.Var)));
  R.NumVars = 0;
  for (unsigned V = 0; V < MaxRuleVars; ++V)
    if (PatVars & (1u << V))
      R.NumVars = V + 1;
  return MaoStatus::success();
}

const std::vector<PeepholeRule> &activePeepholeRules() {
  return mutableActiveRules();
}

MaoStatus loadSynthPeepholeRules(const std::string &DefText) {
  std::vector<PeepholeRule> Parsed;
  if (MaoStatus S = parsePeepholeRulesDef(DefText, Parsed); !S.ok())
    return S;
  mutableActiveRules() = std::move(Parsed);
  return MaoStatus::success();
}

void resetPeepholeRules() { mutableActiveRules() = compileBuiltins(); }

uint64_t peepholeRuleDigest() {
  uint64_t Hash = fnv1a64("");
  auto Mix = [&Hash](std::string_view Text) {
    Hash = fnv1a64(Text, Hash);
    Hash = fnv1a64("\xff", Hash); // Field separator.
  };
  for (const PeepholeRule &R : activePeepholeRules()) {
    Mix(R.Name);
    Mix(R.Pattern);
    Mix(R.Guards);
    Mix(R.Replacement);
  }
  return Hash;
}

MaoStatus parsePeepholeRulesDef(const std::string &Text,
                                std::vector<PeepholeRule> &Out) {
  Out.clear();
  constexpr std::string_view Marker = "MAO_PEEPHOLE_RULE";
  size_t Pos = 0;
  while ((Pos = Text.find(Marker, Pos)) != std::string::npos) {
    // Skip mentions inside line comments (the rendered header names the
    // macro in prose).
    const size_t LineStart = Text.rfind('\n', Pos) + 1; // npos+1 == 0.
    if (Text.compare(LineStart, 2, "//") == 0) {
      Pos += Marker.size();
      continue;
    }
    size_t P = Pos + Marker.size();
    auto SkipSpace = [&] {
      while (P < Text.size() &&
             (Text[P] == ' ' || Text[P] == '\t' || Text[P] == '\n' ||
              Text[P] == '\r'))
        ++P;
    };
    SkipSpace();
    if (P >= Text.size() || Text[P] != '(')
      return MaoStatus::error("expected '(' after MAO_PEEPHOLE_RULE");
    ++P;
    std::vector<std::string> Fields;
    while (true) {
      SkipSpace();
      if (P >= Text.size())
        return MaoStatus::error("unterminated MAO_PEEPHOLE_RULE invocation");
      std::string Field;
      if (Text[P] == '"') {
        const size_t End = Text.find('"', P + 1);
        if (End == std::string::npos)
          return MaoStatus::error("unterminated string in rule table");
        Field = Text.substr(P + 1, End - P - 1);
        P = End + 1;
      } else {
        while (P < Text.size() &&
               (std::isalnum(static_cast<unsigned char>(Text[P])) ||
                Text[P] == '_'))
          Field += Text[P++];
        if (Field.empty())
          return MaoStatus::error("bad field in rule table near offset " +
                                  std::to_string(P));
      }
      Fields.push_back(std::move(Field));
      SkipSpace();
      if (P < Text.size() && Text[P] == ',') {
        ++P;
        continue;
      }
      if (P < Text.size() && Text[P] == ')') {
        ++P;
        break;
      }
      return MaoStatus::error("expected ',' or ')' in rule table");
    }
    if (Fields.size() != 5)
      return MaoStatus::error("MAO_PEEPHOLE_RULE takes 5 fields, got " +
                              std::to_string(Fields.size()));
    PeepholeRule R;
    R.Name = Fields[0];
    R.Pattern = Fields[1];
    R.Guards = Fields[2];
    R.Replacement = Fields[3];
    R.Provenance = Fields[4];
    if (MaoStatus S = compilePeepholeRule(R); !S.ok())
      return MaoStatus::error(R.Name + ": " + S.message());
    Out.push_back(std::move(R));
    Pos = P;
  }
  return MaoStatus::success();
}

std::string renderPeepholeRulesDef(const std::vector<PeepholeRule> &Rules) {
  std::string Out =
      "//===- passes/PeepholeRules.def - Synthesized peephole rules "
      "---------------===//\n"
      "//\n"
      "// One MAO_PEEPHOLE_RULE(Name, Pattern, Guards, Replacement, "
      "Provenance) row\n"
      "// per window rule the SYNTH pass applies (PeepholeEngine.h): an "
      "adjacent\n"
      "// rewrite in the template language. The hand-written peepholes "
      "(ZEE,\n"
      "// REDTEST, REDMOV, ADDADD) are passes, not rows. This file is what\n"
      "//\n"
      "//   mao --synth --synth-no-workloads "
      "--synth-out=src/passes/PeepholeRules.def examples/*.s\n"
      "//\n"
      "// emits, byte for byte: every row was proven equivalent by the "
      "symbolic\n"
      "// oracle, re-verified by SemanticValidator, and kept only for a "
      "strict\n"
      "// simulated-cycle win (see src/synth/Synth.h), recorded as\n"
      "// win=BEFORE->AFTER in its provenance.\n"
      "//\n"
      "//===-----------------------------------------------------------------"
      "-----===//\n";
  for (const PeepholeRule &R : Rules) {
    Out += "\nMAO_PEEPHOLE_RULE(" + R.Name + ",\n";
    Out += "                  \"" + R.Pattern + "\",\n";
    Out += "                  \"" + R.Guards + "\",\n";
    Out += "                  \"" + R.Replacement + "\",\n";
    Out += "                  \"" + R.Provenance + "\")\n";
  }
  return Out;
}

size_t findWindow(const PeepholeRule &R, const std::vector<EntryIter> &Insns,
                  const LivenessResult &Live, unsigned Block,
                  std::array<Reg, MaxRuleVars> &Bind) {
  InsnLiveness IL;
  if (R.DeadFlags)
    IL = perInstructionLiveness(Insns, Live, Block);
  for (size_t I = 0; I + R.Pat.size() <= Insns.size(); ++I)
    if (matchWindowAt(R, Insns, I, Bind) &&
        !(R.DeadFlags &&
          (IL.FlagsLiveAfter[I + R.Pat.size() - 1] & R.DeadFlags)))
      return I;
  return Insns.size();
}

void applyWindow(MaoUnit &Unit, const PeepholeRule &R,
                 std::vector<EntryIter> &Insns, size_t I,
                 const std::array<Reg, MaxRuleVars> &Bind) {
  for (size_t K = 0; K < R.Rep.size(); ++K)
    Insns[I + K]->instruction() = renderTemplateInsn(R.Rep[K], Bind);
  for (size_t K = R.Pat.size(); K-- > R.Rep.size();) {
    Unit.erase(Insns[I + K]);
    Insns.erase(Insns.begin() + static_cast<long>(I + K));
  }
}

} // namespace mao
