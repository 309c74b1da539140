//===- support/OptionRegistry.cpp - Declarative flag registry ----------------==//

#include "support/OptionRegistry.h"

#include <algorithm>
#include <cstdlib>

using namespace mao;

unsigned mao::editDistance(const std::string &A, const std::string &B) {
  const size_t N = A.size(), M = B.size();
  std::vector<unsigned> Row(M + 1);
  for (size_t J = 0; J <= M; ++J)
    Row[J] = static_cast<unsigned>(J);
  for (size_t I = 1; I <= N; ++I) {
    unsigned Diag = Row[0];
    Row[0] = static_cast<unsigned>(I);
    for (size_t J = 1; J <= M; ++J) {
      unsigned Prev = Row[J];
      const unsigned Subst = Diag + (A[I - 1] == B[J - 1] ? 0 : 1);
      Row[J] = std::min({Row[J] + 1, Row[J - 1] + 1, Subst});
      Diag = Prev;
    }
  }
  return Row[M];
}

std::string mao::suggestNearest(const std::string &Name,
                                const std::vector<std::string> &Candidates) {
  std::string Best;
  unsigned BestDist = ~0u;
  for (const std::string &C : Candidates) {
    unsigned D = editDistance(Name, C);
    if (D < BestDist || (D == BestDist && C < Best)) {
      BestDist = D;
      Best = C;
    }
  }
  const unsigned Budget =
      std::max<unsigned>(2, static_cast<unsigned>(Name.size()) / 3);
  return BestDist <= Budget ? Best : std::string();
}

void OptionRegistry::addFlag(const std::string &Name, bool *Target,
                             const std::string &Help, bool Value) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::Flag;
  Def.Help = Help;
  Def.Apply = [Target, Value](const std::string &) {
    *Target = Value;
    return MaoStatus::success();
  };
  Definitions.push_back(std::move(Def));
}

void OptionRegistry::addString(const std::string &Name, std::string *Target,
                               const std::string &Help) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::String;
  Def.Help = Help;
  Def.Apply = [Target](const std::string &Value) {
    *Target = Value;
    return MaoStatus::success();
  };
  Definitions.push_back(std::move(Def));
}

namespace {

ErrorOr<long> parseLong(const std::string &Name, const std::string &Value,
                        long Min) {
  char *End = nullptr;
  long Parsed = std::strtol(Value.c_str(), &End, 10);
  if (End == Value.c_str() || *End != '\0')
    return MaoStatus::error(Name + " expects an integer; got '" + Value + "'");
  if (Parsed < Min)
    return MaoStatus::error(Name + " expects a value >= " +
                            std::to_string(Min) + "; got '" + Value + "'");
  return Parsed;
}

} // namespace

void OptionRegistry::addInt(const std::string &Name, long *Target, long Min,
                            const std::string &Help) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::Int;
  Def.Help = Help;
  Def.Apply = [Name, Target, Min](const std::string &Value) {
    ErrorOr<long> Parsed = parseLong(Name, Value, Min);
    if (!Parsed.ok())
      return MaoStatus::error(Parsed.message());
    *Target = *Parsed;
    return MaoStatus::success();
  };
  Definitions.push_back(std::move(Def));
}

void OptionRegistry::addUint(const std::string &Name, unsigned *Target,
                             unsigned Min, const std::string &Help) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::Uint;
  Def.Help = Help;
  Def.Apply = [Name, Target, Min](const std::string &Value) {
    ErrorOr<long> Parsed = parseLong(Name, Value, static_cast<long>(Min));
    if (!Parsed.ok())
      return MaoStatus::error(Parsed.message());
    *Target = static_cast<unsigned>(*Parsed);
    return MaoStatus::success();
  };
  Definitions.push_back(std::move(Def));
}

void OptionRegistry::addEnum(const std::string &Name, std::string *Target,
                             std::vector<std::string> Allowed,
                             const std::string &Help) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::Enum;
  Def.Help = Help;
  Def.Allowed = Allowed;
  Def.Apply = [Name, Target, Allowed](const std::string &Value) {
    if (std::find(Allowed.begin(), Allowed.end(), Value) == Allowed.end()) {
      std::string List;
      for (const std::string &A : Allowed)
        List += (List.empty() ? "" : ", ") + A;
      return MaoStatus::error(Name + " expects one of " + List + "; got '" +
                              Value + "'");
    }
    *Target = Value;
    return MaoStatus::success();
  };
  Definitions.push_back(std::move(Def));
}

void OptionRegistry::addCustom(
    const std::string &Name,
    std::function<MaoStatus(const std::string &)> Apply,
    const std::string &Help, bool ValueRequired) {
  Definition Def;
  Def.Name = Name;
  Def.ValueKind = Kind::Custom;
  Def.Help = Help;
  Def.Apply = std::move(Apply);
  Def.ValueRequired = ValueRequired;
  Definitions.push_back(std::move(Def));
}

std::string OptionRegistry::valueStub(const Definition &Def) {
  switch (Def.ValueKind) {
  case Kind::Flag:
    return Def.Name;
  case Kind::Int:
  case Kind::Uint:
    return Def.Name + "=N";
  case Kind::Enum: {
    std::string Values;
    for (const std::string &A : Def.Allowed)
      Values += (Values.empty() ? "" : ",") + A;
    return Def.Name + "={" + Values + "}";
  }
  case Kind::String:
  case Kind::Custom:
    return Def.Name + (Def.ValueRequired ? "=..." : "[=...]");
  }
  return Def.Name;
}

MaoStatus OptionRegistry::parse(const std::vector<std::string> &Args) const {
  for (const std::string &Arg : Args) {
    // Exact bare-name match first (flags, and customs that allow it).
    const Definition *Match = nullptr;
    std::string Value;
    for (const Definition &Def : Definitions) {
      if (Arg == Def.Name &&
          (Def.ValueKind == Kind::Flag ||
           (Def.ValueKind == Kind::Custom && !Def.ValueRequired))) {
        Match = &Def;
        break;
      }
      if (Def.ValueKind != Kind::Flag &&
          Arg.size() > Def.Name.size() + 1 &&
          Arg.compare(0, Def.Name.size(), Def.Name) == 0 &&
          Arg[Def.Name.size()] == '=') {
        Match = &Def;
        Value = Arg.substr(Def.Name.size() + 1);
        break;
      }
    }
    if (Match) {
      if (MaoStatus S = Match->Apply(Value))
        return S;
      continue;
    }

    if (!Arg.empty() && Arg[0] == '-') {
      // A registered name used with the wrong shape gets a precise error
      // before the typo machinery (e.g. `--lint=1` or a bare `--mao-jobs`).
      const std::string Stem = Arg.substr(0, Arg.find('='));
      for (const Definition &Def : Definitions) {
        if (Stem != Def.Name)
          continue;
        if (Def.ValueKind == Kind::Flag)
          return MaoStatus::error(Def.Name + " does not take a value");
        return MaoStatus::error(Def.Name + " requires a value: " +
                                valueStub(Def));
      }
      // Unknown double-dash arguments are almost always typos of our own
      // surface; suggest the nearest flag. Single-dash unknowns follow the
      // passthrough rule (they are assembler options in the mao driver).
      if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
        std::string Suggestion = suggestNearest(Stem, names());
        if (!Suggestion.empty())
          return MaoStatus::error("unknown option '" + Arg +
                                  "'; did you mean '" + Suggestion + "'?");
      }
      if (PassthroughOut) {
        PassthroughOut->push_back(Arg);
        continue;
      }
      return MaoStatus::error("unknown option '" + Arg + "'");
    }

    if (PositionalOut) {
      PositionalOut->push_back(Arg);
      continue;
    }
    return MaoStatus::error("unexpected positional argument '" + Arg + "'");
  }
  return MaoStatus::success();
}

std::string OptionRegistry::help() const {
  std::vector<const Definition *> Sorted;
  Sorted.reserve(Definitions.size());
  for (const Definition &Def : Definitions)
    Sorted.push_back(&Def);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Definition *A, const Definition *B) {
              return A->Name < B->Name;
            });
  std::string Out;
  for (const Definition *Def : Sorted) {
    std::string Stub = "  " + valueStub(*Def);
    if (Stub.size() < 34)
      Stub.resize(34, ' ');
    else
      Stub += "\n" + std::string(34, ' ');
    Out += Stub + Def->Help + "\n";
  }
  return Out;
}

std::vector<std::string> OptionRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Definitions.size());
  for (const Definition &Def : Definitions)
    Out.push_back(Def.Name);
  std::sort(Out.begin(), Out.end());
  return Out;
}
