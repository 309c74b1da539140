//===- support/Options.cpp - MAO command-line option model ----------------==//

#include "support/Options.h"

#include <cstdlib>

using namespace mao;

std::string MaoOptionMap::getString(const std::string &Name,
                                    const std::string &Default) const {
  auto It = Values.find(Name);
  return It == Values.end() ? Default : It->second;
}

long MaoOptionMap::getInt(const std::string &Name, long Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  char *End = nullptr;
  long Parsed = std::strtol(It->second.c_str(), &End, 0);
  if (End == It->second.c_str() || *End != '\0')
    return Default;
  return Parsed;
}

bool MaoOptionMap::getBool(const std::string &Name, bool Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  const std::string &V = It->second;
  if (V.empty() || V == "1" || V == "true" || V == "on")
    return true;
  if (V == "0" || V == "false" || V == "off")
    return false;
  return Default;
}

/// Splits one PASSNAME=opt[val],opt[val] specification.
static MaoStatus parsePassSpec(const std::string &Spec, PassRequest &Out) {
  if (Spec.empty())
    return MaoStatus::error("empty pass specification in --mao= option");

  std::string::size_type Eq = Spec.find('=');
  Out.PassName = Spec.substr(0, Eq);
  if (Out.PassName.empty())
    return MaoStatus::error("pass specification missing a pass name");
  if (Eq == std::string::npos)
    return MaoStatus::success();

  // Parse the comma-separated option list. Values live in brackets and may
  // contain commas or colons (e.g. file paths), so scan bracket-aware.
  std::string Rest = Spec.substr(Eq + 1);
  std::string::size_type Pos = 0;
  while (Pos < Rest.size()) {
    std::string::size_type OptEnd = Pos;
    int Depth = 0;
    while (OptEnd < Rest.size() && (Depth > 0 || Rest[OptEnd] != ',')) {
      if (Rest[OptEnd] == '[')
        ++Depth;
      else if (Rest[OptEnd] == ']')
        --Depth;
      ++OptEnd;
    }
    if (Depth != 0)
      return MaoStatus::error("unbalanced '[' in pass option: " + Rest);
    std::string Opt = Rest.substr(Pos, OptEnd - Pos);
    if (Opt.empty())
      return MaoStatus::error("empty option in pass specification: " + Spec);

    std::string::size_type Br = Opt.find('[');
    if (Br == std::string::npos) {
      Out.Options.set(Opt, "");
    } else {
      if (Opt.back() != ']')
        return MaoStatus::error("malformed option value in: " + Opt);
      Out.Options.set(Opt.substr(0, Br),
                      Opt.substr(Br + 1, Opt.size() - Br - 2));
    }
    Pos = OptEnd + (OptEnd < Rest.size() ? 1 : 0);
  }
  return MaoStatus::success();
}

MaoStatus mao::parseMaoOption(const std::string &Payload,
                              std::vector<PassRequest> &Out) {
  // Pass specifications are separated by ':' at bracket depth zero; values
  // inside brackets may themselves contain ':' (e.g. ASM=o[a:b.s]).
  std::string::size_type Pos = 0;
  while (Pos <= Payload.size()) {
    std::string::size_type End = Pos;
    int Depth = 0;
    while (End < Payload.size() && (Depth > 0 || Payload[End] != ':')) {
      if (Payload[End] == '[')
        ++Depth;
      else if (Payload[End] == ']')
        --Depth;
      ++End;
    }
    PassRequest Req;
    if (MaoStatus S = parsePassSpec(Payload.substr(Pos, End - Pos), Req))
      return S;
    Out.push_back(std::move(Req));
    if (End >= Payload.size())
      break;
    Pos = End + 1;
    if (Pos == Payload.size())
      return MaoStatus::error("trailing ':' in --mao= option");
  }
  return MaoStatus::success();
}

MaoStatus mao::parsePassListSyntax(const std::string &Payload,
                                   std::vector<PassRequest> &Out) {
  // Pass items separated by ',' at paren depth zero; each item is NAME or
  // NAME(opt=value,opt=value,...). Values may not contain ',' or ')'.
  std::string::size_type Pos = 0;
  if (Payload.empty())
    return MaoStatus::error("empty pass list");
  while (Pos <= Payload.size()) {
    std::string::size_type End = Pos;
    int Depth = 0;
    while (End < Payload.size() && (Depth > 0 || Payload[End] != ',')) {
      if (Payload[End] == '(')
        ++Depth;
      else if (Payload[End] == ')')
        --Depth;
      ++End;
    }
    if (Depth != 0)
      return MaoStatus::error("unbalanced '(' in pass list: " + Payload);
    std::string Item = Payload.substr(Pos, End - Pos);
    if (Item.empty())
      return MaoStatus::error("empty pass item in pass list: " + Payload);

    PassRequest Req;
    std::string::size_type Paren = Item.find('(');
    if (Paren == std::string::npos) {
      Req.PassName = Item;
    } else {
      if (Item.back() != ')')
        return MaoStatus::error("malformed pass parameters in: " + Item);
      Req.PassName = Item.substr(0, Paren);
      std::string Params = Item.substr(Paren + 1, Item.size() - Paren - 2);
      std::string::size_type P = 0;
      while (P < Params.size()) {
        std::string::size_type Comma = Params.find(',', P);
        std::string Param = Params.substr(
            P, Comma == std::string::npos ? std::string::npos : Comma - P);
        if (Param.empty())
          return MaoStatus::error("empty parameter in pass item: " + Item);
        std::string::size_type Eq = Param.find('=');
        if (Eq == std::string::npos)
          Req.Options.set(Param, ""); // Bare parameter: boolean true.
        else
          Req.Options.set(Param.substr(0, Eq), Param.substr(Eq + 1));
        if (Comma == std::string::npos)
          break;
        P = Comma + 1;
        if (P == Params.size())
          return MaoStatus::error("trailing ',' in pass parameters: " + Item);
      }
    }
    if (Req.PassName.empty())
      return MaoStatus::error("pass item missing a pass name: " + Payload);
    Out.push_back(std::move(Req));
    if (End >= Payload.size())
      break;
    Pos = End + 1;
    if (Pos == Payload.size())
      return MaoStatus::error("trailing ',' in pass list: " + Payload);
  }
  return MaoStatus::success();
}
