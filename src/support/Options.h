//===- support/Options.h - MAO command-line option model --------*- C++ -*-===//
///
/// \file
/// Parsing of MAO's pass-invocation command line (paper Sec. III-A):
///
///   mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s
///
/// Everything after an option's "--mao=" prefix is a ':'-separated list of
/// pass specifications. Each specification is PASSNAME or
/// PASSNAME=opt[value],opt[value],... The order of specifications defines
/// the pass invocation order. The driver's full command line is parsed in
/// mao/CommandLine.h; passes and benches use the pass-request model here.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_OPTIONS_H
#define MAO_SUPPORT_OPTIONS_H

#include "support/Status.h"

#include <map>
#include <string>
#include <vector>

namespace mao {

/// Option values attached to one pass invocation, e.g. {"trace": "3"}.
class MaoOptionMap {
public:
  /// Inserts or overwrites option \p Name.
  void set(const std::string &Name, const std::string &Value) {
    Values[Name] = Value;
  }

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }

  /// Returns the option's string value or \p Default when unset.
  std::string getString(const std::string &Name,
                        const std::string &Default = "") const;

  /// Returns the option parsed as a signed integer or \p Default when unset
  /// or unparsable.
  long getInt(const std::string &Name, long Default = 0) const;

  /// Returns the option parsed as a boolean ("", "1", "true", "on" are
  /// true; "0", "false", "off" are false) or \p Default when unset.
  bool getBool(const std::string &Name, bool Default = false) const;

  const std::map<std::string, std::string> &all() const { return Values; }

private:
  std::map<std::string, std::string> Values;
};

/// One requested pass invocation: a pass name plus its options.
struct PassRequest {
  std::string PassName;
  MaoOptionMap Options;
};

/// Parses one --mao= payload ("LFIND=trace[0]:ASM=o[/dev/null]") into pass
/// requests appended to \p Out. Returns an error for malformed syntax.
MaoStatus parseMaoOption(const std::string &Payload,
                         std::vector<PassRequest> &Out);

/// Parses one comma-spelling pipeline payload ("zee,sched(window=8)") into
/// pass requests appended to \p Out. Pure syntax: pass names are not
/// validated here (the support layer does not know them); use
/// PassRegistry::parsePipeline for the validating front end.
MaoStatus parsePassListSyntax(const std::string &Payload,
                              std::vector<PassRequest> &Out);

} // namespace mao

#endif // MAO_SUPPORT_OPTIONS_H
