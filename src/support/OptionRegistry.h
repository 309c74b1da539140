//===- support/OptionRegistry.h - Declarative flag registry -----*- C++ -*-===//
///
/// \file
/// One declarative definition site per command-line flag. Before this
/// registry existed the driver surface was parsed three different ways:
/// support/Options.cpp hand-matched `--mao-*` prefixes, tools/maofuzz.cpp
/// had its own argv loop, and every pass re-parsed its knobs out of a raw
/// MaoOptionMap. The registry replaces the first two with a table:
///
///   OptionRegistry R;
///   R.addFlag("--lint", &Cmd.RunLint, "run the MaoCheck linter ...");
///   R.addInt("--mao-pass-timeout-ms", &Cmd.Optimize.PassTimeoutMs, 0, "...");
///   MaoStatus S = R.parse(Args);
///
/// Each definition carries its help text, so `help()` renders the complete
/// flag reference from the same table that parses (nothing can go stale),
/// and an unknown `--`-prefixed argument produces a did-you-mean suggestion
/// computed over the registered names instead of being silently passed
/// through.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_OPTIONREGISTRY_H
#define MAO_SUPPORT_OPTIONREGISTRY_H

#include "support/Status.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace mao {

/// Levenshtein distance between \p A and \p B; the workhorse of the
/// registry's did-you-mean machinery, exposed for other name spaces that
/// want the same behaviour (the pass registry uses it for pass names).
unsigned editDistance(const std::string &A, const std::string &B);

/// The candidate in \p Candidates nearest to \p Name, or "" when nothing is
/// close enough to plausibly be a typo (distance > max(2, |Name|/3)).
std::string suggestNearest(const std::string &Name,
                           const std::vector<std::string> &Candidates);

/// A declarative command-line flag table; see the file comment.
class OptionRegistry {
public:
  /// How a definition consumes its argument text.
  enum class Kind : uint8_t {
    Flag,   ///< Bare switch: `--name` (no value).
    String, ///< `--name=VALUE`, any text.
    Int,    ///< `--name=N`, validated signed integer.
    Uint,   ///< `--name=N`, validated unsigned integer.
    Enum,   ///< `--name=one-of-fixed-set`.
    Custom, ///< `--name=...`, handed to a callback verbatim.
  };

  /// Registers a bare switch storing \p Value into \p Target when seen
  /// (false for an inverted switch such as `--lint-no-interproc`).
  void addFlag(const std::string &Name, bool *Target, const std::string &Help,
               bool Value = true);

  /// Registers `--name=VALUE` storing the raw text.
  void addString(const std::string &Name, std::string *Target,
                 const std::string &Help);

  /// Registers `--name=N`; rejects non-integers and values below \p Min.
  void addInt(const std::string &Name, long *Target, long Min,
              const std::string &Help);

  /// Registers `--name=N` for unsigned targets; rejects non-integers and
  /// values below \p Min.
  void addUint(const std::string &Name, unsigned *Target, unsigned Min,
               const std::string &Help);

  /// Registers `--name=V` accepting exactly the strings in \p Allowed.
  void addEnum(const std::string &Name, std::string *Target,
               std::vector<std::string> Allowed, const std::string &Help);

  /// Registers `--name=...` (or, with \p ValueRequired false, a bare
  /// `--name`) whose payload is interpreted by \p Apply. The callback
  /// returns an error status to reject the value.
  void addCustom(const std::string &Name,
                 std::function<MaoStatus(const std::string &)> Apply,
                 const std::string &Help, bool ValueRequired = true);

  /// Arguments that are not registered flags: `-`-prefixed ones go to
  /// \p Passthrough (when set; otherwise they are an error), the rest to
  /// \p Positionals.
  void setPassthrough(std::vector<std::string> *Passthrough) {
    PassthroughOut = Passthrough;
  }
  void setPositionals(std::vector<std::string> *Positionals) {
    PositionalOut = Positionals;
  }

  /// Parses \p Args against the table. Unknown `--`-prefixed arguments
  /// that look like typos of a registered flag (see suggestNearest) are
  /// errors with a suggestion, and so are those that share a registered
  /// flag's first word (`--mao-…`); other unknown dash arguments follow
  /// the passthrough rule above.
  MaoStatus parse(const std::vector<std::string> &Args) const;

  /// Renders the flag reference, one definition per line, sorted by name.
  std::string help() const;

  /// All registered flag names (sorted), e.g. for external suggestion use.
  std::vector<std::string> names() const;

private:
  struct Definition {
    std::string Name; ///< Including the leading dashes, excluding '='.
    Kind ValueKind = Kind::Flag;
    std::string Help;
    std::vector<std::string> Allowed; ///< Enum values (Kind::Enum only).
    std::function<MaoStatus(const std::string &)> Apply;
    bool ValueRequired = true; ///< Custom only: `--name=` vs bare `--name`.
  };

  /// One-line usage stub for a definition ("--name=N", "--name={a,b}").
  static std::string valueStub(const Definition &Def);

  std::vector<Definition> Definitions;
  std::vector<std::string> *PassthroughOut = nullptr;
  std::vector<std::string> *PositionalOut = nullptr;
};

} // namespace mao

#endif // MAO_SUPPORT_OPTIONREGISTRY_H
