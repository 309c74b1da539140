//===- mao/CommandLine.h - The mao driver's command line --------*- C++ -*-===//
///
/// \file
/// The parsed `mao` command line (paper Sec. III-A):
///
///   mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s
///
/// Each flag is declared once, in CommandLine.cpp's option table, and binds
/// straight into the facade request it configures: `--tune-seed` lands in
/// Tune.Seed, `--lint-werror` in Lint.WarningsAsErrors, and so on. The
/// driver hands those structs to mao::api::Session as they are. What none
/// of them carries is a field of its own here: the mode switches and the
/// observability and service targets. The same table renders `--mao-help`
/// and the did-you-mean suggestions for unknown flags.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_MAO_COMMANDLINE_H
#define MAO_MAO_COMMANDLINE_H

#include "mao/Mao.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mao {

struct MaoCommandLine {
  /// Classic --mao= requests in command-line order.
  std::vector<api::PassSpec> Passes;
  /// --mao-passes=a,b(c=1) payloads in command-line order, syntax-checked
  /// only; the driver resolves them through Session::parsePipelineSpec
  /// (names validated, with did-you-mean) after the --mao= requests.
  std::vector<std::string> PassSpecs;
  /// Single-dash options, passed through to the assembler layer.
  std::vector<std::string> Passthrough;
  /// Positional input files.
  std::vector<std::string> Inputs;
  /// --mao-help: print the generated flag reference and exit.
  bool Help = false;

  /// The run policy (--mao-on-error, --mao-validate, --mao-verify,
  /// --mao-pass-timeout-ms, --mao-jobs) of the plain, --cache-dir and
  /// --connect paths alike.
  api::OptimizeOptions Optimize;
  /// --lint-*; FileName is the driver's input.
  api::LintRequest Lint;
  /// --tune-*.
  api::TuneRequest Tune;
  /// --synth-*; CorpusPaths are the driver's inputs.
  api::SynthOptions Synth;
  /// --mao-sarif and --mao-trace-out.
  api::Session::Config Session;

  /// --lint, --tune, --synth: the mode that replaces the plain pipeline
  /// (lint wins over synth, synth over tune).
  bool RunLint = false;
  bool RunTune = false;
  bool RunSynth = false;
  /// --synth-rules=FILE: load FILE as the peephole rule table first.
  std::string SynthRules;
  /// --synth-verify: re-prove the active synth rules and exit.
  bool SynthVerify = false;
  /// --mao-fault-inject=spec[@seed].
  std::string FaultSpec;
  uint64_t FaultSeed = 1;
  /// --mao-report=FILE ("-" for stdout), --tune-report=FILE and --stats.
  std::string ReportPath;
  std::string TuneReportPath;
  bool Stats = false;
  /// --mao-trace-level=N.
  long TraceLevel = 0;
  /// --cache-dir, --cache-budget, --cache-verify and --connect.
  std::string CacheDir;
  uint64_t CacheBudget = 0;
  bool CacheVerify = false;
  std::string ConnectPath;
};

/// Parses a full argv-style command line (excluding argv[0]).
ErrorOr<MaoCommandLine> parseCommandLine(const std::vector<std::string> &Args);

/// The `--mao-help` body: every registered flag with its help text.
std::string driverOptionHelp();

} // namespace mao

#endif // MAO_MAO_COMMANDLINE_H
