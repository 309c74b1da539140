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
/// the pass invocation order. Options without the --mao= prefix are passed
/// through to the underlying assembler (in this reproduction: collected for
/// the driver to interpret).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_OPTIONS_H
#define MAO_SUPPORT_OPTIONS_H

#include "support/Status.h"

#include <cstdint>
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

/// The fully parsed driver command line. Robustness flags mirror
/// pass/MaoPass.h's PipelineOptions; the policy is kept as a string here so
/// the support library stays independent of the pass layer.
///
/// Every flag is declared exactly once, in buildDriverOptions() — the same
/// declarative table parses the command line, renders `--mao-help`, and
/// produces did-you-mean suggestions for unknown flags.
struct MaoCommandLine {
  /// Pass invocations in command-line order (from --mao=).
  std::vector<PassRequest> Passes;
  /// --mao-passes=a,b(c=1) payloads, in command-line order. The syntax is
  /// the registry-validated pipeline spelling; the driver resolves these
  /// through PassRegistry::parsePipeline (the support layer cannot name
  /// passes) and appends them after the --mao= requests.
  std::vector<std::string> PassSpecs;
  /// Non---mao= options, passed through to the assembler layer.
  std::vector<std::string> Passthrough;
  /// Positional input files.
  std::vector<std::string> Inputs;
  /// --mao-help: print the generated flag reference and exit.
  bool Help = false;
  /// --mao-on-error={abort,rollback,skip}: what a failing pass does to the
  /// rest of the pipeline.
  std::string OnError = "abort";
  /// --mao-verify: run the IR verifier after every pass even under abort.
  bool Verify = false;
  /// --mao-pass-timeout-ms=N: per-pass wall-clock budget (0 = unlimited).
  long PassTimeoutMs = 0;
  /// --mao-jobs=N: worker count for shardable function passes and tuner
  /// candidate evaluation. 0 means "all hardware threads" (resolved by
  /// effectiveJobs()); output is bit-identical for every value, N only
  /// changes wall-clock.
  unsigned Jobs = 1;
  /// --mao-fault-inject=spec[@seed]: arm the fault injector.
  std::string FaultSpec;
  uint64_t FaultSeed = 1;
  /// --mao-relax={grow,optimal}: branch-displacement selection mode.
  /// "grow" is the paper's monotone grow-from-rel8 iteration; "optimal"
  /// additionally audits the converged layout and demotes rel32 branches
  /// whose displacement fits rel8 (see analysis/Relaxer.h).
  std::string RelaxMode = "grow";
  /// --mao-validate={off,structural,semantic}: per-pass validation level.
  /// "structural" runs the IR verifier after every pass; "semantic"
  /// additionally proves each pass preserved observable behaviour
  /// (check/SemanticValidator).
  std::string Validate = "off";
  /// --lint: run the MaoCheck linter instead of the pass pipeline.
  /// Exit codes: 0 clean, 1 findings, 2 internal error.
  bool Lint = false;
  /// --lint-werror: promote linter warnings to errors.
  bool LintWerror = false;
  /// --lint-no-interproc: disable call-graph summaries; every call falls
  /// back to the clobber-everything model and the ABI rules are off.
  bool LintNoInterproc = false;
  /// --lint-baseline=FILE: suppress findings whose fingerprints appear in
  /// FILE (one 16-hex-digit fingerprint at the start of each line).
  std::string LintBaseline;
  /// --lint-baseline-out=FILE: write all current findings' fingerprints to
  /// FILE; using it as --lint-baseline re-lints clean.
  std::string LintBaselineOut;
  /// --mao-sarif=FILE: also write diagnostics as a SARIF 2.1.0 log.
  std::string SarifPath;

  // Autotuning mode (see DESIGN.md "Autotuning" and src/tune).
  /// --tune: search pass parameterizations with the uarch simulator as the
  /// objective instead of running a fixed pipeline.
  bool Tune = false;
  /// --tune-budget=N|small|medium|large: candidate-evaluation budget.
  std::string TuneBudget = "medium";
  /// --tune-report=FILE: write the machine-readable JSON tuning report.
  std::string TuneReport;
  /// --tune-seed=N: search seed; the whole run is a deterministic function
  /// of (input, seed, budget, config) for every --mao-jobs value.
  uint64_t TuneSeed = 1;
  /// --tune-config={core2,opteron}: processor model scoring candidates.
  std::string TuneConfig = "core2";
  /// --tune-entry=NAME: function to emulate/score (default: bench_main,
  /// falling back to the first function in the unit).
  std::string TuneEntry;

  // Rule synthesis (see DESIGN.md "Rule synthesis" and src/synth).
  /// --synth: run the superoptimizer rule-synthesis loop over the input
  /// (plus generated workloads) instead of a pass pipeline, and print the
  /// emitted rule table.
  bool Synth = false;
  /// --synth-out=FILE: write the emitted PeepholeRules.def to FILE.
  std::string SynthOut;
  /// --synth-window=N: longest harvested window, in instructions (1..3).
  unsigned SynthWindow = 2;
  /// --synth-max-rules=N: cap on emitted rules.
  unsigned SynthMaxRules = 16;
  /// --synth-seed=N: recorded in rule provenance.
  uint64_t SynthSeed = 1;
  /// --synth-config={core2,opteron}: processor model scoring candidates.
  std::string SynthConfig = "core2";
  /// --synth-no-workloads: harvest only the input, not generated workloads.
  bool SynthNoWorkloads = false;
  /// --synth-rules=FILE: replace the synth rule group with the rules of
  /// FILE (a .def table, the shape maosynth emits) before optimizing.
  std::string SynthRules;
  /// --synth-verify: re-prove every active synth rule (symbolic oracle +
  /// SemanticValidator) and exit; the CI gate over the committed table.
  bool SynthVerify = false;
  /// --tune-synth-axis: let the tuner toggle the synth rule pass as a
  /// search axis (off by default so tune trajectories stay stable).
  bool TuneSynthAxis = false;
  /// --tune-layout-axis: let the tuner toggle the code-layout passes
  /// (hot/cold splitting, I-cache block reordering) as search axes (off
  /// by default for the same trajectory-stability reason).
  bool TuneLayoutAxis = false;

  // Observability (see DESIGN.md "Observability" and src/support/Stats.h).
  /// --mao-report=FILE: write the machine-readable run report as JSON
  /// ("-" for stdout). Non-timing sections are byte-identical for every
  /// --mao-jobs value.
  std::string ReportPath;
  /// --stats: print the human-readable run statistics table to stderr.
  bool Stats = false;
  /// --mao-trace-out=FILE: write a Chrome trace-event timeline of the run
  /// (one lane per worker thread; load with chrome://tracing or Perfetto).
  std::string TraceOut;
  /// --mao-trace-level=N: global trace verbosity for infrastructure
  /// tracing and for passes without an explicit trace[N] option.
  long TraceLevel = 0;

  // Service mode & persistent cache (see DESIGN.md "Service mode &
  // persistent cache" and src/serve).
  /// --cache-dir=DIR: persistent artifact cache; hits skip the pipeline
  /// and are byte-identical to a recompute.
  std::string CacheDir;
  /// --connect=SOCKET: send the run to a maod daemon at this unix socket,
  /// with bounded retry and transparent local fallback.
  std::string ConnectPath;
  /// --cache-verify: on a cache hit, recompute anyway and fail on any
  /// divergence (acceptance tests and paranoid builds).
  bool CacheVerify = false;
  /// --mao-score-cache-budget=BYTES: cap the tuner's score cache
  /// (0 = unlimited, the default).
  uint64_t ScoreCacheBudget = 0;
  /// --cache-budget=BYTES: cap the on-disk artifact cache, evicting
  /// oldest entries first (0 = unlimited, the default).
  uint64_t CacheBudget = 0;

  /// Worker count with the 0-means-hardware-concurrency rule applied.
  unsigned effectiveJobs() const;
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

/// Parses a full argv-style command line (excluding argv[0]).
ErrorOr<MaoCommandLine> parseCommandLine(const std::vector<std::string> &Args);

/// Renders the generated flag reference for the driver surface (the
/// `--mao-help` body): every registered flag with its help text.
std::string driverOptionHelp();

} // namespace mao

#endif // MAO_SUPPORT_OPTIONS_H
