//===- mao/CommandLine.cpp - The mao driver's command line ----------------===//

#include "mao/CommandLine.h"

#include "support/FaultInjection.h"
#include "support/OptionRegistry.h"
#include "support/Options.h"

#include <cstdlib>

using namespace mao;

namespace {

/// Builds the declarative flag table for the driver surface over \p Cmd.
/// THE single definition site: parseCommandLine and driverOptionHelp both
/// render from here.
OptionRegistry buildDriverOptions(MaoCommandLine &Cmd) {
  OptionRegistry R;
  R.addCustom(
      "--mao",
      [&Cmd](const std::string &Payload) {
        if (api::Status S = api::Session::parseClassicSpec(Payload, Cmd.Passes);
            !S.Ok)
          return MaoStatus::error(S.Message);
        return MaoStatus::success();
      },
      "pass pipeline, classic spelling: PASS[=opt[val],...][:PASS...]");
  R.addCustom(
      "--mao-passes",
      [&Cmd](const std::string &Payload) {
        std::vector<PassRequest> Probe; // Syntax check now, resolve later.
        if (MaoStatus S = parsePassListSyntax(Payload, Probe))
          return S;
        Cmd.PassSpecs.push_back(Payload);
        return MaoStatus::success();
      },
      "pass pipeline, registry spelling: a,b(c=1,d=2); names are validated "
      "against the pass registry with did-you-mean suggestions");
  R.addFlag("--mao-help", &Cmd.Help,
            "print this generated flag reference and exit");
  R.addEnum("--mao-on-error", &Cmd.Optimize.OnError,
            {"abort", "rollback", "skip"},
            "what a failing pass does to the rest of the pipeline");
  R.addFlag("--mao-verify", &Cmd.Optimize.VerifyAfterEachPass,
            "run the full IR verifier after every pass");
  R.addEnum("--mao-validate", &Cmd.Optimize.Validate,
            {"off", "structural", "semantic"},
            "per-pass validation level (semantic proves behaviour preserved)");
  R.addInt("--mao-pass-timeout-ms", &Cmd.Optimize.PassTimeoutMs, 0,
           "per-pass wall-clock budget in ms (0 = unlimited)");
  // parseCommandLine fans the value out to every request's Jobs.
  R.addUint("--mao-jobs", &Cmd.Optimize.Jobs, 0,
            "workers for shardable passes and tuner candidates "
            "(0 = all hardware threads); output is identical for every N");
  // A 64-bit unsigned value; \p Expects names it in the error message.
  auto AddU64 = [&R](const char *Flag, uint64_t *Slot, const char *Expects,
                     const char *Help) {
    R.addCustom(
        Flag,
        [Flag, Slot, Expects](const std::string &Value) {
          char *End = nullptr;
          unsigned long long N = std::strtoull(Value.c_str(), &End, 10);
          if (End == Value.c_str() || *End != '\0')
            return MaoStatus::error(std::string(Flag) + " expects " +
                                    Expects + "; got '" + Value + "'");
          *Slot = N;
          return MaoStatus::success();
        },
        Help);
  };
  R.addCustom(
      "--mao-fault-inject",
      [&Cmd](const std::string &Payload) {
        if (MaoStatus S = splitFaultSeed(Payload, Cmd.FaultSpec, Cmd.FaultSeed))
          return MaoStatus::error("--mao-fault-inject " + S.message());
        return MaoStatus::success();
      },
      "arm the deterministic fault injector: site:permille[,...][@seed]");
  // A file path that may not be empty; \p Expects completes the error.
  auto AddPath = [&R](const char *Flag, std::string *Slot,
                      const char *Expects, const char *Help) {
    R.addCustom(
        Flag,
        [Flag, Slot, Expects](const std::string &Path) {
          if (Path.empty())
            return MaoStatus::error(std::string(Flag) + " expects " + Expects);
          *Slot = Path;
          return MaoStatus::success();
        },
        Help);
  };
  AddPath("--mao-sarif", &Cmd.Session.SarifPath, "a file path",
          "also write diagnostics as a SARIF 2.1.0 log to FILE");
  AddPath("--mao-report", &Cmd.ReportPath, "a file path or '-'",
          "write the machine-readable JSON run report to FILE ('-' for "
          "stdout)");
  R.addFlag("--stats", &Cmd.Stats,
            "print the human-readable run statistics table to stderr");
  AddPath("--mao-trace-out", &Cmd.Session.TraceOutPath, "a file path",
          "write a Chrome trace-event timeline of the run to FILE");
  R.addInt("--mao-trace-level", &Cmd.TraceLevel, 0,
           "global trace verbosity (0-3) for infrastructure tracing and "
           "passes without an explicit trace[N] option");
  R.addString("--cache-dir", &Cmd.CacheDir,
              "persistent artifact cache directory; hits skip the pipeline "
              "and are byte-identical to a recompute");
  R.addString("--connect", &Cmd.ConnectPath,
              "run through the maod daemon at this unix socket (bounded "
              "retry, then transparent local fallback)");
  R.addFlag("--cache-verify", &Cmd.CacheVerify,
            "on a cache hit, recompute anyway and fail on any divergence");
  AddU64("--cache-budget", &Cmd.CacheBudget, "a byte count",
         "cap the on-disk artifact cache at BYTES of entries, evicting "
         "oldest-first (0 = unlimited)");
  R.addFlag("--lint", &Cmd.RunLint,
            "run the MaoCheck linter instead of the pass pipeline");
  R.addFlag("--lint-werror", &Cmd.Lint.WarningsAsErrors,
            "promote linter warnings to errors");
  R.addFlag("--lint-no-interproc", &Cmd.Lint.Interprocedural,
            "disable interprocedural summaries: calls clobber everything "
            "and the ABI conformance rules are skipped",
            /*Value=*/false);
  R.addString("--lint-baseline", &Cmd.Lint.BaselinePath,
              "suppress lint findings whose fingerprints appear in FILE");
  R.addString("--lint-baseline-out", &Cmd.Lint.BaselineOutPath,
              "write all current lint findings' fingerprints to FILE (a "
              "baseline that re-lints clean)");
  R.addFlag("--tune", &Cmd.RunTune,
            "search pass parameterizations with the uarch simulator as the "
            "objective (see DESIGN.md, \"Autotuning\")");
  R.addCustom(
      "--tune-budget",
      [&Cmd](const std::string &Value) {
        if (Value != "small" && Value != "medium" && Value != "large") {
          char *End = nullptr;
          long N = std::strtol(Value.c_str(), &End, 10);
          if (End == Value.c_str() || *End != '\0' || N < 1)
            return MaoStatus::error("--tune-budget expects small, medium, "
                                    "large, or a positive candidate count; "
                                    "got '" +
                                    Value + "'");
        }
        Cmd.Tune.Budget = Value;
        return MaoStatus::success();
      },
      "candidate-evaluation budget: small, medium, large, or a count");
  R.addString("--tune-report", &Cmd.TuneReportPath,
              "write the machine-readable JSON tuning report to FILE");
  AddU64("--tune-seed", &Cmd.Tune.Seed, "an integer",
         "search seed; runs are deterministic in (input, seed, budget, "
         "config)");
  R.addEnum("--tune-config", &Cmd.Tune.Config, {"core2", "opteron"},
            "processor model scoring tuner candidates");
  R.addString("--tune-entry", &Cmd.Tune.Entry,
              "function to emulate and score (default: bench_main, else the "
              "first function)");
  R.addFlag("--tune-synth-axis", &Cmd.Tune.SynthAxis,
            "let the tuner toggle the synthesized rule pass as a search "
            "axis (off by default; tune trajectories stay stable)");
  R.addFlag("--tune-layout-axis", &Cmd.Tune.LayoutAxis,
            "let the tuner toggle hot/cold function splitting and I-cache "
            "block reordering as search axes (off by default)");
  R.addFlag("--synth", &Cmd.RunSynth,
            "run the superoptimizer rule-synthesis loop over the input "
            "instead of a pass pipeline (see DESIGN.md, \"Rule synthesis\")");
  R.addString("--synth-out", &Cmd.Synth.OutPath,
              "write the synthesized PeepholeRules.def table to FILE");
  R.addUint("--synth-window", &Cmd.Synth.MaxWindow, 1,
            "longest harvested instruction window (1-3)");
  R.addUint("--synth-max-rules", &Cmd.Synth.MaxRules, 0,
            "cap on emitted synthesized rules (best-supported wins kept)");
  AddU64("--synth-seed", &Cmd.Synth.Seed, "an integer",
         "provenance seed recorded in emitted rules");
  R.addEnum("--synth-config", &Cmd.Synth.Config, {"core2", "opteron"},
            "processor model scoring candidate replacements");
  R.addFlag("--synth-no-workloads", &Cmd.Synth.IncludeWorkloads,
            "harvest only the input corpus, not generated workload code",
            /*Value=*/false);
  R.addString("--synth-rules", &Cmd.SynthRules,
              "replace the peephole rule table with the rules of FILE (a .def "
              "table, the shape mao --synth emits) before optimizing");
  R.addFlag("--synth-verify", &Cmd.SynthVerify,
            "re-prove every active synthesized rule (symbolic oracle plus "
            "SemanticValidator) and exit; the CI gate over the rule table");
  R.setPassthrough(&Cmd.Passthrough);
  R.setPositionals(&Cmd.Inputs);
  return R;
}

} // namespace

ErrorOr<MaoCommandLine>
mao::parseCommandLine(const std::vector<std::string> &Args) {
  MaoCommandLine Cmd;
  OptionRegistry R = buildDriverOptions(Cmd);
  if (MaoStatus S = R.parse(Args))
    return S;
  Cmd.Lint.Jobs = Cmd.Tune.Jobs = Cmd.Synth.Jobs = Cmd.Optimize.Jobs;
  return Cmd;
}

std::string mao::driverOptionHelp() {
  MaoCommandLine Scratch;
  return buildDriverOptions(Scratch).help();
}
