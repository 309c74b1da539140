//===- tools/mao.cpp - The MAO driver -----------------------------------------===//
///
/// \file
/// The standalone assembly-to-assembly optimizer (paper Sec. III-A):
///
///   mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s
///   mao --mao-passes=zee,sched(window=8) in.s
///
/// Pass order on the command line is the invocation order; reading/parsing
/// the input is implicitly the first pass, and when no ASM pass is named
/// the optimized assembly goes to stdout. Options without the --mao
/// prefix would be passed to the downstream assembler (here: reported and
/// ignored, since the reproduction assembles in-process).
///
/// The driver is a client of the public facade (mao/Mao.h): its command
/// line (mao/CommandLine.h) parses straight into the facade's request
/// structs, which go to mao::api::Session unchanged. `--mao-help` prints
/// the full generated flag reference; see DESIGN.md for the robustness
/// flags, "Autotuning" for `--tune` and "Rule synthesis" for `--synth`,
/// which harvests any number of inputs:
///
///   mao --synth --synth-no-workloads --synth-out=rules.def examples/*.s
///
/// Exit codes: 0 success, 1 usage error, 2 parse/input error, 3
/// pipeline, tuner, synthesis, or verifier error. Under --lint: 0 clean,
/// 1 findings, 2 internal/input error.
///
//===----------------------------------------------------------------------===//

#include "mao/CommandLine.h"
#include "mao/Mao.h"
#include "serve/Serve.h"
#include "support/FileIO.h"

#include <csignal>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

namespace {

constexpr int ExitOk = 0;
constexpr int ExitUsage = 1;
constexpr int ExitParseError = 2;
constexpr int ExitPipelineError = 3;

/// Observability flush hook for SIGINT/SIGTERM: an interrupted run still
/// writes its report, stats table, and trace before dying with the
/// default signal disposition (so the exit status reads as
/// signal-terminated to the parent, e.g. a Makefile).
std::function<void()> *SignalFlush = nullptr;
volatile std::sig_atomic_t InSignalExit = 0;

void onSignal(int Sig) {
  if (InSignalExit) // Re-entered (second ^C): give up immediately.
    _exit(128 + Sig);
  InSignalExit = 1;
  if (SignalFlush)
    (*SignalFlush)();
  std::signal(Sig, SIG_DFL);
  std::raise(Sig);
}

void printUsage() {
  std::fprintf(stderr,
               "usage: mao [--mao=PASS[=opt[val],...][:PASS...]]\n"
               "           [--mao-passes=pass(opt=val,...),pass2,...]\n"
               "           [--mao-on-error={abort,rollback,skip}]\n"
               "           [--mao-verify] [--mao-pass-timeout-ms=N]\n"
               "           [--mao-validate={off,structural,semantic}]\n"
               "           [--mao-jobs=N] [--mao-sarif=FILE]\n"
               "           [--mao-fault-inject=site:permille[,...][@seed]]\n"
               "           [--lint] [--lint-werror]\n"
               "           [--tune] [--tune-budget={small,medium,large,N}]\n"
               "           [--tune-report=FILE] [--tune-seed=N]\n"
               "           [--tune-config={core2,opteron}] [--tune-entry=F]\n"
               "           [--synth] [--synth-out=FILE] [--synth-window=N]\n"
               "           [--synth-rules=FILE] [--synth-verify]\n"
               "           [--mao-report=FILE] [--stats]\n"
               "           [--mao-trace-out=FILE] [--mao-trace-level=N]\n"
               "           [--cache-dir=DIR] [--connect=SOCKET]\n"
               "           [--cache-verify] input.s\n"
               "\n"
               "example: mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s\n"
               "run `mao --mao-help` for the full flag reference\n"
               "\n"
               "available passes:\n");
  for (const mao::api::PassCatalogEntry &Entry :
       mao::api::Session::listPasses())
    std::fprintf(stderr, "  %-10s (%s)\n", Entry.Name.c_str(),
                 Entry.Kind.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  auto CmdOr = mao::parseCommandLine(Args);
  if (!CmdOr.ok()) {
    std::fprintf(stderr, "mao: error: %s\n", CmdOr.message().c_str());
    return ExitUsage;
  }
  mao::MaoCommandLine &Cmd = *CmdOr;
  if (Cmd.Help) {
    std::fputs(mao::api::Session::driverHelp().c_str(), stdout);
    return ExitOk;
  }
  // The synthesized-rule table swap happens before anything parses or
  // optimizes so every later stage (pipeline, tuner, verifier) sees it.
  if (!Cmd.SynthRules.empty())
    if (mao::api::Status S =
            mao::api::Session::loadPeepholeRulesFile(Cmd.SynthRules);
        !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      return ExitParseError;
    }
  if (Cmd.SynthVerify) {
    // CI gate: re-prove the active synth rules; no input file needed.
    std::string Detail;
    if (mao::api::Status S = mao::api::Session::verifySynthRules(&Detail);
        !S.Ok) {
      std::fprintf(stderr, "mao: synth-verify: %s\n", S.Message.c_str());
      return ExitPipelineError;
    }
    std::fprintf(stderr, "mao: synth-verify: %s\n", Detail.c_str());
    return ExitOk;
  }

  const bool LintMode = Cmd.RunLint;
  // Synthesis harvests every input as corpus, and needs none when it also
  // harvests generated workloads; every other mode reads exactly one.
  const bool SynthMode = Cmd.RunSynth && !LintMode;
  if (Cmd.Inputs.empty() && !(SynthMode && Cmd.Synth.IncludeWorkloads)) {
    printUsage();
    return LintMode ? 2 : ExitUsage;
  }
  if (Cmd.Inputs.size() > 1 && !SynthMode) {
    std::fprintf(stderr, "mao: error: expected exactly one input file\n");
    return LintMode ? 2 : ExitUsage;
  }
  for (const std::string &Opt : Cmd.Passthrough)
    std::fprintf(stderr, "mao: passing through to assembler: %s\n",
                 Opt.c_str());

  // Resolve the pipeline up front so a typo fails before any work: the
  // classic --mao= requests (already parsed) first, then the
  // registry-validated --mao-passes specs in command-line order.
  std::vector<mao::api::PassSpec> Pipeline = Cmd.Passes;
  for (const std::string &SpecText : Cmd.PassSpecs)
    if (mao::api::Status S =
            mao::api::Session::parsePipelineSpec(SpecText, Pipeline);
        !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      return ExitUsage;
    }

  if (Cmd.TraceLevel > 0)
    mao::api::Session::setTraceLevel(static_cast<int>(Cmd.TraceLevel));

  mao::api::Session Session(Cmd.Session);

  // Whether per-pass metrics are being collected this run; the report and
  // the stats table both feed off the same registry snapshot.
  Cmd.Optimize.CollectStats = !Cmd.ReportPath.empty() || Cmd.Stats;
  // One rule for every output the run writes (the assembly and each file
  // the user named): a write that fails prints one line and fails a run
  // that had not failed, with exit 3 (2 under --lint).
  bool OutputLost = false;
  auto CheckWrite = [&](const std::string &Error) {
    if (Error.empty())
      return;
    std::fprintf(stderr, "mao: error: %s\n", Error.c_str());
    OutputLost = true;
  };
  // In service mode the authoritative run report is the per-run JSON from
  // the cache or daemon — byte-identical between a warm hit and a
  // recompute, which the session report (empty on a hit) is not.
  std::optional<std::string> ServiceReport;
  // Emits the requested observability artifacts (run report, stats table,
  // trace timeline, SARIF log) and settles the exit code; every exit path
  // past parsing returns through it.
  auto Finish = [&](int Code) {
    if (!Cmd.ReportPath.empty())
      CheckWrite(ServiceReport
                     ? mao::writeWholeFile(Cmd.ReportPath, *ServiceReport)
                           .message()
                     : Session.writeReport(Cmd.ReportPath).Message);
    if (Cmd.Stats)
      std::fputs(Session.statsTable().c_str(), stderr);
    CheckWrite(Session.writeTrace().Message);
    CheckWrite(Session.writeSarif().Message);
    if (!OutputLost)
      return Code;
    return LintMode ? 2 : Code == ExitOk ? ExitPipelineError : Code;
  };
  std::function<void()> FlushOnSignal = [&] { (void)Finish(ExitOk); };
  SignalFlush = &FlushOnSignal;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  Session.armFaultInjectionFromEnv();
  if (!Cmd.FaultSpec.empty())
    if (mao::api::Status S =
            Session.armFaultInjection(Cmd.FaultSpec, Cmd.FaultSeed);
        !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      return ExitUsage;
    }

  if (SynthMode) {
    Cmd.Synth.CorpusPaths = Cmd.Inputs;
    mao::api::SynthSummary Synth;
    if (mao::api::Status S = Session.synthesize(Cmd.Synth, Synth); !S.Ok) {
      std::fprintf(stderr, "mao: synth: %s\n", S.Message.c_str());
      // An unreadable corpus file is an input error, like an unreadable
      // input anywhere else.
      return Finish(S.Message.find("cannot open") != std::string::npos
                        ? ExitParseError
                        : ExitPipelineError);
    }
    std::fprintf(stderr,
                 "mao: synth: %llu corpus file(s): %llu windows (%llu "
                 "unique), %llu candidates tried, %llu proven, %llu "
                 "verified, %llu shard failure(s)\n",
                 static_cast<unsigned long long>(Synth.CorpusFiles),
                 static_cast<unsigned long long>(Synth.WindowsHarvested),
                 static_cast<unsigned long long>(Synth.UniqueWindows),
                 static_cast<unsigned long long>(Synth.CandidatesTried),
                 static_cast<unsigned long long>(Synth.CandidatesProven),
                 static_cast<unsigned long long>(Synth.CandidatesVerified),
                 static_cast<unsigned long long>(Synth.ShardFailures));
    for (const mao::api::RuleInfo &Rule : Synth.Rules)
      std::fprintf(stderr, "mao: synth: %s: \"%s\" -> \"%s\"%s%s (%s)\n",
                   Rule.Name.c_str(), Rule.Pattern.c_str(),
                   Rule.Replacement.c_str(),
                   Rule.Guards.empty() ? "" : " guard ", Rule.Guards.c_str(),
                   Rule.Provenance.c_str());
    std::fprintf(stderr, "mao: synth: %llu rule(s) emitted%s%s\n",
                 static_cast<unsigned long long>(Synth.RulesEmitted),
                 Cmd.Synth.OutPath.empty() ? "" : " to ",
                 Cmd.Synth.OutPath.c_str());
    if (Cmd.Synth.OutPath.empty())
      CheckWrite(mao::writeWholeFile("-", Synth.TableText).message());
    return Finish(ExitOk);
  }

  bool HasAsmPass = false;
  for (const mao::api::PassSpec &Spec : Pipeline)
    if (Spec.Name == "ASM")
      HasAsmPass = true;

  // Service mode: --connect routes the run through a maod daemon (with
  // transparent local fallback), --cache-dir through the local persistent
  // artifact cache. Both cover the plain parse → optimize → emit round;
  // lint, tune, and ASM file-output passes keep the direct path. maod
  // computes with its own rule table, so --synth-rules runs stay local.
  const bool WantService = !Cmd.ConnectPath.empty() || !Cmd.CacheDir.empty();
  const bool ServiceRun =
      WantService && !LintMode && !Cmd.RunTune && !HasAsmPass;
  const bool Connect = !Cmd.ConnectPath.empty() && Cmd.SynthRules.empty();
  if ((WantService && !ServiceRun) || (!Cmd.ConnectPath.empty() && !Connect))
    std::fprintf(stderr,
                 "mao: warning: --connect/--cache-dir do not cover --lint, "
                 "--tune, or ASM passes, and --connect does not cover "
                 "--synth-rules; running locally\n");
  if (ServiceRun) {
    // The cache key is over the exact input bytes: read them verbatim.
    mao::api::CachedRunRequest Run;
    if (!mao::readWholeFile(Cmd.Inputs[0], Run.Source)) {
      std::fprintf(stderr, "mao: error: cannot read %s\n",
                   Cmd.Inputs[0].c_str());
      return ExitParseError;
    }
    Run.Name = Cmd.Inputs[0];
    Run.Pipeline = Pipeline;
    Run.Options = Cmd.Optimize;
    Run.VerifyHit = Cmd.CacheVerify;

    if (Connect) {
      mao::serve::ClientOptions Client;
      Client.SocketPath = Cmd.ConnectPath;
      mao::serve::ServeResponse Resp;
      if (mao::MaoStatus S = mao::serve::clientRun(
              Client, mao::serve::toServeRequest(Run), Resp)) {
        std::fprintf(stderr, "mao: warning: %s; falling back to a local run\n",
                     S.message().c_str());
      } else {
        ServiceReport = Resp.Report;
        if (Resp.Status == mao::serve::ServeStatus::Error) {
          std::fprintf(stderr, "mao: error: %s\n", Resp.Diagnostic.c_str());
          return Finish(ExitPipelineError);
        }
        if (Resp.Status == mao::serve::ServeStatus::DegradedIdentity)
          std::fprintf(stderr,
                       "mao: warning: daemon degraded to identity: %s\n",
                       Resp.Diagnostic.c_str());
        else if (!Resp.Diagnostic.empty())
          std::fprintf(stderr, "mao: warning: %s\n", Resp.Diagnostic.c_str());
        CheckWrite(mao::writeWholeFile("-", Resp.Output).message());
        return Finish(ExitOk);
      }
    }

    if (!Cmd.CacheDir.empty())
      if (mao::api::Status S = Session.cacheOpen(Cmd.CacheDir,
                                                 Cmd.CacheBudget);
          !S.Ok)
        std::fprintf(stderr, "mao: warning: cache disabled: %s\n",
                     S.Message.c_str());
    mao::api::CachedRunResult Result;
    const mao::api::Status S = Session.cacheRun(Run, Result);
    ServiceReport = Result.ReportJson;
    if (!S.Ok) {
      if (!Result.Reported)
        std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      return Finish(Result.ParseFailed ? ExitParseError : ExitPipelineError);
    }
    if (!Result.Diagnostic.empty())
      std::fprintf(stderr, "mao: warning: %s\n", Result.Diagnostic.c_str());
    CheckWrite(mao::writeWholeFile("-", Result.Output).message());
    return Finish(ExitOk);
  }

  mao::api::Program Program;
  mao::api::ParseInfo Parse;
  if (!Session.parseFile(Cmd.Inputs[0], Program, &Parse).Ok) {
    // Reported through diagnostics, which the SARIF log carries.
    CheckWrite(Session.writeSarif().Message);
    return LintMode ? 2 : ExitParseError;
  }

  if (LintMode) {
    Cmd.Lint.FileName = Cmd.Inputs[0];
    mao::api::LintSummary Lint = Session.lint(Program, Cmd.Lint);
    std::fprintf(stderr,
                 "mao: lint: %u error(s), %u warning(s), %u note(s), "
                 "%u suppressed; indirect jumps: %u unresolved of %u\n",
                 Lint.Errors, Lint.Warnings, Lint.Notes, Lint.Suppressed,
                 Lint.IndirectUnresolved, Lint.IndirectTotal);
    return Finish(Lint.ExitCode);
  }

  std::fprintf(stderr,
               "mao: %zu lines, %zu instructions (%zu opaque), "
               "%zu functions\n",
               Parse.Lines, Parse.Instructions, Parse.OpaqueInstructions,
               Parse.Functions);

  if (Cmd.RunTune) {
    mao::api::TuneSummary Tune;
    if (mao::api::Status S = Session.tune(Program, Cmd.Tune, Tune); !S.Ok) {
      std::fprintf(stderr, "mao: tune: %s\n", S.Message.c_str());
      return Finish(ExitPipelineError);
    }
    std::fprintf(stderr,
                 "mao: tune: baseline %llu, default pipeline %llu, tuned "
                 "%llu cycles over %u evaluations (%llu cache hits)\n",
                 static_cast<unsigned long long>(Tune.BaselineCycles),
                 static_cast<unsigned long long>(Tune.DefaultCycles),
                 static_cast<unsigned long long>(Tune.TunedCycles),
                 Tune.Evaluations,
                 static_cast<unsigned long long>(Tune.ScoreCacheHits));
    std::fprintf(stderr, "mao: tune: winner: --mao-passes=%s\n",
                 Tune.TunedPipeline.c_str());
    if (!Cmd.TuneReportPath.empty())
      CheckWrite(
          mao::writeWholeFile(Cmd.TuneReportPath, Tune.ReportJson).message());
    // The tuned unit is already applied; fall through to verify + emit.
  }

  if (!Pipeline.empty() || !Cmd.RunTune) {
    mao::api::OptimizeResult Result =
        Session.optimize(Program, Pipeline, Cmd.Optimize);
    // Every failure, contained or not, was reported once through the
    // diagnostics already.
    if (!Result.Ok)
      return Finish(ExitPipelineError);
    for (const mao::api::PassOutcomeInfo &Outcome : Result.Outcomes)
      if (Outcome.Status == "ok" && Outcome.Transformations > 0)
        std::fprintf(stderr, "mao: %s performed %u transformations\n",
                     Outcome.Pass.c_str(), Outcome.Transformations);
  }

  // Final consistency gate when the run verified per pass or the tuner
  // rewrote the unit: never emit assembly the verifier rejects.
  if (Cmd.Optimize.verifiesEachPass() || Cmd.RunTune)
    if (!Session.verify(Program).Ok)
      return Finish(ExitPipelineError);

  if (!HasAsmPass)
    CheckWrite(Session.emitToFile(Program, "-").Message);
  return Finish(ExitOk);
}
