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
/// The driver is a client of the public facade (mao/Mao.h) — it parses
/// flags with the declarative option registry (support/Options.h) and
/// forwards everything else through mao::api::Session. `--mao-help`
/// prints the full generated flag reference; see DESIGN.md for the
/// robustness flags and the "Autotuning" section for `--tune`.
///
/// Exit codes: 0 success, 1 usage error, 2 parse/input error, 3
/// pipeline, tuner, or verifier error. Under --lint: 0 clean, 1 findings,
/// 2 internal/input error.
///
//===----------------------------------------------------------------------===//

#include "mao/Mao.h"
#include "serve/Serve.h"
#include "support/Options.h"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
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

  const bool LintMode = Cmd.Lint;
  if (Cmd.Inputs.empty()) {
    printUsage();
    return LintMode ? 2 : ExitUsage;
  }
  if (Cmd.Inputs.size() > 1) {
    std::fprintf(stderr, "mao: error: expected exactly one input file\n");
    return LintMode ? 2 : ExitUsage;
  }
  for (const std::string &Opt : Cmd.Passthrough)
    std::fprintf(stderr, "mao: passing through to assembler: %s\n",
                 Opt.c_str());

  // Resolve the pipeline up front so a typo fails before any work: the
  // classic --mao= requests (already parsed) first, then the
  // registry-validated --mao-passes specs in command-line order.
  std::vector<mao::api::PassSpec> Pipeline;
  for (const mao::PassRequest &Req : Cmd.Passes) {
    mao::api::PassSpec Spec;
    Spec.Name = Req.PassName;
    for (const auto &KV : Req.Options.all())
      Spec.Options.emplace_back(KV.first, KV.second);
    Pipeline.push_back(std::move(Spec));
  }
  for (const std::string &SpecText : Cmd.PassSpecs)
    if (mao::api::Status S =
            mao::api::Session::parsePipelineSpec(SpecText, Pipeline);
        !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      return ExitUsage;
    }

  if (Cmd.TraceLevel > 0)
    mao::api::Session::setTraceLevel(static_cast<int>(Cmd.TraceLevel));
  if (mao::api::Status S = mao::api::Session::setRelaxMode(Cmd.RelaxMode);
      !S.Ok) {
    std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
    return ExitUsage;
  }

  mao::api::Session::Config Config;
  Config.SarifPath = Cmd.SarifPath;
  Config.TraceOutPath = Cmd.TraceOut;
  mao::api::Session Session(Config);

  // Whether per-pass metrics are being collected this run; the report and
  // the stats table both feed off the same registry snapshot.
  const bool CollectStats = !Cmd.ReportPath.empty() || Cmd.Stats;
  // Emits the requested observability artifacts (run report, stats table,
  // trace timeline); called on every exit path past parsing.
  auto FlushObservability = [&]() {
    if (!Cmd.ReportPath.empty())
      if (mao::api::Status S = Session.writeReport(Cmd.ReportPath); !S.Ok)
        std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
    if (Cmd.Stats)
      std::fputs(Session.statsTable().c_str(), stderr);
    if (!Cmd.TraceOut.empty())
      if (mao::api::Status S = Session.writeTrace(); !S.Ok)
        std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
  };
  std::function<void()> FlushOnSignal = FlushObservability;
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

  bool HasAsmPass = false;
  for (const mao::api::PassSpec &Spec : Pipeline)
    if (Spec.Name == "ASM")
      HasAsmPass = true;

  // Service mode: --connect routes the run through a maod daemon (with
  // transparent local fallback), --cache-dir through the local persistent
  // artifact cache. Both cover the plain parse → optimize → emit round;
  // lint, tune, and ASM file-output passes keep the direct path.
  const bool WantService = !Cmd.ConnectPath.empty() || !Cmd.CacheDir.empty();
  const bool ServiceRun = WantService && !LintMode && !Cmd.Tune && !HasAsmPass;
  if (WantService && !ServiceRun)
    std::fprintf(stderr,
                 "mao: warning: --connect/--cache-dir do not cover --lint, "
                 "--tune, or ASM passes; running directly\n");
  if (ServiceRun) {
    // The cache key is over the exact input bytes: read them verbatim.
    std::ifstream In(Cmd.Inputs[0], std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "mao: error: cannot read %s\n",
                   Cmd.Inputs[0].c_str());
      return ExitParseError;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    const std::string Source = Buf.str();

    // In service mode the authoritative run report is the per-run JSON
    // from the cache or daemon — byte-identical between a warm hit and a
    // recompute, which the session report (empty on a hit) is not.
    auto FlushService = [&](const std::string &ReportJson) {
      if (!Cmd.ReportPath.empty()) {
        if (Cmd.ReportPath == "-") {
          std::fwrite(ReportJson.data(), 1, ReportJson.size(), stdout);
        } else {
          std::FILE *F = std::fopen(Cmd.ReportPath.c_str(), "w");
          const bool Ok =
              F && std::fwrite(ReportJson.data(), 1, ReportJson.size(), F) ==
                       ReportJson.size();
          if (F)
            std::fclose(F);
          if (!Ok)
            std::fprintf(stderr, "mao: error: cannot write run report to %s\n",
                         Cmd.ReportPath.c_str());
        }
      }
      if (Cmd.Stats)
        std::fputs(Session.statsTable().c_str(), stderr);
      if (!Cmd.TraceOut.empty())
        (void)Session.writeTrace();
    };

    if (!Cmd.ConnectPath.empty()) {
      mao::serve::ServeRequest Req;
      Req.Name = Cmd.Inputs[0];
      Req.Source = Source;
      Req.Pipeline = mao::api::Session::canonicalPipelineSpec(Pipeline);
      Req.OnError = Cmd.OnError;
      Req.Validate = Cmd.Validate;
      Req.Jobs = Cmd.Jobs;
      Req.DeadlineMs = static_cast<uint32_t>(Cmd.PassTimeoutMs);
      mao::serve::ClientOptions Client;
      Client.SocketPath = Cmd.ConnectPath;
      mao::serve::ServeResponse Resp;
      if (mao::MaoStatus S = mao::serve::clientRun(Client, Req, Resp)) {
        std::fprintf(stderr, "mao: warning: %s; falling back to a local run\n",
                     S.message().c_str());
      } else {
        if (Resp.Status == mao::serve::ServeStatus::Error) {
          std::fprintf(stderr, "mao: error: %s\n", Resp.Diagnostic.c_str());
          FlushService(Resp.Report);
          return ExitPipelineError;
        }
        if (Resp.Status == mao::serve::ServeStatus::DegradedIdentity)
          std::fprintf(stderr,
                       "mao: warning: daemon degraded to identity: %s\n",
                       Resp.Diagnostic.c_str());
        else if (!Resp.Diagnostic.empty())
          std::fprintf(stderr, "mao: warning: %s\n", Resp.Diagnostic.c_str());
        std::fwrite(Resp.Output.data(), 1, Resp.Output.size(), stdout);
        FlushService(Resp.Report);
        return ExitOk;
      }
    }

    if (!Cmd.CacheDir.empty())
      if (mao::api::Status S = Session.cacheOpen(Cmd.CacheDir,
                                                 Cmd.CacheBudget);
          !S.Ok)
        std::fprintf(stderr, "mao: warning: cache disabled: %s\n",
                     S.Message.c_str());
    mao::api::CachedRunRequest Run;
    Run.Source = Source;
    Run.Name = Cmd.Inputs[0];
    Run.Pipeline = Pipeline;
    Run.Options.OnError = Cmd.OnError;
    Run.Options.Validate = Cmd.Validate;
    Run.Options.VerifyAfterEachPass = Cmd.Verify;
    Run.Options.PassTimeoutMs = Cmd.PassTimeoutMs;
    Run.Options.Jobs = Cmd.Jobs;
    Run.VerifyHit = Cmd.CacheVerify;
    mao::api::CachedRunResult Result;
    if (mao::api::Status S = Session.cacheRun(Run, Result); !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      FlushService("");
      return ExitPipelineError;
    }
    if (!Result.Diagnostic.empty())
      std::fprintf(stderr, "mao: warning: %s\n", Result.Diagnostic.c_str());
    std::fwrite(Result.Output.data(), 1, Result.Output.size(), stdout);
    FlushService(Result.ReportJson);
    return ExitOk;
  }

  mao::api::Program Program;
  mao::api::ParseInfo Parse;
  if (!Session.parseFile(Cmd.Inputs[0], Program, &Parse).Ok)
    return LintMode ? 2 : ExitParseError; // Reported through diagnostics.

  if (LintMode) {
    mao::api::LintRequest Request;
    Request.WarningsAsErrors = Cmd.LintWerror;
    Request.FileName = Cmd.Inputs[0];
    Request.Jobs = Cmd.Jobs;
    Request.Interprocedural = !Cmd.LintNoInterproc;
    Request.BaselinePath = Cmd.LintBaseline;
    Request.BaselineOutPath = Cmd.LintBaselineOut;
    mao::api::LintSummary Lint = Session.lint(Program, Request);
    std::fprintf(stderr,
                 "mao: lint: %u error(s), %u warning(s), %u note(s), "
                 "%u suppressed; indirect jumps: %u unresolved of %u\n",
                 Lint.Errors, Lint.Warnings, Lint.Notes, Lint.Suppressed,
                 Lint.IndirectUnresolved, Lint.IndirectTotal);
    FlushObservability();
    return Lint.ExitCode;
  }

  std::fprintf(stderr,
               "mao: %zu lines, %zu instructions (%zu opaque), "
               "%zu functions\n",
               Parse.Lines, Parse.Instructions, Parse.OpaqueInstructions,
               Parse.Functions);

  if (Cmd.Synth) {
    mao::api::SynthOptions Request;
    Request.CorpusPaths = Cmd.Inputs;
    Request.IncludeWorkloads = !Cmd.SynthNoWorkloads;
    Request.MaxWindow = Cmd.SynthWindow;
    Request.MaxRules = Cmd.SynthMaxRules;
    Request.Seed = Cmd.SynthSeed;
    Request.Jobs = Cmd.Jobs;
    Request.Config = Cmd.SynthConfig;
    Request.OutPath = Cmd.SynthOut;
    mao::api::SynthSummary Synth;
    if (mao::api::Status S = Session.synthesize(Request, Synth); !S.Ok) {
      std::fprintf(stderr, "mao: synth: %s\n", S.Message.c_str());
      FlushObservability();
      return ExitPipelineError;
    }
    std::fprintf(stderr,
                 "mao: synth: %llu windows (%llu unique), %llu candidates, "
                 "%llu proven, %llu verified, %llu rule(s) emitted\n",
                 static_cast<unsigned long long>(Synth.WindowsHarvested),
                 static_cast<unsigned long long>(Synth.UniqueWindows),
                 static_cast<unsigned long long>(Synth.CandidatesTried),
                 static_cast<unsigned long long>(Synth.CandidatesProven),
                 static_cast<unsigned long long>(Synth.CandidatesVerified),
                 static_cast<unsigned long long>(Synth.RulesEmitted));
    for (const mao::api::RuleInfo &Rule : Synth.Rules)
      std::fprintf(stderr, "mao: synth: %s: \"%s\" -> \"%s\" (%s)\n",
                   Rule.Name.c_str(), Rule.Pattern.c_str(),
                   Rule.Replacement.c_str(), Rule.Provenance.c_str());
    if (Cmd.SynthOut.empty())
      std::fputs(Synth.TableText.c_str(), stdout);
    FlushObservability();
    return ExitOk;
  }

  if (Cmd.Tune) {
    mao::api::TuneRequest Request;
    Request.Entry = Cmd.TuneEntry;
    Request.Config = Cmd.TuneConfig;
    Request.Budget = Cmd.TuneBudget;
    Request.Seed = Cmd.TuneSeed;
    Request.Jobs = Cmd.Jobs;
    Request.SynthAxis = Cmd.TuneSynthAxis;
    Request.LayoutAxis = Cmd.TuneLayoutAxis;
    Request.ReportPath = Cmd.TuneReport;
    Request.ScoreCacheBudgetBytes = Cmd.ScoreCacheBudget;
    mao::api::TuneSummary Tune;
    if (mao::api::Status S = Session.tune(Program, Request, Tune); !S.Ok) {
      std::fprintf(stderr, "mao: tune: %s\n", S.Message.c_str());
      FlushObservability();
      return ExitPipelineError;
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
    // The tuned unit is already applied; fall through to verify + emit.
  }

  bool VerifiedPerPass = false;
  if (!Pipeline.empty() || !Cmd.Tune) {
    mao::api::OptimizeOptions Options;
    Options.OnError = Cmd.OnError;
    Options.Validate = Cmd.Validate;
    Options.VerifyAfterEachPass = Cmd.Verify;
    Options.PassTimeoutMs = Cmd.PassTimeoutMs;
    Options.Jobs = Cmd.Jobs;
    Options.CollectStats = CollectStats;
    mao::api::OptimizeResult Result =
        Session.optimize(Program, Pipeline, Options);
    if (!Result.Ok) {
      if (!Result.Error.empty())
        std::fprintf(stderr, "mao: error: %s\n", Result.Error.c_str());
      FlushObservability();
      return ExitPipelineError;
    }
    for (const mao::api::PassOutcomeInfo &Outcome : Result.Outcomes) {
      if (Outcome.Status != "ok")
        std::fprintf(stderr, "mao: pass %s %s (%s)\n", Outcome.Pass.c_str(),
                     Outcome.Status.c_str(), Outcome.Detail.c_str());
      else if (Outcome.Transformations > 0)
        std::fprintf(stderr, "mao: %s performed %u transformations\n",
                     Outcome.Pass.c_str(), Outcome.Transformations);
    }
    VerifiedPerPass = Cmd.Verify || Cmd.OnError != "abort" ||
                      Cmd.Validate != "off";
  }

  // Final consistency gate when verification was requested or the tuner
  // rewrote the unit: never emit assembly the verifier rejects.
  if (VerifiedPerPass || Cmd.Tune)
    if (!Session.verify(Program).Ok) {
      FlushObservability();
      return ExitPipelineError;
    }

  if (!HasAsmPass)
    if (mao::api::Status S = Session.emitToFile(Program, "-"); !S.Ok) {
      std::fprintf(stderr, "mao: error: %s\n", S.Message.c_str());
      FlushObservability();
      return ExitPipelineError;
    }
  FlushObservability();
  return ExitOk;
}
