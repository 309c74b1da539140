//===- mao/Mao.cpp - MAO public facade implementation ---------------------===//
///
/// \file
/// Binds the stable mao::api surface to the internal layers. Everything
/// here is translation: facade structs in, internal calls, facade structs
/// out. No policy lives here that is not also reachable through the
/// internal headers.
///
//===----------------------------------------------------------------------===//

#include "mao/Mao.h"

#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "check/Lint.h"
#include "check/SemanticValidator.h"
#include "ir/Verifier.h"
#include "mao/CommandLine.h"
#include "pass/MaoPass.h"
#include "serve/ArtifactCache.h"
#include "passes/PeepholeEngine.h"
#include "support/Diag.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timeline.h"
#include "support/Trace.h"
#include "synth/Synth.h"
#include "tune/Tuner.h"
#include "uarch/ProcessorConfig.h"
#include "uarch/Runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mao {
namespace api {

namespace {

Status fromStatus(const MaoStatus &S) {
  return S.ok() ? Status::success() : Status::error(S.message());
}

std::vector<PassRequest> toRequests(const std::vector<PassSpec> &Pipeline) {
  std::vector<PassRequest> Requests;
  Requests.reserve(Pipeline.size());
  for (const PassSpec &Spec : Pipeline) {
    PassRequest Req;
    Req.PassName = Spec.Name;
    for (const auto &KV : Spec.Options)
      Req.Options.set(KV.first, KV.second);
    Requests.push_back(std::move(Req));
  }
  return Requests;
}

std::vector<PassSpec> toSpecs(const std::vector<PassRequest> &Requests) {
  std::vector<PassSpec> Specs;
  Specs.reserve(Requests.size());
  for (const PassRequest &Req : Requests) {
    PassSpec Spec;
    Spec.Name = Req.PassName;
    for (const auto &KV : Req.Options.all())
      Spec.Options.emplace_back(KV.first, KV.second);
    Specs.push_back(std::move(Spec));
  }
  return Specs;
}

/// Adds one pass outcome to \p Report: its pass list, its failure,
/// rollback and skip tallies, and its transformation total.
void addOutcome(RunReport &Report, const PassOutcomeInfo &Outcome) {
  if (Outcome.Status == "failed")
    ++Report.Failures;
  else if (Outcome.Status == "rolled-back")
    ++Report.Rollbacks;
  else if (Outcome.Status == "skipped")
    ++Report.Skips;
  Report.TotalTransformations += Outcome.Transformations;
  Report.Passes.push_back(Outcome);
}

} // namespace

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

struct Program::Impl {
  MaoUnit Unit;
  std::string Name = "<input>";
  bool Valid = false;
};

Program::Program() : I(std::make_unique<Impl>()) {}
Program::~Program() = default;
Program::Program(Program &&) noexcept = default;
Program &Program::operator=(Program &&) noexcept = default;

bool Program::valid() const { return I->Valid; }

size_t Program::functionCount() const { return I->Unit.functions().size(); }

Program Program::clone() const {
  Program Copy;
  Copy.I->Unit = I->Unit.clone();
  Copy.I->Name = I->Name;
  Copy.I->Valid = I->Valid;
  return Copy;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

struct Session::Impl {
  Config Cfg;
  DiagEngine Diags;
  StderrDiagSink Stderr;
  SarifDiagSink Sarif;
  bool SarifFlushed = false;
  Timeline Tl;
  bool TraceActive = false;
  bool TraceFlushed = false;
  RunReport Report;
  /// Shared: sessions attached through cacheAttach() use one handle.
  std::shared_ptr<serve::ArtifactCache> Cache;

  explicit Impl(Config C) : Cfg(std::move(C)) {
    if (Cfg.StderrDiagnostics)
      Diags.addSink(&Stderr);
    Diags.setMaxErrors(Cfg.MaxErrors);
    if (!Cfg.SarifPath.empty())
      Diags.addSink(&Sarif);
    if (!Cfg.TraceOutPath.empty()) {
      // The collector hook is process-global (spans fire deep inside the
      // pass runner and simulator); the last session configured for
      // tracing wins, like any global sink.
      Timeline::setActive(&Tl);
      TraceActive = true;
    }
  }
};

Session::Session() : Session(Config()) {}

Session::Session(Config C) : I(std::make_unique<Impl>(std::move(C))) {
  linkAllPasses();
}

Session::~Session() {
  if (I && !I->Cfg.SarifPath.empty() && !I->SarifFlushed)
    (void)writeSarif();
  if (I && I->TraceActive) {
    if (Timeline::active() == &I->Tl)
      Timeline::setActive(nullptr);
    if (!I->TraceFlushed)
      (void)writeTrace();
  }
}

Status Session::writeTrace() {
  if (I->Cfg.TraceOutPath.empty())
    return Status::success();
  I->TraceFlushed = true;
  return fromStatus(writeWholeFile(I->Cfg.TraceOutPath, I->Tl.renderJson()));
}

Status Session::writeSarif() {
  if (I->Cfg.SarifPath.empty())
    return Status::success();
  I->SarifFlushed = true;
  return fromStatus(writeWholeFile(I->Cfg.SarifPath, I->Sarif.render()));
}

Status Session::armFaultInjection(const std::string &Spec, uint64_t Seed) {
  return fromStatus(FaultInjector::instance().configure(Spec, Seed));
}

void Session::armFaultInjectionFromEnv() {
  FaultInjector::instance().configureFromEnv();
}

//===----------------------------------------------------------------------===//
// Persistent artifact cache
//===----------------------------------------------------------------------===//

Status Session::cacheOpen(const std::string &Dir, uint64_t BudgetBytes) {
  auto Cache = std::make_shared<serve::ArtifactCache>();
  Cache->setByteBudget(BudgetBytes);
  if (MaoStatus S = Cache->open(Dir))
    return Status::error(S.message());
  I->Cache = std::move(Cache);
  return Status::success();
}

void Session::cacheAttach(const Session &Owner) {
  I->Cache = Owner.cacheIsOpen() ? Owner.I->Cache : nullptr;
}

bool Session::cacheIsOpen() const { return I->Cache && I->Cache->isOpen(); }

ArtifactCounters Session::cacheStats() const {
  ArtifactCounters C;
  if (!cacheIsOpen())
    return C;
  const serve::ArtifactCache::Stats S = I->Cache->stats();
  C.Hits = S.Hits;
  C.Misses = S.Misses;
  C.Stores = S.Stores;
  C.StoreFailures = S.StoreFailures;
  C.Quarantines = S.Quarantines;
  C.StaleTmpRemoved = S.StaleTmpRemoved;
  C.Evictions = S.Evictions;
  C.Entries = S.Entries;
  return C;
}

std::string Session::canonicalPipelineSpec(
    const std::vector<PassSpec> &Pipeline) {
  std::string Out;
  for (const PassSpec &Spec : Pipeline) {
    if (!Out.empty())
      Out += ',';
    Out += Spec.Name;
    if (!Spec.Options.empty()) {
      auto Options = Spec.Options;
      std::sort(Options.begin(), Options.end());
      Out += '(';
      for (size_t J = 0; J < Options.size(); ++J) {
        if (J)
          Out += ',';
        Out += Options[J].first;
        if (!Options[J].second.empty())
          Out += "=" + Options[J].second;
      }
      Out += ')';
    }
  }
  return Out;
}

namespace {

/// Chains \p Part into \p Hash with an unambiguous length separator.
uint64_t mixKeyPart(uint64_t Hash, const std::string &Part) {
  Hash = fnv1a64(Part, Hash);
  const char Sep[9] = {'\0',
                       static_cast<char>(Part.size() & 0xff),
                       static_cast<char>((Part.size() >> 8) & 0xff),
                       static_cast<char>((Part.size() >> 16) & 0xff),
                       static_cast<char>((Part.size() >> 24) & 0xff),
                       '\0',
                       '\0',
                       '\0',
                       '\0'};
  return fnv1a64(std::string_view(Sep, sizeof(Sep)), Hash);
}

} // namespace

uint64_t Session::cacheKey(const CachedRunRequest &Request) {
  // Schema tag first, then a pass/option version fingerprint: the sorted
  // registry catalogue stands in for per-pass version numbers — any pass
  // added, removed, renamed, or re-kinded invalidates every key, so a
  // stale cache can never serve output an older binary produced under
  // different semantics. A change below the passes that moves output, such
  // as the layout algorithm, bumps the tag (v2: gas's relaxation).
  uint64_t Hash = fnv1a64("mao-artifact-v2");
  for (const PassCatalogEntry &Entry : listPasses()) {
    Hash = mixKeyPart(Hash, Entry.Name);
    Hash = mixKeyPart(Hash, Entry.Kind);
  }
  Hash = mixKeyPart(Hash, Request.Source);
  Hash = mixKeyPart(Hash, canonicalPipelineSpec(Request.Pipeline));
  Hash = mixKeyPart(Hash, Request.Options.OnError);
  Hash = mixKeyPart(Hash, Request.Options.Validate);
  Hash = mixKeyPart(Hash,
                    Request.Options.VerifyAfterEachPass ? "verify" : "");
  // A pass timeout changes which passes commit, so it separates keys
  // (0, the default, is the only fully deterministic setting).
  Hash = mixKeyPart(Hash, std::to_string(Request.Options.PassTimeoutMs));
  // The rule table is an input too: --synth-rules changes what the
  // peephole passes rewrite.
  Hash = mixKeyPart(Hash, std::to_string(peepholeRuleDigest()));
  // Jobs deliberately excluded: output is byte-identical for every value.
  return Hash;
}

namespace {

/// The uncached compute path of cacheRun: parse → optimize → emit through
/// \p S, plus the deterministic per-run report (non-timing sections only;
/// Input is a fixed sentinel so the stored report is a pure function of
/// the cache key, not of what the requester called the file). A policy
/// that verifies each pass also gates the result on the full verifier,
/// as a plain driver run does, so a rejected unit is never stored.
Status computeArtifact(Session &S, const CachedRunRequest &Request,
                       CachedRunResult &Out) {
  Program P;
  ParseInfo Info;
  if (Status St = S.parseText(Request.Source, Request.Name, P, &Info);
      !St.Ok) {
    Out.Reported = Out.ParseFailed = true;
    return St;
  }
  // CollectStats is forced on so the stored report's per-pass deltas do
  // not depend on which caller happened to compute the entry first — the
  // report must be a pure function of the cache key.
  OptimizeOptions Opts = Request.Options;
  Opts.CollectStats = true;
  // The pass runner and the verifier report their own failures.
  OptimizeResult R = S.optimize(P, Request.Pipeline, Opts);
  if (!R.Ok) {
    Out.Reported = true;
    return Status::error(R.Error.empty() ? "pipeline failed" : R.Error);
  }
  if (Opts.verifiesEachPass())
    if (Status St = S.verify(P); !St.Ok) {
      Out.Reported = true;
      return St;
    }
  Out.Output = S.emitToString(P);
  RunReport Report;
  Report.Input = "<artifact>";
  Report.Parse = Info;
  for (const PassOutcomeInfo &Outcome : R.Outcomes)
    addOutcome(Report, Outcome);
  Out.ReportJson = Session::reportJson(Report, /*IncludeTimings=*/false);
  return Status::success();
}

} // namespace

Status Session::cacheRun(const CachedRunRequest &Request,
                         CachedRunResult &Out) {
  Out = CachedRunResult();
  // No cache open: plain compute. Same code path (and so byte-identical
  // output and report) as a cache miss, minus the store.
  if (!cacheIsOpen())
    return computeArtifact(*this, Request, Out);
  const uint64_t Key = cacheKey(Request);
  serve::CacheEntry Entry;
  if (I->Cache->lookup(Key, Entry)) {
    const std::string *Output = Entry.find("output");
    const std::string *Report = Entry.find("report");
    if (Output && Report) {
      if (!Request.VerifyHit) {
        Out.CacheHit = true;
        Out.Output = *Output;
        Out.ReportJson = *Report;
        return Status::success();
      }
      CachedRunResult Fresh;
      if (Status S = computeArtifact(*this, Request, Fresh); !S.Ok) {
        Out = std::move(Fresh);
        return S;
      }
      if (Fresh.Output != *Output || Fresh.ReportJson != *Report)
        return Status::error(
            "artifact cache hit diverged from recompute (key " +
            std::to_string(Key) + ")");
      Out = std::move(Fresh);
      Out.CacheHit = true;
      return Status::success();
    }
    // Checksum-valid but schema-incomplete (an entry from a different
    // producer): fall through and overwrite with a fresh compute.
  }
  if (Status S = computeArtifact(*this, Request, Out); !S.Ok)
    return S;
  serve::CacheEntry Store;
  Store.set("output", Out.Output);
  Store.set("report", Out.ReportJson);
  if (MaoStatus S = I->Cache->store(Key, Store))
    // The artifact itself is good; persisting it is best-effort.
    Out.Diagnostic = "artifact not cached: " + S.message();
  return Status::success();
}

Status Session::parseFile(const std::string &Path, Program &Out,
                          ParseInfo *Info) {
  std::string Source;
  if (!readWholeFile(Path, Source)) {
    I->Diags.error(DiagCode::DriverFileError, "cannot open input file",
                   SourceLoc{Path, 0});
    return Status::error("cannot open input file: " + Path);
  }
  return parseText(Source, Path, Out, Info);
}

Status Session::parseText(const std::string &Source, const std::string &Name,
                          Program &Out, ParseInfo *Info) {
  ParseStats Stats;
  ErrorOr<MaoUnit> UnitOr = [&] {
    PhaseTimer Phase("parse", "time.phase.parse_us");
    return parseAssembly(Source, &Stats, Name, &I->Diags);
  }();
  if (!UnitOr.ok())
    return Status::error(UnitOr.message());
  Out.I->Unit = std::move(*UnitOr);
  Out.I->Name = Name;
  Out.I->Valid = true;
  I->Report.Input = Name;
  I->Report.Parse.Lines = Stats.Lines;
  I->Report.Parse.Instructions = Stats.Instructions;
  I->Report.Parse.OpaqueInstructions = Stats.OpaqueInstructions;
  I->Report.Parse.Functions = Out.I->Unit.functions().size();
  StatsRegistry::instance().gauge("input.functions")
      .set(static_cast<int64_t>(I->Report.Parse.Functions));
  StatsRegistry::instance().gauge("input.instructions")
      .set(static_cast<int64_t>(Stats.Instructions));
  if (Info) {
    Info->Lines = Stats.Lines;
    Info->Instructions = Stats.Instructions;
    Info->OpaqueInstructions = Stats.OpaqueInstructions;
    Info->Functions = Out.I->Unit.functions().size();
  }
  return Status::success();
}

OptimizeResult Session::optimize(Program &P,
                                 const std::vector<PassSpec> &Pipeline,
                                 const OptimizeOptions &Options) {
  OptimizeResult Result;
  // Every failure is reported once through the diagnostics (the pass
  // runner reports its own); Result.Error repeats it for API callers.
  auto Refuse = [&](std::string Why) {
    I->Diags.error(DiagCode::DriverUsage, Why);
    Result.Error = std::move(Why);
    return Result;
  };
  if (!P.valid())
    return Refuse("program is not parsed");

  PipelineOptions Pipe;
  if (Options.OnError == "rollback")
    Pipe.OnError = OnErrorPolicy::Rollback;
  else if (Options.OnError == "skip")
    Pipe.OnError = OnErrorPolicy::Skip;
  else if (Options.OnError != "abort" && !Options.OnError.empty())
    return Refuse("unknown on-error policy '" + Options.OnError +
                  "' (expected abort, rollback, or skip)");
  if (Options.Validate != "off" && Options.Validate != "structural" &&
      Options.Validate != "semantic" && !Options.Validate.empty())
    return Refuse("unknown validation level '" + Options.Validate +
                  "' (expected off, structural, or semantic)");
  // An explicit request additionally upgrades the per-pass verifier from
  // the cheap configuration to the thorough one (the driver's --mao-verify
  // contract).
  Pipe.VerifyAfterEachPass = Options.verifiesEachPass();
  if (Options.VerifyAfterEachPass)
    Pipe.PerPassVerify = VerifierOptions();
  if (Options.Validate == "semantic")
    Pipe.SemanticCheck = [](MaoUnit &Before, MaoUnit &After,
                            const std::string &PassName) -> MaoStatus {
      ValidationReport Report = validateSemantics(Before, After);
      if (Report.Equivalent)
        return MaoStatus::success();
      return MaoStatus::error("pass " + PassName +
                              " changed semantics: " + Report.firstMessage());
    };
  Pipe.PassTimeoutMs = Options.PassTimeoutMs;
  Pipe.Jobs = ThreadPool::resolveWorkers(Options.Jobs);
  Pipe.Diags = &I->Diags;
  Pipe.CollectStats = Options.CollectStats;

  const auto Start = std::chrono::steady_clock::now();
  PipelineResult Run = runPasses(P.I->Unit, toRequests(Pipeline), Pipe);
  const double ElapsedMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();
  Result.Ok = Run.Ok;
  Result.Error = Run.Error;
  Result.Failures = Run.failureCount();
  for (const PassOutcome &Outcome : Run.Outcomes) {
    PassOutcomeInfo Info;
    Info.Pass = Outcome.PassName;
    Info.Status = passStatusName(Outcome.Status);
    Info.Transformations = Outcome.Transformations;
    Info.InstructionDelta = Outcome.InstructionDelta;
    Info.ByteDelta = Outcome.ByteDelta;
    Info.WallMs = Outcome.WallMs;
    Info.VerifyMs = Outcome.VerifyMs;
    Info.ValidateMs = Outcome.ValidateMs;
    Info.Detail = Outcome.Detail;
    Result.TotalTransformations += Outcome.Transformations;
    addOutcome(I->Report, Info);
    Result.Outcomes.push_back(std::move(Info));
  }
  I->Report.Jobs = Pipe.Jobs;
  I->Report.TotalMs += ElapsedMs;
  return Result;
}

Status Session::verify(Program &P) {
  if (!P.valid())
    return Status::error("program is not parsed");
  VerifierReport Report = verifyUnit(P.I->Unit, VerifierOptions(), &I->Diags);
  if (!Report.clean())
    return Status::error("verifier found " +
                         std::to_string(Report.Issues.size()) +
                         " issue(s): " + Report.firstMessage());
  return Status::success();
}

Status Session::emitToFile(Program &P, const std::string &Path) {
  if (!P.valid())
    return Status::error("program is not parsed");
  PhaseTimer Phase("emit", "time.phase.emit_us");
  return fromStatus(writeWholeFile(Path, emitAssembly(P.I->Unit)));
}

std::string Session::emitToString(Program &P) {
  if (!P.valid())
    return std::string();
  PhaseTimer Phase("emit", "time.phase.emit_us");
  return emitAssembly(P.I->Unit);
}

Status Session::assemble(Program &P, AssembledBytes &Out) {
  if (!P.valid())
    return Status::error("program is not parsed");
  auto BytesOr = assembleUnit(P.I->Unit);
  if (!BytesOr.ok())
    return Status::error(BytesOr.message());
  Out = std::move(*BytesOr);
  return Status::success();
}

LintSummary Session::lint(Program &P, const LintRequest &Request) {
  LintSummary Summary;
  if (!P.valid()) {
    Summary.InternalError = true;
    Summary.InternalDetail = "program is not parsed";
    Summary.ExitCode = 2;
    return Summary;
  }
  LintOptions Opts;
  Opts.WarningsAsErrors = Request.WarningsAsErrors;
  Opts.FileName = Request.FileName.empty() ? P.I->Name : Request.FileName;
  Opts.Jobs = Request.Jobs;
  Opts.Interprocedural = Request.Interprocedural;
  Opts.BaselinePath = Request.BaselinePath;
  Opts.BaselineOutPath = Request.BaselineOutPath;
  LintResult Result = lintUnit(P.I->Unit, Opts, I->Diags);
  Summary.Errors = Result.Errors;
  Summary.Warnings = Result.Warnings;
  Summary.Notes = Result.Notes;
  Summary.Suppressed = Result.Suppressed;
  Summary.FindingsDigest = Result.FindingsDigest;
  Summary.IndirectUnresolved = Result.IndirectUnresolved;
  Summary.IndirectTotal = Result.IndirectTotal;
  Summary.InternalError = Result.InternalError;
  Summary.InternalDetail = Result.InternalDetail;
  Summary.ExitCode = lintExitCode(Result);
  if (Result.InternalError)
    I->Diags.error(DiagCode::LintInternalError,
                   "linter internal error: " + Result.InternalDetail,
                   SourceLoc{Opts.FileName, 0}, "lint");
  return Summary;
}

Status Session::validateEquivalence(Program &A, Program &B) {
  if (!A.valid() || !B.valid())
    return Status::error("program is not parsed");
  ValidationReport Report = validateSemantics(A.I->Unit, B.I->Unit);
  if (!Report.Equivalent)
    return Status::error(Report.firstMessage());
  return Status::success();
}

Status Session::measure(Program &P, const MeasureRequest &Request,
                        MeasureSummary &Out) {
  if (!P.valid())
    return Status::error("program is not parsed");
  const std::optional<ProcessorConfig> Config = ProcessorConfig::byName(
      Request.Config.empty() ? "core2" : Request.Config);
  if (!Config)
    return Status::error("unknown processor config '" + Request.Config +
                         "' (expected core2 or opteron)");
  MeasureOptions Opts;
  Opts.Config = *Config;
  Opts.MaxSteps = Request.MaxSteps;
  auto ResultOr = measureFunction(P.I->Unit, Request.Function, Opts);
  if (!ResultOr.ok())
    return Status::error(ResultOr.message());
  const PmuCounters &Pmu = ResultOr->Pmu;
  Out.Cycles = Pmu.CpuCycles;
  Out.Instructions = Pmu.InstRetired;
  Out.Uops = Pmu.UopsRetired;
  Out.DecodeLines = Pmu.DecodeLines;
  Out.LsdUops = Pmu.LsdUops;
  Out.CondBranches = Pmu.BrCondRetired;
  Out.BranchMispredicts = Pmu.BrMispredicted;
  Out.RsFullStalls = Pmu.RsFullStalls;
  Out.L1IHits = Pmu.L1IHits;
  Out.L1IMisses = Pmu.L1IMisses;
  Out.ItlbMisses = Pmu.ItlbMisses;
  Out.LineSplitFetches = Pmu.LineSplitFetches;
  return Status::success();
}

Status Session::tune(Program &P, const TuneRequest &Request,
                     TuneSummary &Out) {
  if (!P.valid())
    return Status::error("program is not parsed");
  TuneOptions Opts;
  Opts.Entry = Request.Entry;
  Opts.Config = Request.Config;
  Opts.Seed = Request.Seed;
  Opts.Budget = tuneBudgetFromString(Request.Budget);
  Opts.SynthAxis = Request.SynthAxis;
  Opts.LayoutAxis = Request.LayoutAxis;
  Opts.Jobs = ThreadPool::resolveWorkers(Request.Jobs);
  const auto Start = std::chrono::steady_clock::now();
  ErrorOr<TuneResult> ResultOr = [&] {
    TimelineSpan Span("tune", "search:" + (Request.Entry.empty()
                                               ? std::string("bench_main")
                                               : Request.Entry));
    return tuneUnit(P.I->Unit, Opts);
  }();
  I->Report.TotalMs += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  if (!ResultOr.ok())
    return Status::error(ResultOr.message());
  const TuneResult &R = *ResultOr;
  Out.BaselineCycles = R.BaselineCycles;
  Out.DefaultCycles = R.DefaultCycles;
  Out.TunedCycles = R.TunedCycles;
  Out.TunedPipeline = R.TunedPipeline;
  Out.Evaluations = R.Evaluations;
  Out.Restarts = R.Restarts;
  Out.ScoreCacheHits = R.ScoreCacheHits;
  Out.ScoreCacheMisses = R.ScoreCacheMisses;
  Out.ReportJson = tuneReportJson(R);
  I->Report.Tuned = true;
  I->Report.Tune = Out;
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Rule synthesis
//===----------------------------------------------------------------------===//

Status Session::synthesize(const SynthOptions &Request, SynthSummary &Out) {
  synth::SynthOptions Opts;
  Opts.IncludeWorkloads = Request.IncludeWorkloads;
  Opts.MaxWindow = Request.MaxWindow;
  Opts.MaxRules = Request.MaxRules;
  Opts.Seed = Request.Seed;
  Opts.Jobs = ThreadPool::resolveWorkers(Request.Jobs);
  Opts.Config = Request.Config;
  for (const std::string &Path : Request.CorpusPaths) {
    std::string Text;
    if (!readWholeFile(Path, Text))
      return Status::error("cannot open '" + Path + "'");
    Opts.Corpus.emplace_back(Path, std::move(Text));
  }
  const auto Start = std::chrono::steady_clock::now();
  ErrorOr<synth::SynthResult> ResultOr = [&] {
    TimelineSpan Span("synth", "synthesize");
    return synth::synthesizeRules(Opts);
  }();
  I->Report.TotalMs += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  if (!ResultOr.ok())
    return Status::error(ResultOr.message());
  const synth::SynthResult &R = *ResultOr;
  Out = SynthSummary();
  for (const synth::SynthRule &SR : R.Rules) {
    RuleInfo Info;
    Info.Name = SR.Rule.Name;
    Info.Pattern = SR.Rule.Pattern;
    Info.Guards = SR.Rule.Guards;
    Info.Replacement = SR.Rule.Replacement;
    Info.Provenance = SR.Rule.Provenance;
    Info.Support = SR.Support;
    Out.Rules.push_back(std::move(Info));
  }
  Out.CorpusFiles = R.Stats.CorpusFiles;
  Out.WindowsHarvested = R.Stats.WindowsHarvested;
  Out.UniqueWindows = R.Stats.UniqueWindows;
  Out.CandidatesTried = R.Stats.CandidatesTried;
  Out.CandidatesProven = R.Stats.CandidatesProven;
  Out.CandidatesVerified = R.Stats.CandidatesVerified;
  Out.RulesEmitted = R.Stats.RulesEmitted;
  Out.ShardFailures = R.Stats.ShardFailures;
  Out.TableText = R.TableText;
  if (!Request.OutPath.empty() &&
      writeWholeFile(Request.OutPath, Out.TableText))
    return Status::error("cannot write '" + Request.OutPath + "'");
  return Status::success();
}

Status Session::loadPeepholeRulesFile(const std::string &Path) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return Status::error("cannot open '" + Path + "'");
  if (MaoStatus S = loadSynthPeepholeRules(Text); !S.ok())
    return Status::error(Path + ": " + S.message());
  return Status::success();
}

Status Session::verifySynthRules(std::string *Detail) {
  if (MaoStatus S = synth::verifyActiveSynthRules(Detail); !S.ok())
    return Status::error(S.message());
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

namespace {

void appendKeyU64(std::string &Out, const char *Key, uint64_t V,
                  bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "\"%s\":%llu%s", Key,
                (unsigned long long)V, Comma ? "," : "");
  Out += Buf;
}

void appendKeyI64(std::string &Out, const char *Key, long long V,
                  bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "\"%s\":%lld%s", Key, V, Comma ? "," : "");
  Out += Buf;
}

void appendKeyMs(std::string &Out, const char *Key, double V,
                 bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "\"%s\":%.3f%s", Key, V, Comma ? "," : "");
  Out += Buf;
}

} // namespace

RunReport Session::lastReport() const {
  RunReport R = I->Report;
  StatsRegistry &Stats = StatsRegistry::instance();
  R.EncodeCache = {Stats.counter("encode.memo_hits").value(),
                   Stats.counter("encode.memo_misses").value()};
  if (cacheIsOpen()) {
    R.HasArtifactCache = true;
    R.Artifact = cacheStats();
  }
  R.Counters.clear();
  R.TimeCounters.clear();
  R.Gauges.clear();
  R.Histograms.clear();
  const StatsSnapshot Snap = Stats.snapshot();
  for (const auto &[Name, V] : Snap.Counters) {
    if (Name.rfind("time.", 0) == 0)
      R.TimeCounters.emplace_back(Name, V);
    else
      R.Counters.emplace_back(Name, V);
  }
  for (const auto &[Name, V] : Snap.Gauges)
    R.Gauges.emplace_back(Name, V);
  for (const auto &[Name, H] : Snap.Histograms)
    R.Histograms.emplace_back(Name,
                              HistogramInfo{H.Count, H.Sum, H.Min, H.Max});
  return R;
}

std::string Session::reportJson(const RunReport &R, bool IncludeTimings) {
  std::string Out = "{\n";
  Out += "\"version\":1,\n";

  Out += "\"input\":{\"name\":\"" + jsonEscape(R.Input) + "\",";
  appendKeyU64(Out, "lines", R.Parse.Lines);
  appendKeyU64(Out, "instructions", R.Parse.Instructions);
  appendKeyU64(Out, "opaque_instructions", R.Parse.OpaqueInstructions);
  appendKeyU64(Out, "functions", R.Parse.Functions, /*Comma=*/false);
  Out += "},\n";

  Out += "\"pipeline\":{\"passes\":[";
  for (size_t I = 0; I < R.Passes.size(); ++I) {
    const PassOutcomeInfo &P = R.Passes[I];
    Out += I ? ",\n" : "\n";
    Out += "{\"pass\":\"" + jsonEscape(P.Pass) + "\",\"status\":\"" +
           jsonEscape(P.Status) + "\",";
    appendKeyU64(Out, "transformations", P.Transformations);
    appendKeyI64(Out, "instruction_delta", P.InstructionDelta);
    appendKeyI64(Out, "byte_delta", P.ByteDelta, /*Comma=*/false);
    Out += "}";
  }
  Out += "\n],";
  appendKeyU64(Out, "failures", R.Failures);
  appendKeyU64(Out, "rollbacks", R.Rollbacks);
  appendKeyU64(Out, "skips", R.Skips);
  appendKeyU64(Out, "transformations", R.TotalTransformations,
               /*Comma=*/false);
  Out += "},\n";

  Out += "\"caches\":{\"encode\":{";
  appendKeyU64(Out, "hits", R.EncodeCache.Hits);
  appendKeyU64(Out, "misses", R.EncodeCache.Misses, /*Comma=*/false);
  Out += "}";
  if (R.HasArtifactCache) {
    Out += ",\"artifact\":{";
    appendKeyU64(Out, "hits", R.Artifact.Hits);
    appendKeyU64(Out, "misses", R.Artifact.Misses);
    appendKeyU64(Out, "stores", R.Artifact.Stores);
    appendKeyU64(Out, "store_failures", R.Artifact.StoreFailures);
    appendKeyU64(Out, "quarantines", R.Artifact.Quarantines);
    appendKeyU64(Out, "stale_tmp_removed", R.Artifact.StaleTmpRemoved);
    appendKeyU64(Out, "evictions", R.Artifact.Evictions);
    appendKeyU64(Out, "entries", R.Artifact.Entries, /*Comma=*/false);
    Out += "}";
  }
  Out += "},\n";

  Out += "\"counters\":{";
  for (size_t I = 0; I < R.Counters.size(); ++I) {
    Out += I ? ",\n" : "\n";
    appendKeyU64(Out, R.Counters[I].first.c_str(), R.Counters[I].second,
                 /*Comma=*/false);
  }
  Out += R.Counters.empty() ? "},\n" : "\n},\n";

  Out += "\"gauges\":{";
  for (size_t I = 0; I < R.Gauges.size(); ++I) {
    Out += I ? ",\n" : "\n";
    appendKeyI64(Out, R.Gauges[I].first.c_str(), R.Gauges[I].second,
                 /*Comma=*/false);
  }
  Out += R.Gauges.empty() ? "},\n" : "\n},\n";

  Out += "\"histograms\":{";
  for (size_t I = 0; I < R.Histograms.size(); ++I) {
    const HistogramInfo &H = R.Histograms[I].second;
    Out += I ? ",\n" : "\n";
    Out += "\"" + jsonEscape(R.Histograms[I].first) + "\":{";
    appendKeyU64(Out, "count", H.Count);
    appendKeyU64(Out, "sum", H.Sum);
    appendKeyU64(Out, "min", H.Min);
    appendKeyU64(Out, "max", H.Max, /*Comma=*/false);
    Out += "}";
  }
  Out += R.Histograms.empty() ? "}" : "\n}";

  if (R.Tuned) {
    Out += ",\n\"tune\":{";
    appendKeyU64(Out, "baseline_cycles", R.Tune.BaselineCycles);
    appendKeyU64(Out, "default_cycles", R.Tune.DefaultCycles);
    appendKeyU64(Out, "tuned_cycles", R.Tune.TunedCycles);
    Out += "\"tuned_pipeline\":\"" + jsonEscape(R.Tune.TunedPipeline) +
           "\",";
    appendKeyU64(Out, "evaluations", R.Tune.Evaluations);
    appendKeyU64(Out, "restarts", R.Tune.Restarts);
    appendKeyU64(Out, "score_cache_hits", R.Tune.ScoreCacheHits);
    appendKeyU64(Out, "score_cache_misses", R.Tune.ScoreCacheMisses,
                 /*Comma=*/false);
    Out += "}";
  }

  if (IncludeTimings) {
    Out += ",\n\"timings\":{";
    appendKeyU64(Out, "jobs", R.Jobs);
    appendKeyMs(Out, "total_ms", R.TotalMs);
    Out += "\"passes\":[";
    for (size_t I = 0; I < R.Passes.size(); ++I) {
      const PassOutcomeInfo &P = R.Passes[I];
      Out += I ? ",\n" : "\n";
      Out += "{\"pass\":\"" + jsonEscape(P.Pass) + "\",";
      appendKeyMs(Out, "wall_ms", P.WallMs);
      appendKeyMs(Out, "verify_ms", P.VerifyMs);
      appendKeyMs(Out, "validate_ms", P.ValidateMs, /*Comma=*/false);
      Out += "}";
    }
    Out += R.Passes.empty() ? "]," : "\n],";
    Out += "\"counters_us\":{";
    for (size_t I = 0; I < R.TimeCounters.size(); ++I) {
      Out += I ? ",\n" : "\n";
      appendKeyU64(Out, R.TimeCounters[I].first.c_str(),
                   R.TimeCounters[I].second, /*Comma=*/false);
    }
    Out += R.TimeCounters.empty() ? "}" : "\n}";
    Out += "}";
  }

  Out += "\n}\n";
  return Out;
}

std::string Session::lastReportJson(bool IncludeTimings) const {
  return reportJson(lastReport(), IncludeTimings);
}

Status Session::writeReport(const std::string &Path) const {
  return fromStatus(writeWholeFile(Path, lastReportJson()));
}

std::string Session::statsTable() const {
  const RunReport R = lastReport();
  std::string Out = "mao run statistics\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "  input: %s (%zu lines, %zu instructions, %zu functions)\n",
                R.Input.empty() ? "<none>" : R.Input.c_str(), R.Parse.Lines,
                R.Parse.Instructions, R.Parse.Functions);
  Out += Buf;
  if (!R.Passes.empty()) {
    std::snprintf(Buf, sizeof(Buf), "  %-12s %-11s %10s %9s %9s %9s\n",
                  "pass", "status", "transforms", "d-insns", "d-bytes",
                  "wall-ms");
    Out += Buf;
    for (const PassOutcomeInfo &P : R.Passes) {
      std::snprintf(Buf, sizeof(Buf), "  %-12s %-11s %10u %9ld %9ld %9.3f\n",
                    P.Pass.c_str(), P.Status.c_str(), P.Transformations,
                    P.InstructionDelta, P.ByteDelta, P.WallMs);
      Out += Buf;
    }
  }
  std::snprintf(Buf, sizeof(Buf),
                "  encode memo: %llu hits, %llu misses\n",
                (unsigned long long)R.EncodeCache.Hits,
                (unsigned long long)R.EncodeCache.Misses);
  Out += Buf;
  if (R.HasArtifactCache) {
    std::snprintf(Buf, sizeof(Buf),
                  "  artifact cache: %llu hits, %llu misses, %llu stores, "
                  "%llu quarantines, %llu entries\n",
                  (unsigned long long)R.Artifact.Hits,
                  (unsigned long long)R.Artifact.Misses,
                  (unsigned long long)R.Artifact.Stores,
                  (unsigned long long)R.Artifact.Quarantines,
                  (unsigned long long)R.Artifact.Entries);
    Out += Buf;
  }
  if (R.Tuned) {
    std::snprintf(Buf, sizeof(Buf),
                  "  tune: %u candidates, winner '%s' (%llu -> %llu cycles)\n",
                  R.Tune.Evaluations, R.Tune.TunedPipeline.c_str(),
                  (unsigned long long)R.Tune.BaselineCycles,
                  (unsigned long long)R.Tune.TunedCycles);
    Out += Buf;
  }
  Out += renderStatsTable(StatsRegistry::instance().snapshot());
  return Out;
}

void Session::setTraceLevel(int Level) {
  TraceContext::global().setLevel(Level);
}

void Session::resetGlobalStats() { StatsRegistry::instance().reset(); }

std::vector<PassCatalogEntry> Session::listPasses() {
  linkAllPasses();
  std::vector<PassCatalogEntry> Catalog;
  for (const PassRegistry::PassInfo &Info :
       PassRegistry::instance().listPasses()) {
    PassCatalogEntry Entry;
    Entry.Name = Info.Name;
    switch (Info.Kind) {
    case PassRegistry::PassKind::Function:
      Entry.Kind = "function";
      break;
    case PassRegistry::PassKind::ShardedFunction:
      Entry.Kind = "sharded-function";
      break;
    case PassRegistry::PassKind::Unit:
      Entry.Kind = "unit";
      break;
    }
    Catalog.push_back(std::move(Entry));
  }
  return Catalog;
}

Status Session::parsePipelineSpec(const std::string &Spec,
                                  std::vector<PassSpec> &Out) {
  linkAllPasses();
  std::vector<PassRequest> Requests;
  if (MaoStatus S = PassRegistry::instance().parsePipeline(Spec, Requests))
    return Status::error(S.message());
  std::vector<PassSpec> Specs = toSpecs(Requests);
  Out.insert(Out.end(), std::make_move_iterator(Specs.begin()),
             std::make_move_iterator(Specs.end()));
  return Status::success();
}

Status Session::parseClassicSpec(const std::string &Payload,
                                 std::vector<PassSpec> &Out) {
  std::vector<PassRequest> Requests;
  if (MaoStatus S = parseMaoOption(Payload, Requests))
    return Status::error(S.message());
  std::vector<PassSpec> Specs = toSpecs(Requests);
  Out.insert(Out.end(), std::make_move_iterator(Specs.begin()),
             std::make_move_iterator(Specs.end()));
  return Status::success();
}

std::string Session::driverHelp() { return driverOptionHelp(); }

unsigned Session::hardwareJobs() { return ThreadPool::resolveWorkers(0); }

} // namespace api
} // namespace mao
