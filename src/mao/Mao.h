//===- mao/Mao.h - MAO public facade ----------------------------*- C++ -*-===//
///
/// \file
/// The one header an embedder needs: Parse → Optimize → Emit over stable
/// value types, with measurement, linting, validation, and autotuning
/// behind the same surface. It includes only the C++ standard library —
/// the IR, pass, simulator, and diagnostics layers stay internal, and the
/// types here are plain structs that do not leak internal headers into
/// client builds. tools/mao.cpp, tools/maofuzz.cpp, and the benches are
/// themselves clients of this facade.
///
/// Shape of a client:
///
///   mao::api::Session S;
///   mao::api::Program P;
///   if (!S.parseFile("in.s", P).Ok) ...;
///   std::vector<mao::api::PassSpec> Pipeline;
///   mao::api::Session::parsePipelineSpec("zee,sched(window=8)", Pipeline);
///   mao::api::OptimizeResult R = S.optimize(P, Pipeline, {});
///   S.emitToFile(P, "-");
///
//===----------------------------------------------------------------------===//

#ifndef MAO_MAO_H
#define MAO_MAO_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mao {
namespace api {

/// Success-or-message outcome of a facade call.
struct Status {
  bool Ok = true;
  std::string Message;
  static Status success() { return {}; }
  static Status error(std::string M) { return {false, std::move(M)}; }
  explicit operator bool() const { return Ok; }
};

/// One pass invocation: registry name plus (option, value) pairs.
struct PassSpec {
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Options;
};

/// One row of the pass catalogue.
struct PassCatalogEntry {
  std::string Name;
  std::string Kind; ///< "function", "sharded-function", or "unit".
};

/// Parse statistics.
struct ParseInfo {
  size_t Lines = 0;
  size_t Instructions = 0;
  size_t OpaqueInstructions = 0;
  size_t Functions = 0;
};

/// Execution policy for Session::optimize.
struct OptimizeOptions {
  std::string OnError = "abort";  ///< "abort", "rollback", or "skip".
  std::string Validate = "off";   ///< "off", "structural", or "semantic".
  bool VerifyAfterEachPass = false; ///< Thorough verification per pass.
  long PassTimeoutMs = 0;
  unsigned Jobs = 1; ///< 0 = all hardware threads.
  /// Collect per-pass instruction/byte deltas and pipeline counters for
  /// lastReport() / --mao-report. Off by default: the footprint walk costs
  /// one entry-list scan per pass boundary.
  bool CollectStats = false;

  /// True when the pipeline verifies the IR after every pass: on request,
  /// and under any recovery policy or validation level, which need it.
  /// Such a run also passes the full verifier before its output is
  /// emitted (the driver's final gate and Session::cacheRun alike).
  bool verifiesEachPass() const {
    return VerifyAfterEachPass || (!OnError.empty() && OnError != "abort") ||
           (!Validate.empty() && Validate != "off");
  }
};

/// Per-pass outcome of an optimize run. The delta fields are populated
/// only under OptimizeOptions::CollectStats; the timing fields are always
/// measured.
struct PassOutcomeInfo {
  std::string Pass;
  std::string Status; ///< "ok", "failed", "rolled-back", "skipped".
  unsigned Transformations = 0;
  long InstructionDelta = 0; ///< Committed instruction-count change.
  long ByteDelta = 0;        ///< Committed encoded-size change (bytes).
  double WallMs = 0.0;
  double VerifyMs = 0.0;
  double ValidateMs = 0.0;
  std::string Detail;
};

/// Result of Session::optimize.
struct OptimizeResult {
  bool Ok = false;
  std::string Error;
  std::vector<PassOutcomeInfo> Outcomes;
  unsigned Failures = 0;
  unsigned TotalTransformations = 0;
};

/// Options for Session::lint.
struct LintRequest {
  bool WarningsAsErrors = false;
  std::string FileName;
  /// Worker count for per-function analysis (0 = all hardware threads).
  /// The finding set is byte-identical for every value.
  unsigned Jobs = 1;
  /// Interprocedural summaries sharpen call effects and enable the ABI
  /// rules; false = clobber-everything comparison model.
  bool Interprocedural = true;
  /// Baseline file of finding fingerprints to suppress (empty = none).
  std::string BaselinePath;
  /// When non-empty, write all current findings' fingerprints here.
  std::string BaselineOutPath;
};

/// Summary of a lint run (mirrors check/Lint.h's LintResult).
struct LintSummary {
  unsigned Errors = 0;
  unsigned Warnings = 0;
  unsigned Notes = 0;
  unsigned Suppressed = 0; ///< Findings matched by the baseline file.
  unsigned IndirectUnresolved = 0;
  unsigned IndirectTotal = 0;
  bool InternalError = false;
  std::string InternalDetail;
  /// Order-sensitive digest over emitted finding fingerprints; equal
  /// digests mean identical finding sets (the cross-Jobs contract).
  uint64_t FindingsDigest = 0;
  int ExitCode = 0; ///< 0 clean, 1 findings, 2 internal error.
};

/// Options for Session::measure.
struct MeasureRequest {
  std::string Function = "bench_main";
  std::string Config = "core2"; ///< "core2" or "opteron".
  uint64_t MaxSteps = 50'000'000;
};

/// PMU counters of a measured run (mirrors uarch PmuCounters).
struct MeasureSummary {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Uops = 0;
  uint64_t DecodeLines = 0;
  uint64_t LsdUops = 0;
  uint64_t CondBranches = 0;
  uint64_t BranchMispredicts = 0;
  uint64_t RsFullStalls = 0;
  uint64_t L1IHits = 0;
  uint64_t L1IMisses = 0;
  uint64_t ItlbMisses = 0;
  uint64_t LineSplitFetches = 0;
};

/// Options for Session::tune (see DESIGN.md, "Autotuning").
struct TuneRequest {
  std::string Entry;            ///< Empty: bench_main, else first function.
  std::string Config = "core2"; ///< Processor model scoring candidates.
  std::string Budget = "medium"; ///< "small", "medium", "large", or a count.
  uint64_t Seed = 1;
  unsigned Jobs = 1; ///< 0 = all hardware threads.
  /// Let the search toggle the synthesized-rule pass (--tune-synth-axis);
  /// off by default so tune trajectories stay stable.
  bool SynthAxis = false;
  /// Let the search toggle the code-layout passes — hot/cold function
  /// splitting and I-cache basic-block reordering (--tune-layout-axis);
  /// off by default for the same trajectory-stability reason.
  bool LayoutAxis = false;
};

/// Summary of a tuning run.
struct TuneSummary {
  uint64_t BaselineCycles = 0;
  uint64_t DefaultCycles = 0;
  uint64_t TunedCycles = 0;
  std::string TunedPipeline; ///< --mao-passes spelling of the winner.
  unsigned Evaluations = 0;
  unsigned Restarts = 0;
  uint64_t ScoreCacheHits = 0;
  uint64_t ScoreCacheMisses = 0;
  std::string ReportJson; ///< The full machine-readable report (the
                          ///< driver writes it to --tune-report).
};

/// Options for Session::synthesize (see DESIGN.md, "Rule synthesis"). The
/// corpus is harvested from the given files plus (by default) the workload
/// generator; the result is deterministic in everything but Jobs, and
/// identical for every Jobs value.
struct SynthOptions {
  std::vector<std::string> CorpusPaths; ///< Assembly files to harvest.
  bool IncludeWorkloads = true; ///< Also harvest generated workload code.
  unsigned MaxWindow = 2;       ///< Longest harvested window (1..3).
  unsigned MaxRules = 16;       ///< Cap on emitted rules.
  uint64_t Seed = 1;            ///< Recorded in rule provenance.
  unsigned Jobs = 1;            ///< 0 = all hardware threads.
  std::string Config = "core2"; ///< Processor model scoring candidates.
  std::string OutPath; ///< When set, the emitted .def is written here.
};

/// One rule a synthesis run emitted, with its evidence.
struct RuleInfo {
  std::string Name;
  std::string Pattern;
  std::string Guards;
  std::string Replacement;
  std::string Provenance; ///< "synth:... win=N->M": the cycle evidence.
  uint64_t Support = 0;   ///< Corpus windows matching the pattern.
};

/// Summary of a synthesis run.
struct SynthSummary {
  /// Emitted rules in table order.
  std::vector<RuleInfo> Rules;
  uint64_t CorpusFiles = 0;
  uint64_t WindowsHarvested = 0;
  uint64_t UniqueWindows = 0;
  uint64_t CandidatesTried = 0;
  uint64_t CandidatesProven = 0;   ///< Passed the symbolic oracle.
  uint64_t CandidatesVerified = 0; ///< Also passed SemanticValidator.
  uint64_t RulesEmitted = 0;
  uint64_t ShardFailures = 0;
  std::string TableText; ///< The complete rendered PeepholeRules.def.
};

/// Cache totals published by the run report.
struct CacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Persistent artifact-cache totals (Session::cacheOpen; see DESIGN.md,
/// "Service mode & persistent cache").
struct ArtifactCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Stores = 0;
  uint64_t StoreFailures = 0;
  uint64_t Quarantines = 0;
  uint64_t StaleTmpRemoved = 0;
  uint64_t Evictions = 0; ///< Entries removed to honour the byte budget.
  uint64_t Entries = 0;
};

/// One cached optimization request: the whole parse → optimize → emit
/// round as a pure function of (Source, Pipeline, Options), which
/// is what makes it content-addressable. Name is diagnostic-only and
/// excluded from the key.
struct CachedRunRequest {
  std::string Source;
  std::string Name = "<input>";
  std::vector<PassSpec> Pipeline;
  OptimizeOptions Options;
  /// Paranoia mode: on a cache hit, recompute anyway and fail the request
  /// if the stored bytes differ (fuzzing and the serve acceptance tests).
  bool VerifyHit = false;
};

/// Result of Session::cacheRun. Output and ReportJson are byte-identical
/// between a hit and a recompute, for every OptimizeOptions::Jobs value —
/// ReportJson is the per-run report with the jobs-dependent timing section
/// omitted.
struct CachedRunResult {
  bool CacheHit = false;
  std::string Output;
  std::string ReportJson;
  /// Non-fatal store-side detail (e.g. the entry could not be persisted);
  /// the computed result is still valid when this is set.
  std::string Diagnostic;
  /// On failure: the session's diagnostics already reported it (a parse
  /// error, a failed pass or a verifier issue), so the caller prints
  /// nothing more; and whether it was the input that did not parse.
  bool Reported = false;
  bool ParseFailed = false;
};

/// Histogram summary row of the run report.
struct HistogramInfo {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0;
  uint64_t Max = 0;
};

/// The machine-readable run report accumulated by a Session across its
/// parse/optimize/tune calls (--mao-report / mao --stats).
///
/// Determinism contract: every field above the "timing section" marker is
/// identical for every OptimizeOptions::Jobs / --mao-jobs value (counters
/// are commutative reductions, length memos live on the IR and so do not
/// depend on which shard measured them, snapshot ordering is sorted), so
/// reportJson(R, /*IncludeTimings=*/false) is byte-identical across
/// worker counts. The timing section is wall-clock and scheduling
/// dependent by nature.
struct RunReport {
  std::string Input; ///< Input path or parseText name.
  ParseInfo Parse;
  std::vector<PassOutcomeInfo> Passes; ///< In invocation order.
  unsigned Failures = 0;
  unsigned Rollbacks = 0;
  unsigned Skips = 0;
  unsigned TotalTransformations = 0;
  /// Instruction lengths served from the IR's per-entry length memo
  /// (Hits) and learned by encoding (Misses) — the "encode.memo_hits" /
  /// "encode.memo_misses" registry counters.
  CacheCounters EncodeCache;
  bool HasArtifactCache = false; ///< True once cacheOpen() succeeded.
  ArtifactCounters Artifact; ///< Valid when HasArtifactCache.
  /// Registry counters, "time."-prefixed ones excluded (sorted by name).
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, HistogramInfo>> Histograms;
  bool Tuned = false;
  TuneSummary Tune; ///< Valid when Tuned.
  // -- timing section (jobs-dependent) --
  unsigned Jobs = 1;   ///< Resolved worker count of the last optimize.
  double TotalMs = 0.0; ///< Wall clock across optimize/tune calls.
  /// Registry counters prefixed "time." (microsecond accumulators).
  std::vector<std::pair<std::string, uint64_t>> TimeCounters;
};

/// Section name -> assembled bytes.
using AssembledBytes = std::map<std::string, std::vector<uint8_t>>;

/// A parsed program (pimpl over the internal IR). Move-only; clone() is
/// the explicit deep copy.
class Program {
public:
  Program();
  ~Program();
  Program(Program &&) noexcept;
  Program &operator=(Program &&) noexcept;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// True once a parse succeeded into this program.
  bool valid() const;
  size_t functionCount() const;
  /// Deep copy (for before/after comparisons).
  Program clone() const;

private:
  friend class Session;
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// An optimizer session: owns diagnostics configuration and provides the
/// Parse → Optimize → Emit operations plus measurement, linting, semantic
/// validation, and tuning. Sessions are independent; fault injection is
/// process-global (the injector is a singleton).
class Session {
public:
  struct Config {
    bool StderrDiagnostics = true;
    unsigned MaxErrors = 64;
    /// When set, diagnostics are also collected as SARIF and flushed to
    /// this path by writeSarif() / the destructor.
    std::string SarifPath;
    /// When set, the session collects a Chrome trace-event timeline (one
    /// lane per worker thread over passes, shards, tune candidates, and
    /// simulator runs) and flushes it to this path by writeTrace() / the
    /// destructor. Loadable in chrome://tracing and Perfetto.
    std::string TraceOutPath;
  };

  Session();
  explicit Session(Config C);
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Flushes the SARIF log now (also runs on destruction, which drops the
  /// result). Like every write here, a failure reads "cannot write PATH:
  /// REASON"; without a configured path this does nothing.
  Status writeSarif();

  /// Flushes the trace-event timeline now (also runs on destruction).
  Status writeTrace();

  // Observability (see RunReport for the determinism contract).
  /// The run report so far, with cache and counter snapshots taken now.
  RunReport lastReport() const;
  /// Renders \p R as the versioned report JSON; with IncludeTimings false
  /// the "timings" object is omitted and the document is byte-identical
  /// across worker counts.
  static std::string reportJson(const RunReport &R,
                                bool IncludeTimings = true);
  std::string lastReportJson(bool IncludeTimings = true) const;
  /// Writes lastReportJson(true) to \p Path ("-" = stdout).
  Status writeReport(const std::string &Path) const;
  /// The human-readable `mao --stats` table for the current report.
  std::string statsTable() const;
  /// Sets the global trace level (--mao-trace-level): infrastructure
  /// tracing and every pass without an explicit trace[N] option.
  static void setTraceLevel(int Level);
  /// Zeroes process-global observability state (the metrics registry) so
  /// sequential runs in one process can be compared in isolation. Does
  /// not touch per-session reports.
  static void resetGlobalStats();

  /// Arms the deterministic fault injector ("site:permille[,...]").
  Status armFaultInjection(const std::string &Spec, uint64_t Seed);
  /// Applies MAO_FAULT_INJECT from the environment, if set.
  void armFaultInjectionFromEnv();

  // Persistent artifact cache (--cache-dir; see DESIGN.md, "Service mode
  // & persistent cache"). Entries are written crash-safely (temp file +
  // fsync + atomic rename + checksum trailer); corrupt or torn entries
  // are quarantined and recomputed, and a hit is byte-identical to a
  // recompute.
  /// Opens (creating if needed) the on-disk cache rooted at \p Dir.
  /// A non-zero \p BudgetBytes caps the total size of visible entries;
  /// stores beyond the budget evict oldest entries first (--cache-budget).
  Status cacheOpen(const std::string &Dir, uint64_t BudgetBytes = 0);
  /// Shares \p Owner's open cache handle (and its counters) instead of
  /// opening the directory again: no scan, no stale-temp sweep, and one
  /// temp-name sequence for every session that attaches. maod opens the
  /// cache once and attaches each connection's session. Leaves this
  /// session uncached when \p Owner has no open cache.
  void cacheAttach(const Session &Owner);
  bool cacheIsOpen() const;
  ArtifactCounters cacheStats() const;
  /// The content-addressed key cacheRun uses for \p Request: FNV-1a over
  /// the input bytes, the canonical pipeline spelling, the key-relevant
  /// execution options, the active peephole-rule digest,
  /// and the pass/option version fingerprint of this binary. Jobs is
  /// deliberately excluded — output is identical for every worker count.
  static uint64_t cacheKey(const CachedRunRequest &Request);
  /// Runs \p Request through the cache: a verified hit returns the stored
  /// artifact; a miss computes parse → optimize → emit through this
  /// session and persists the result. Store failures are reported in
  /// CachedRunResult::Diagnostic but never fail the run. Without an open
  /// cache this is a plain compute — same code path as a miss, no store.
  Status cacheRun(const CachedRunRequest &Request, CachedRunResult &Out);
  /// Renders \p Pipeline in the canonical registry spelling
  /// ("a,b(c=1,d=2)"), the form used for cache keys and serve requests.
  static std::string canonicalPipelineSpec(
      const std::vector<PassSpec> &Pipeline);

  // Parse.
  Status parseFile(const std::string &Path, Program &Out,
                   ParseInfo *Info = nullptr);
  Status parseText(const std::string &Source, const std::string &Name,
                   Program &Out, ParseInfo *Info = nullptr);

  // Optimize.
  OptimizeResult optimize(Program &P, const std::vector<PassSpec> &Pipeline,
                          const OptimizeOptions &Options);

  /// Runs the full IR verifier (the final consistency gate).
  Status verify(Program &P);

  // Emit.
  Status emitToFile(Program &P, const std::string &Path); ///< "-" = stdout.
  std::string emitToString(Program &P);
  /// Assembles to raw section bytes (identity-comparison workflows).
  Status assemble(Program &P, AssembledBytes &Out);

  // Analysis.
  LintSummary lint(Program &P, const LintRequest &Request);
  /// Proves A and B observably equivalent (translation validation).
  Status validateEquivalence(Program &A, Program &B);
  Status measure(Program &P, const MeasureRequest &Request,
                 MeasureSummary &Out);

  /// Autotuning: searches pass parameterizations, applies the winner to
  /// \p P, and reports the scores. Deterministic in (program, seed,
  /// budget, config) for every Jobs value.
  Status tune(Program &P, const TuneRequest &Request, TuneSummary &Out);

  // Rule synthesis (see DESIGN.md, "Rule synthesis").
  /// Runs the superoptimizer synthesis loop over Request's corpus: harvest
  /// windows, prove rewrites with the symbolic oracle plus
  /// SemanticValidator, score survivors on the uarch model, and emit the
  /// winners as a PeepholeRules.def table (SynthSummary::TableText, also
  /// written to OutPath when set).
  Status synthesize(const SynthOptions &Request, SynthSummary &Out);
  /// Replaces the peephole rule table with the rules of \p Path (a .def
  /// file, the shape synthesize() emits); `--synth-rules`. Not
  /// thread-safe; call before optimize/tune.
  static Status loadPeepholeRulesFile(const std::string &Path);
  /// Re-proves every active peephole rule (oracle + validator); the CI
  /// gate behind `--synth-verify`. \p Detail receives a summary line.
  static Status verifySynthRules(std::string *Detail);

  // Catalogue and spec parsing (registry-backed).
  static std::vector<PassCatalogEntry> listPasses();
  /// Parses "a,b(c=1)" with name validation and did-you-mean errors.
  static Status parsePipelineSpec(const std::string &Spec,
                                  std::vector<PassSpec> &Out);
  /// Parses the classic "PASS=opt[val]:PASS2" spelling (names not
  /// validated, matching the historical --mao= contract).
  static Status parseClassicSpec(const std::string &Payload,
                                 std::vector<PassSpec> &Out);
  /// The generated --mao-help flag reference.
  static std::string driverHelp();
  /// hardware_concurrency with the >= 1 guarantee.
  static unsigned hardwareJobs();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace api
} // namespace mao

#endif // MAO_MAO_H
