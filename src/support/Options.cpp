//===- support/Options.cpp - MAO command-line option model ----------------==//

#include "support/Options.h"

#include "support/OptionRegistry.h"
#include "support/ThreadPool.h"

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

unsigned MaoCommandLine::effectiveJobs() const {
  return Jobs == 0 ? ThreadPool::defaultWorkerCount() : Jobs;
}

namespace {

/// Builds the declarative flag table for the driver surface over \p Cmd.
/// THE single definition site: parseCommandLine and driverOptionHelp both
/// render from here.
OptionRegistry buildDriverOptions(MaoCommandLine &Cmd) {
  OptionRegistry R;
  R.addCustom(
      "--mao",
      [&Cmd](const std::string &Payload) {
        return parseMaoOption(Payload, Cmd.Passes);
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
  R.addEnum("--mao-on-error", &Cmd.OnError, {"abort", "rollback", "skip"},
            "what a failing pass does to the rest of the pipeline");
  R.addFlag("--mao-verify", &Cmd.Verify,
            "run the full IR verifier after every pass");
  R.addEnum("--mao-validate", &Cmd.Validate, {"off", "structural", "semantic"},
            "per-pass validation level (semantic proves behaviour preserved)");
  R.addEnum("--mao-relax", &Cmd.RelaxMode, {"grow", "optimal"},
            "branch-displacement selection: grow = the paper's monotone "
            "widening; optimal = shrink rel32 branches that fit rel8 after "
            "convergence");
  R.addInt("--mao-pass-timeout-ms", &Cmd.PassTimeoutMs, 0,
           "per-pass wall-clock budget in ms (0 = unlimited)");
  R.addUint("--mao-jobs", &Cmd.Jobs, 0,
            "workers for shardable passes and tuner candidates "
            "(0 = all hardware threads); output is identical for every N");
  R.addCustom(
      "--mao-fault-inject",
      [&Cmd](const std::string &Payload) {
        std::string Spec = Payload;
        std::string::size_type At = Spec.find('@');
        if (At != std::string::npos) {
          std::string SeedText = Spec.substr(At + 1);
          char *End = nullptr;
          unsigned long long Seed = std::strtoull(SeedText.c_str(), &End, 10);
          if (End == SeedText.c_str() || *End != '\0')
            return MaoStatus::error(
                "--mao-fault-inject seed must be an integer; got '" +
                SeedText + "'");
          Cmd.FaultSeed = Seed;
          Spec = Spec.substr(0, At);
        }
        Cmd.FaultSpec = Spec;
        return MaoStatus::success();
      },
      "arm the deterministic fault injector: site:permille[,...][@seed]");
  R.addCustom(
      "--mao-sarif",
      [&Cmd](const std::string &Path) {
        if (Path.empty())
          return MaoStatus::error("--mao-sarif expects a file path");
        Cmd.SarifPath = Path;
        return MaoStatus::success();
      },
      "also write diagnostics as a SARIF 2.1.0 log to FILE");
  R.addCustom(
      "--mao-report",
      [&Cmd](const std::string &Path) {
        if (Path.empty())
          return MaoStatus::error("--mao-report expects a file path or '-'");
        Cmd.ReportPath = Path;
        return MaoStatus::success();
      },
      "write the machine-readable JSON run report to FILE ('-' for stdout)");
  R.addFlag("--stats", &Cmd.Stats,
            "print the human-readable run statistics table to stderr");
  R.addCustom(
      "--mao-trace-out",
      [&Cmd](const std::string &Path) {
        if (Path.empty())
          return MaoStatus::error("--mao-trace-out expects a file path");
        Cmd.TraceOut = Path;
        return MaoStatus::success();
      },
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
  auto AddBudget = [&R](const char *Flag, uint64_t *Slot, const char *Help) {
    R.addCustom(
        Flag,
        [Flag, Slot](const std::string &Value) {
          char *End = nullptr;
          unsigned long long Bytes = std::strtoull(Value.c_str(), &End, 10);
          if (End == Value.c_str() || *End != '\0')
            return MaoStatus::error(std::string(Flag) +
                                    " expects a byte count; got '" + Value +
                                    "'");
          *Slot = Bytes;
          return MaoStatus::success();
        },
        Help);
  };
  AddBudget("--mao-score-cache-budget", &Cmd.ScoreCacheBudget,
            "cap the tuner's score cache at BYTES, evicting oldest-first "
            "(0 = unlimited)");
  AddBudget("--cache-budget", &Cmd.CacheBudget,
            "cap the on-disk artifact cache at BYTES of entries, evicting "
            "oldest-first (0 = unlimited)");
  R.addFlag("--lint", &Cmd.Lint,
            "run the MaoCheck linter instead of the pass pipeline");
  R.addFlag("--lint-werror", &Cmd.LintWerror,
            "promote linter warnings to errors");
  R.addFlag("--lint-no-interproc", &Cmd.LintNoInterproc,
            "disable interprocedural summaries: calls clobber everything "
            "and the ABI conformance rules are skipped");
  R.addString("--lint-baseline", &Cmd.LintBaseline,
              "suppress lint findings whose fingerprints appear in FILE");
  R.addString("--lint-baseline-out", &Cmd.LintBaselineOut,
              "write all current lint findings' fingerprints to FILE (a "
              "baseline that re-lints clean)");
  R.addFlag("--tune", &Cmd.Tune,
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
        Cmd.TuneBudget = Value;
        return MaoStatus::success();
      },
      "candidate-evaluation budget: small, medium, large, or a count");
  R.addString("--tune-report", &Cmd.TuneReport,
              "write the machine-readable JSON tuning report to FILE");
  R.addCustom(
      "--tune-seed",
      [&Cmd](const std::string &Value) {
        char *End = nullptr;
        unsigned long long Seed = std::strtoull(Value.c_str(), &End, 10);
        if (End == Value.c_str() || *End != '\0')
          return MaoStatus::error("--tune-seed expects an integer; got '" +
                                  Value + "'");
        Cmd.TuneSeed = Seed;
        return MaoStatus::success();
      },
      "search seed; runs are deterministic in (input, seed, budget, config)");
  R.addEnum("--tune-config", &Cmd.TuneConfig, {"core2", "opteron"},
            "processor model scoring tuner candidates");
  R.addString("--tune-entry", &Cmd.TuneEntry,
              "function to emulate and score (default: bench_main, else the "
              "first function)");
  R.addFlag("--tune-synth-axis", &Cmd.TuneSynthAxis,
            "let the tuner toggle the synthesized rule pass as a search "
            "axis (off by default; tune trajectories stay stable)");
  R.addFlag("--tune-layout-axis", &Cmd.TuneLayoutAxis,
            "let the tuner toggle hot/cold function splitting and I-cache "
            "block reordering as search axes (off by default)");
  R.addFlag("--synth", &Cmd.Synth,
            "run the superoptimizer rule-synthesis loop over the input "
            "instead of a pass pipeline (see DESIGN.md, \"Rule synthesis\")");
  R.addString("--synth-out", &Cmd.SynthOut,
              "write the synthesized PeepholeRules.def table to FILE");
  R.addUint("--synth-window", &Cmd.SynthWindow, 2,
            "longest harvested instruction window (1-3)");
  R.addUint("--synth-max-rules", &Cmd.SynthMaxRules, 16,
            "cap on emitted synthesized rules (best-supported wins kept)");
  R.addCustom(
      "--synth-seed",
      [&Cmd](const std::string &Value) {
        char *End = nullptr;
        unsigned long long Seed = std::strtoull(Value.c_str(), &End, 10);
        if (End == Value.c_str() || *End != '\0')
          return MaoStatus::error("--synth-seed expects an integer; got '" +
                                  Value + "'");
        Cmd.SynthSeed = Seed;
        return MaoStatus::success();
      },
      "provenance seed recorded in emitted rules");
  R.addEnum("--synth-config", &Cmd.SynthConfig, {"core2", "opteron"},
            "processor model scoring candidate replacements");
  R.addFlag("--synth-no-workloads", &Cmd.SynthNoWorkloads,
            "harvest only the input corpus, not generated workload code");
  R.addString("--synth-rules", &Cmd.SynthRules,
              "replace the synth rule group with the rules of FILE (a .def "
              "table, the shape maosynth emits) before optimizing");
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
  return Cmd;
}

std::string mao::driverOptionHelp() {
  MaoCommandLine Scratch;
  return buildDriverOptions(Scratch).help();
}
