//===- perfbench/tool/PerfbenchTool.cpp - Repository benchmark helper ---------===//
///
/// \file
/// The compiled half of the repository benchmark; perfbench/run.py drives
/// it and runs the shipped `mao` and `maod` binaries itself. Subcommands,
/// each printing one JSON object on stdout:
///
///   info                          build facts recorded next to results
///   gen WORKLOAD SEED DIR         writes the workload's generated inputs
///                                 and DIR/manifest.json
///   check IN OUT                  re-parse + verify OUT, run bench_main of
///                                 both on the emulator and compare, report
///                                 assembled bytes and simulated cycles
///   layers DIR PIPELINE JOBS CACHE
///                                 the traced per-layer run over DIR's
///                                 inputs, each layer timed from outside
///   serve SOCKET DIR PIPELINE SECONDS CLIENTS SEED MAX_REQUESTS
///                                 closed-loop maod client, one fresh
///                                 connection per request (mao --connect);
///                                 every fourth request of a client carries
///                                 a source the cache has not stored
///   shutdown SOCKET               clientShutdown, for a clean daemon stop
///
/// Inputs are a pure function of (workload, seed); the optimizer only ever
/// sees the generated assembly text.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Loops.h"
#include "analysis/Relaxer.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "mao/Mao.h"
#include "serve/ArtifactCache.h"
#include "serve/Protocol.h"
#include "serve/Serve.h"
#include "sim/Emulator.h"
#include "support/Random.h"
#include "uarch/Runner.h"
#include "workload/Workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mao;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Flat JSON object writer: numbers keep all their digits.
class JsonOut {
public:
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    raw(Key, Buf);
  }
  void str(const std::string &Key, const std::string &V) {
    raw(Key, quote(V));
  }
  void raw(const std::string &Key, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + quote(Key) + ": " + V;
  }
  std::string text() const { return "{" + Body + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += ' ';
        continue;
      }
      Out += C;
    }
    return Out + "\"";
  }

private:
  std::string Body;
};

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool writeFile(const fs::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

[[noreturn]] void fail(const std::string &Message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", Message.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// gen
//===----------------------------------------------------------------------===//

/// The workload's inputs for \p Seed. Every profile keeps its calibrated
/// shape; the seed only moves each profile's generator seed, so sizes and
/// pattern counts are stable across seeds while the code itself differs.
std::vector<WorkloadSpec> workloadSpecs(const std::string &Workload,
                                        uint64_t Seed) {
  std::vector<WorkloadSpec> Specs;
  if (Workload == "spec_suite" || Workload == "serve_mixed") {
    Specs = spec2000IntProfiles();
    for (WorkloadSpec &S : spec2006Profiles())
      Specs.push_back(S);
    // Request sources leave out the three largest profiles, so that one
    // request computes in about 0.1 s at most and the daemon's memory
    // high-water mark does not hinge on which large requests overlap.
    if (Workload == "serve_mixed")
      std::erase_if(Specs, [](const WorkloadSpec &S) {
        return S.Name == "176.gcc" || S.Name == "253.perlbmk" ||
               S.Name == "254.gap";
      });
  } else
    fail("unknown workload '" + Workload + "'");
  for (WorkloadSpec &S : Specs)
    S.Seed += 7919 * Seed;
  return Specs;
}

/// A one-function input: what `mao` costs before it does any real work.
WorkloadSpec startupSpec(uint64_t Seed) {
  WorkloadSpec S;
  S.Name = "startup";
  S.Seed = 1 + Seed;
  S.Functions = 1;
  S.FillerPerFunction = 40;
  S.ZeroExtPatterns = 1;
  S.RedundantTests = 1;
  S.HarmlessTests = 1;
  S.RedundantLoads = 1;
  S.AddAddPairs = 1;
  S.SplitShortLoops = 1;
  S.AlignedShortLoops = 0;
  S.SchedFanoutLoops = 0;
  S.NeutralLoops = 0;
  S.HotIterations = 10;
  return S;
}

int cmdGen(const std::string &Workload, uint64_t Seed, const fs::path &Dir) {
  fs::create_directories(Dir);
  std::string Files;
  for (const WorkloadSpec &Spec : workloadSpecs(Workload, Seed)) {
    const std::string Text = generateWorkloadAssembly(Spec);
    ParseStats Stats;
    if (!parseAssembly(Text, &Stats, Spec.Name).ok())
      fail("generated input " + Spec.Name + " does not parse");
    const std::string File = Spec.Name + ".s";
    if (!writeFile(Dir / File, Text))
      fail("cannot write " + (Dir / File).string());
    JsonOut F;
    F.str("name", Spec.Name);
    F.str("path", File);
    F.num("insts", static_cast<double>(Stats.Instructions));
    F.num("bytes", static_cast<double>(Text.size()));
    Files += (Files.empty() ? "" : ", ") + F.text();
  }
  if (!writeFile(Dir / "startup.s",
                 generateWorkloadAssembly(startupSpec(Seed))))
    fail("cannot write startup input");
  JsonOut M;
  M.str("workload", Workload);
  M.num("seed", static_cast<double>(Seed));
  M.str("startup", "startup.s");
  M.raw("files", "[" + Files + "]");
  if (!writeFile(Dir / "manifest.json", M.text() + "\n"))
    fail("cannot write manifest");
  M.print();
  return 0;
}

/// Reads the file list back from a manifest written by cmdGen (paths are
/// relative to the manifest's directory).
std::vector<std::pair<std::string, fs::path>> manifestFiles(const fs::path &Dir) {
  const std::string Text = readFile(Dir / "manifest.json");
  std::vector<std::pair<std::string, fs::path>> Out;
  size_t Pos = 0;
  const std::string NameKey = "\"name\": \"", PathKey = "\"path\": \"";
  while ((Pos = Text.find(NameKey, Pos)) != std::string::npos) {
    Pos += NameKey.size();
    const std::string Name = Text.substr(Pos, Text.find('"', Pos) - Pos);
    Pos = Text.find(PathKey, Pos) + PathKey.size();
    const std::string Path = Text.substr(Pos, Text.find('"', Pos) - Pos);
    Out.emplace_back(Name, Dir / Path);
  }
  if (Out.empty())
    fail("no files in " + (Dir / "manifest.json").string());
  return Out;
}

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

constexpr uint64_t MaxEmulationSteps = 400'000'000;

/// What a program's bench_main leaves behind: the return value, the
/// callee-saved registers, and a digest of the scratch memory the
/// generated functions write.
struct Observed {
  bool Ok = false;
  std::string Error;
  uint64_t Regs[8] = {};
  uint64_t MemoryDigest = 0;
};

Observed observe(MaoUnit &Unit, size_t Functions) {
  Observed O;
  Emulator E(Unit);
  Emulator::Config Cfg;
  Cfg.MaxSteps = MaxEmulationSteps;
  EmulationResult R = E.run("bench_main", MachineState(), Cfg);
  if (R.Reason != StopReason::Returned) {
    O.Error = "bench_main did not return: " + R.Message;
    return O;
  }
  const Reg Saved[8] = {Reg::RAX, Reg::RBX, Reg::RBP, Reg::RSP,
                        Reg::R12, Reg::R13, Reg::R14, Reg::R15};
  for (unsigned I = 0; I < 8; ++I)
    O.Regs[I] = R.Final.gprValue(Saved[I]);
  // The generator gives function I the page at 0x100000 + 0x1000 * I.
  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (size_t F = 0; F < Functions; ++F)
    for (uint64_t Off = 0; Off < 0x100; Off += 8) {
      Digest ^= E.load(0x100000 + 0x1000 * F + Off, 8);
      Digest *= 0x100000001b3ULL;
    }
  O.MemoryDigest = Digest;
  O.Ok = true;
  return O;
}

/// Empty when \p Got leaves the same registers and memory as \p Want.
std::string behaviourDiff(const Observed &Want, const Observed &Got) {
  if (!Want.Ok)
    return "input: " + Want.Error;
  if (!Got.Ok)
    return "output: " + Got.Error;
  if (!std::equal(std::begin(Want.Regs), std::end(Want.Regs),
                  std::begin(Got.Regs)))
    return "bench_main return value or callee-saved registers differ";
  if (Want.MemoryDigest != Got.MemoryDigest)
    return "bench_main leaves different memory";
  return "";
}

uint64_t assembledBytes(MaoUnit &Unit, std::string &Error) {
  auto BytesOr = assembleUnit(Unit);
  if (!BytesOr.ok()) {
    Error = BytesOr.message();
    return 0;
  }
  uint64_t Total = 0;
  for (const auto &[Section, Bytes] : *BytesOr)
    Total += Bytes.size();
  return Total;
}

int cmdCheck(const fs::path &InPath, const fs::path &OutPath) {
  JsonOut J;
  auto Fail = [&J](const std::string &Why) {
    J.raw("ok", "false");
    J.str("error", Why);
    J.print();
    return 0;
  };
  auto In = parseAssembly(readFile(InPath), nullptr, InPath.string());
  if (!In.ok())
    return Fail("input does not parse: " + In.message());
  auto Out = parseAssembly(readFile(OutPath), nullptr, OutPath.string());
  if (!Out.ok())
    return Fail("output does not re-parse: " + Out.message());
  if (VerifierReport V = verifyUnit(*Out); !V.clean())
    return Fail("output fails the verifier: " + V.firstMessage());

  const size_t Functions = In->functions().size();
  if (std::string Diff = behaviourDiff(observe(*In, Functions),
                                       observe(*Out, Functions));
      !Diff.empty())
    return Fail(Diff);

  std::string Error;
  const uint64_t OutBytes = assembledBytes(*Out, Error);
  if (!Error.empty())
    return Fail("output does not assemble: " + Error);
  MeasureOptions Opts;
  Opts.MaxSteps = MaxEmulationSteps;
  auto InM = measureFunction(*In, "bench_main", Opts);
  auto OutM = measureFunction(*Out, "bench_main", Opts);
  if (!InM.ok() || !OutM.ok())
    return Fail("simulation failed: " +
                (InM.ok() ? OutM.message() : InM.message()));
  J.raw("ok", "true");
  J.num("out_bytes", static_cast<double>(OutBytes));
  J.num("in_cycles", static_cast<double>(InM->Pmu.CpuCycles));
  J.num("out_cycles", static_cast<double>(OutM->Pmu.CpuCycles));
  J.num("decode_lines", static_cast<double>(OutM->Pmu.DecodeLines));
  J.num("lsd_uops", static_cast<double>(OutM->Pmu.LsdUops));
  J.num("mispredicts", static_cast<double>(OutM->Pmu.BrMispredicted));
  J.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// layers
//===----------------------------------------------------------------------===//

/// In-memory spans around each call into a layer. A span's self time is
/// its duration minus what its children cover; per-layer metrics sum the
/// self time of every span with the layer's name.
class Tracer {
public:
  struct Span {
    std::string Name;
    int Parent;
    double StartMs;
    double EndMs = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  template <typename F> auto span(const std::string &Name, F &&Fn) {
    if (!Enabled)
      return Fn();
    const int Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Current, msSince(Origin)});
    const int Saved = Current;
    Current = Id;
    struct Close {
      Tracer &T;
      int Id, Saved;
      ~Close() {
        T.Spans[Id].EndMs = msSince(T.Origin);
        T.Current = Saved;
      }
    } C{*this, Id, Saved};
    return Fn();
  }

  double selfMs(const std::string &Name) const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.EndMs - S.StartMs;
    double Total = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        Total += Spans[I].EndMs - Spans[I].StartMs - Child[I];
    return Total;
  }

  /// Chrome trace-event JSON of every span (loadable in Perfetto).
  std::string chromeJson() const {
    std::string Out = "{\"traceEvents\": [";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d}}",
                    I ? ", " : "", JsonOut::quote(S.Name).c_str(),
                    S.StartMs * 1e3, (S.EndMs - S.StartMs) * 1e3, S.Parent);
      Out += Buf;
    }
    return Out + "]}\n";
  }

private:
  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  int Current = -1;
};

/// One compile through the facade the way `mao` does it: parse, optimize,
/// emit. Returns the emitted text; fills the optimize result.
std::string facadeCompile(Tracer &T, const std::string &Text,
                          const std::string &Name,
                          const std::vector<api::PassSpec> &Pipeline,
                          unsigned Jobs, api::OptimizeResult &Result,
                          api::RunReport *Report) {
  api::Session::Config Config;
  Config.StderrDiagnostics = false;
  api::Session S(Config);
  api::Program P;
  return T.span("compile", [&] {
    if (!T.span("facade.parse", [&] { return S.parseText(Text, Name, P); })
             .Ok)
      fail("facade parse of " + Name + " failed");
    api::OptimizeOptions Opts;
    Opts.Jobs = Jobs;
    api::Session::resetGlobalStats();
    Result = T.span("pass.optimize",
                    [&] { return S.optimize(P, Pipeline, Opts); });
    if (!Result.Ok)
      fail("optimize of " + Name + " failed: " + Result.Error);
    if (Report)
      *Report = S.lastReport();
    return T.span("asm.emit", [&] { return S.emitToString(P); });
  });
}

int cmdLayers(const fs::path &Dir, const std::string &PipelineText,
              unsigned Jobs, const fs::path &CacheDir) {
  std::vector<api::PassSpec> Pipeline;
  if (api::Status S = api::Session::parseClassicSpec(PipelineText, Pipeline);
      !S.Ok)
    fail("bad pipeline: " + S.Message);

  Tracer T(true);
  double InputBytes = 0, RelaxIterations = 0;
  double EncodeHits = 0, EncodeMisses = 0, PassWallMs = 0, PassVerifyMs = 0;
  double DecodeLines = 0, LsdUops = 0, Mispredicts = 0;
  std::vector<std::string> PassNames;
  std::vector<double> PassMs, PassXforms;
  bool Correct = true;
  std::string Why;
  auto Mismatch = [&](const std::string &Msg) {
    if (Correct)
      Why = Msg;
    Correct = false;
  };

  for (const auto &[Name, Path] : manifestFiles(Dir)) {
    const std::string Text = readFile(Path);
    InputBytes += static_cast<double>(Text.size());

    // asm, ir and analysis layers on the input, each call timed alone.
    ParseStats Stats;
    auto Unit = T.span("asm.parse", [&] {
      return parseAssembly(Text, &Stats, Name);
    });
    if (!Unit.ok())
      fail("parse of " + Name + " failed: " + Unit.message());
    T.span("ir.structure", [&] { Unit->rebuildStructure(); });
    MaoUnit Copy = T.span("ir.clone", [&] { return Unit->clone(); });
    RelaxationResult Relax =
        T.span("analysis.relax", [&] { return relaxUnit(*Unit); });
    RelaxIterations += Relax.Iterations;
    for (MaoFunction &Fn : Unit->functions()) {
      CFG G = T.span("analysis.cfg", [&] { return CFG::build(Fn); });
      T.span("analysis.loops",
             [&] { return LoopStructureGraph::build(G).loopCount(); });
    }

    // pass layer through the public facade, as `mao` runs it.
    api::OptimizeResult Result;
    api::RunReport Report;
    const std::string Optimized =
        facadeCompile(T, Text, Name, Pipeline, Jobs, Result, &Report);
    EncodeHits += static_cast<double>(Report.EncodeCache.Hits);
    EncodeMisses += static_cast<double>(Report.EncodeCache.Misses);
    for (const api::PassOutcomeInfo &O : Result.Outcomes) {
      auto It = std::find(PassNames.begin(), PassNames.end(), O.Pass);
      const size_t Idx = It - PassNames.begin();
      if (It == PassNames.end()) {
        PassNames.push_back(O.Pass);
        PassMs.push_back(0);
        PassXforms.push_back(0);
      }
      PassMs[Idx] += O.WallMs;
      PassXforms[Idx] += O.Transformations;
      PassWallMs += O.WallMs;
      PassVerifyMs += O.VerifyMs;
    }

    // The output must match what the `mao` jobs=1 reference wrote.
    const fs::path RefPath = Dir / "ref" / (Name + ".s");
    if (fs::exists(RefPath) && readFile(RefPath) != Optimized)
      Mismatch(Name + ": in-process output differs from the mao reference");

    // Verify, assemble and simulate the optimized unit.
    auto OutUnit = parseAssembly(Optimized, nullptr, Name);
    if (!OutUnit.ok())
      fail("optimized " + Name + " does not re-parse");
    VerifierReport V =
        T.span("ir.verify", [&] { return verifyUnit(*OutUnit); });
    if (!V.clean())
      Mismatch(Name + ": verifier: " + V.firstMessage());
    std::string Error;
    T.span("asm.assemble", [&] { return assembledBytes(*OutUnit, Error); });
    if (!Error.empty())
      fail("assemble of " + Name + " failed: " + Error);
    const size_t Functions = Unit->functions().size();
    Observed Got = T.span("sim.emulate",
                          [&] { return observe(*OutUnit, Functions); });
    if (std::string Diff = behaviourDiff(observe(Copy, Functions), Got);
        !Diff.empty())
      Mismatch(Name + ": " + Diff);
    MeasureOptions Opts;
    Opts.MaxSteps = MaxEmulationSteps;
    auto M = T.span("uarch.sim", [&] {
      return measureFunction(*OutUnit, "bench_main", Opts);
    });
    if (!M.ok())
      fail("simulation of " + Name + " failed: " + M.message());
    DecodeLines += static_cast<double>(M->Pmu.DecodeLines);
    LsdUops += static_cast<double>(M->Pmu.LsdUops);
    Mispredicts += static_cast<double>(M->Pmu.BrMispredicted);

    // ArtifactCache on the given (pre-filled) directory: open, store,
    // lookup.
    serve::ArtifactCache Cache;
    if (MaoStatus S = T.span("serve.cache_open",
                             [&] { return Cache.open(CacheDir.string()); }))
      fail("cache open failed: " + S.message());
    serve::CacheEntry Entry;
    Entry.set("output", Optimized);
    Entry.set("report", "{}");
    const uint64_t Key = serve::fnv1a64(Text);
    if (MaoStatus S =
            T.span("serve.cache_store", [&] { return Cache.store(Key, Entry); }))
      fail("cache store failed: " + S.message());
    serve::CacheEntry Back;
    if (!T.span("serve.cache_lookup", [&] { return Cache.lookup(Key, Back); }) ||
        *Back.find("output") != Optimized)
      Mismatch(Name + ": cache lookup did not return the stored output");
  }

  // Tracing overhead: the same facade compiles with spans off versus on,
  // in off-on-on-off order so neither side always runs first.
  double TracedMs = 0, UntracedMs = 0;
  for (bool Traced : {false, true, true, false}) {
    Tracer Local(Traced);
    const Clock::time_point T0 = Clock::now();
    for (const auto &[Name, Path] : manifestFiles(Dir)) {
      api::OptimizeResult R;
      facadeCompile(Local, readFile(Path), Name, Pipeline, Jobs, R, nullptr);
    }
    (Traced ? TracedMs : UntracedMs) += msSince(T0);
  }

  JsonOut J;
  J.raw("correct", Correct ? "true" : "false");
  J.str("error", Why);
  const double ParseMs = T.selfMs("asm.parse");
  J.num("asm.parse_ms", ParseMs);
  J.num("asm.parse_mb_s",
        ParseMs > 0 ? InputBytes / (1024.0 * 1024.0) / (ParseMs / 1e3) : 0);
  J.num("asm.emit_ms", T.selfMs("asm.emit"));
  J.num("asm.assemble_ms", T.selfMs("asm.assemble"));
  J.num("ir.structure_ms", T.selfMs("ir.structure"));
  J.num("ir.verify_ms", T.selfMs("ir.verify"));
  J.num("ir.clone_ms", T.selfMs("ir.clone"));
  J.num("analysis.relax_ms", T.selfMs("analysis.relax"));
  J.num("analysis.relax_iterations", RelaxIterations);
  J.num("analysis.cfg_ms", T.selfMs("analysis.cfg"));
  J.num("analysis.loops_ms", T.selfMs("analysis.loops"));
  const double OptimizeMs = T.selfMs("pass.optimize");
  J.num("pass.optimize_ms", OptimizeMs);
  J.num("pass.overhead_ms", OptimizeMs - PassWallMs);
  J.num("pass.verify_ms", PassVerifyMs);
  for (size_t I = 0; I < PassNames.size(); ++I) {
    J.num("passes." + PassNames[I] + "_ms", PassMs[I]);
    J.num("passes." + PassNames[I] + "_xforms", PassXforms[I]);
  }
  J.num("x86.encode_hits", EncodeHits);
  J.num("x86.encode_misses", EncodeMisses);
  J.num("x86.encode_hit_ratio",
        EncodeHits + EncodeMisses > 0
            ? EncodeHits / (EncodeHits + EncodeMisses)
            : 0);
  J.num("sim.emulate_ms", T.selfMs("sim.emulate"));
  J.num("uarch.sim_ms", T.selfMs("uarch.sim"));
  J.num("uarch.decode_lines", DecodeLines);
  J.num("uarch.lsd_uops", LsdUops);
  J.num("uarch.mispredicts", Mispredicts);
  J.num("serve.cache_open_ms", T.selfMs("serve.cache_open"));
  J.num("serve.cache_lookup_ms", T.selfMs("serve.cache_lookup"));
  J.num("serve.cache_store_ms", T.selfMs("serve.cache_store"));
  J.num("trace.overhead_pct",
        UntracedMs > 0 ? 100.0 * (TracedMs - UntracedMs) / UntracedMs : 0);
  writeFile(Dir / "layers_trace.json", T.chromeJson());
  J.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

struct RequestRecord {
  bool Ok = false;
  bool Hit = false;
  bool Cold = false; ///< The source was new to the cache.
  double ConnectMs = 0;
  double TotalMs = 0;
};

/// One request on a fresh connection, as `mao --connect` sends it; timed
/// from connect to the last response byte. Retries like ClientOptions'
/// defaults (3 attempts, 50 ms doubling backoff).
MaoStatus timedRequest(const std::string &SocketPath,
                       const serve::ServeRequest &Req,
                       serve::ServeResponse &Resp, RequestRecord &Rec) {
  MaoStatus Last = MaoStatus::error("no attempt");
  for (unsigned Try = 0; Try < 3; ++Try) {
    if (Try)
      std::this_thread::sleep_for(std::chrono::milliseconds(50 << (Try - 1)));
    const Clock::time_point T0 = Clock::now();
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (SocketPath.size() >= sizeof(Addr.sun_path))
      return MaoStatus::error("socket path too long: " + SocketPath);
    std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
    const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Last = MaoStatus::error("socket failed");
      continue;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      Last = MaoStatus::error(std::string("connect: ") + std::strerror(errno));
      ::close(Fd);
      continue;
    }
    Rec.ConnectMs = msSince(T0);
    serve::Frame F;
    bool CleanEof = false;
    Last = serve::writeFrame(Fd, {serve::FrameKind::Request,
                                  serve::encodeRequest(Req)});
    if (Last.ok())
      Last = serve::readFrame(Fd, F, CleanEof);
    Rec.TotalMs = msSince(T0);
    ::close(Fd);
    if (!Last.ok())
      continue;
    if (CleanEof)
      Last = MaoStatus::error("daemon closed the connection before replying");
    else if (F.Kind == serve::FrameKind::Error)
      return MaoStatus::error("Error frame: " + F.Payload);
    else if (F.Kind != serve::FrameKind::Response)
      return MaoStatus::error("unexpected frame kind");
    else
      return serve::decodeResponse(F.Payload, Resp);
  }
  return Last;
}

int cmdServe(const std::string &SocketPath, const fs::path &Dir,
             const std::string &Pipeline, double Seconds, unsigned Clients,
             uint64_t Seed, uint64_t MaxRequests) {
  struct Source {
    std::string Name, Text, Reference;
    double Insts = 0;
  };
  std::vector<Source> Sources;
  for (const auto &[Name, Path] : manifestFiles(Dir)) {
    Source S{Name, readFile(Path), readFile(Dir / "ref" / (Name + ".s"))};
    ParseStats Stats;
    (void)parseAssembly(S.Text, &Stats, Name);
    S.Insts = static_cast<double>(Stats.Instructions);
    Sources.push_back(std::move(S));
  }

  std::mutex M;
  std::vector<RequestRecord> Records;
  std::atomic<uint64_t> Issued{0};
  uint64_t Failed = 0;
  double InstsServed = 0;
  const Clock::time_point Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));

  auto Client = [&](unsigned Id) {
    RandomSource Rng(Seed * 1000003 + Id + 1);
    for (uint64_t K = 0; Clock::now() < Deadline; ++K) {
      if (MaxRequests && Issued.fetch_add(1) >= MaxRequests)
        break;
      const Source &S = Sources[Rng.nextBelow(Sources.size())];
      serve::ServeRequest Req;
      Req.Name = S.Name + ".s";
      Req.Pipeline = Pipeline;
      Req.OnError = "abort";
      Req.Jobs = 1;
      RequestRecord Rec;
      // Every fourth request carries a source the cache has never seen:
      // the same program under a fresh comment line, so the reply must
      // still equal the stored reference.
      Rec.Cold = K % 4 == 3;
      Req.Source = S.Text;
      if (Rec.Cold)
        Req.Source += "# perfbench request seed=" + std::to_string(Seed) +
                      " client=" + std::to_string(Id) +
                      " n=" + std::to_string(K) + "\n";
      serve::ServeResponse Resp;
      std::string Why;
      try {
        if (MaoStatus St = timedRequest(SocketPath, Req, Resp, Rec))
          Why = St.message();
      } catch (const std::exception &E) {
        Why = std::string("client error: ") + E.what();
      }
      if (Why.empty() && Resp.Status != serve::ServeStatus::Ok)
        Why = "status " + std::to_string(static_cast<int>(Resp.Status)) +
              ": " + Resp.Diagnostic;
      if (Why.empty() && Resp.Output != S.Reference)
        Why = "output differs from the jobs=1 reference";
      Rec.Ok = Why.empty();
      Rec.Hit = Resp.CacheHit;
      std::lock_guard<std::mutex> Lock(M);
      if (!Rec.Ok) {
        ++Failed;
        std::fprintf(stderr,
                     "perfbench_tool: serve request failed: seed=%llu "
                     "input=%s cold=%d pipeline=%s: %s\n",
                     static_cast<unsigned long long>(Seed), S.Name.c_str(),
                     Rec.Cold ? 1 : 0, Pipeline.c_str(), Why.c_str());
      } else {
        InstsServed += S.Insts;
      }
      Records.push_back(Rec);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(Client, I);
  for (std::thread &Th : Threads)
    Th.join();
  const double ElapsedS = msSince(Start) / 1e3;

  // Per successful request; run.py computes the statistics.
  std::string TotalMs, ConnectMs, Cold, Hit;
  for (const RequestRecord &R : Records) {
    if (!R.Ok)
      continue;
    const char *Sep = TotalMs.empty() ? "" : ", ";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", Sep, R.TotalMs);
    TotalMs += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", Sep, R.ConnectMs);
    ConnectMs += Buf;
    Cold += std::string(Sep) + (R.Cold ? "1" : "0");
    Hit += std::string(Sep) + (R.Hit ? "1" : "0");
  }
  JsonOut J;
  J.num("attempted", static_cast<double>(Records.size()));
  J.num("failed", static_cast<double>(Failed));
  J.num("seconds", ElapsedS);
  J.num("insts_served", InstsServed);
  J.raw("total_ms", "[" + TotalMs + "]");
  J.raw("connect_ms", "[" + ConnectMs + "]");
  J.raw("cold", "[" + Cold + "]");
  J.raw("hit", "[" + Hit + "]");
  J.print();
  return 0;
}

int cmdShutdown(const std::string &SocketPath) {
  serve::ClientOptions Options;
  Options.SocketPath = SocketPath;
  if (MaoStatus S = serve::clientShutdown(Options))
    fail("shutdown: " + S.message());
  JsonOut J;
  J.raw("ok", "true");
  J.print();
  return 0;
}

int cmdInfo() {
  JsonOut J;
  J.str("build_type", PERFBENCH_BUILD_TYPE);
  J.str("compiler", __VERSION__);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  J.raw("sanitized", "true");
#else
  J.raw("sanitized", "false");
#endif
  J.print();
  return 0;
}

uint64_t toU64(const std::string &S) { return std::stoull(S); }

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> A(Argv + 1, Argv + Argc);
  try {
    if (A.size() == 1 && A[0] == "info")
      return cmdInfo();
    if (A.size() == 4 && A[0] == "gen")
      return cmdGen(A[1], toU64(A[2]), A[3]);
    if (A.size() == 3 && A[0] == "check")
      return cmdCheck(A[1], A[2]);
    if (A.size() == 5 && A[0] == "layers")
      return cmdLayers(A[1], A[2], static_cast<unsigned>(toU64(A[3])), A[4]);
    if (A.size() == 8 && A[0] == "serve")
      return cmdServe(A[1], A[2], A[3], std::stod(A[4]),
                      static_cast<unsigned>(toU64(A[5])), toU64(A[6]),
                      toU64(A[7]));
    if (A.size() == 2 && A[0] == "shutdown")
      return cmdShutdown(A[1]);
  } catch (const std::exception &E) {
    fail(E.what());
  }
  std::fprintf(stderr,
               "usage: perfbench_tool info | gen WORKLOAD SEED DIR | check IN "
               "OUT | layers DIR PIPELINE JOBS CACHE | serve SOCKET DIR PIPELINE "
               "SECONDS CLIENTS SEED MAX_REQUESTS | shutdown SOCKET\n");
  return 1;
}
