//===- detect/Detect.cpp - Micro-architectural parameter detection ------------==//

#include "detect/Detect.h"

#include "asm/Parser.h"
#include "uarch/Runner.h"

#include <cassert>
#include <cmath>

using namespace mao;

DetectProcessor::DetectProcessor(ProcessorConfig Config)
    : Config(std::move(Config)) {
  // %ecx is the loop counter; %r13-%r15 are reserved by convention.
  IntRegs = {"eax", "ebx", "edx",  "esi",  "edi",
             "r8d", "r9d", "r10d", "r11d", "r12d"};
}

namespace {

/// Substitutes %s/%d placeholders in a template pattern.
std::string instantiate(const std::string &Pattern, const std::string &Src,
                        const std::string &Dst) {
  std::string Out;
  for (size_t I = 0; I < Pattern.size(); ++I) {
    if (Pattern[I] == '%' && I + 1 < Pattern.size() &&
        (Pattern[I + 1] == 's' || Pattern[I + 1] == 'd')) {
      Out += '%';
      Out += Pattern[I + 1] == 's' ? Src : Dst;
      ++I;
      continue;
    }
    Out += Pattern[I];
  }
  return Out;
}

/// Assembles and runs a bench_main-shaped program on the uarch model.
ErrorOr<PmuCounters> runDetectAssembly(const DetectProcessor &Proc,
                                       const std::string &Body) {
  std::string Asm;
  Asm += "\t.text\n";
  Asm += "\t.globl bench_main\n";
  Asm += "\t.type bench_main, @function\n";
  Asm += "bench_main:\n";
  Asm += "\tpushq %rbp\n";
  Asm += "\tmovq %rsp, %rbp\n";
  for (const std::string &R : Proc.intRegisters())
    Asm += "\tmovl $1, %" + R + "\n";
  Asm += Body;
  Asm += "\tmovl $0, %eax\n";
  Asm += "\tleave\n";
  Asm += "\tret\n";
  Asm += "\t.size bench_main, .-bench_main\n";

  auto UnitOr = parseAssembly(Asm);
  if (!UnitOr.ok())
    return MaoStatus::error("generated microbenchmark failed to parse: " +
                            UnitOr.message());
  MeasureOptions Options;
  Options.Config = Proc.config();
  auto Result = measureFunction(*UnitOr, "bench_main", Options);
  if (!Result.ok())
    return MaoStatus::error(Result.message());
  return Result->Pmu;
}

/// Wraps sequence bodies in counted loops (the Benchmark class backend).
std::string loopBody(const LoopSpec &Loop, unsigned Index) {
  std::string Body;
  std::string Head = ".LDETECT" + std::to_string(Index);
  Body += "\tmovl $" + std::to_string(Loop.TripCount) + ", %ecx\n";
  Body += "\t.p2align 4\n";
  Body += Head + ":\n";
  for (const InstructionSequence &Seq : Loop.Sequences)
    for (const std::string &Insn : Seq.instructions())
      Body += "\t" + Insn + "\n";
  Body += "\tsubl $1, %ecx\n";
  Body += "\tjne " + Head + "\n";
  return Body;
}

} // namespace

void InstructionSequence::generate(RandomSource &Rng) {
  Insns.clear();
  const std::vector<std::string> &Regs = Proc.intRegisters();
  const size_t N = Regs.size();
  switch (Dag) {
  case DagType::Cycle:
    // Fully serialized ring: one register carries the whole dependence
    // cycle (each instruction reads and writes it).
    {
      const std::string &R = Regs[Rng.nextBelow(N)];
      for (unsigned I = 0; I < Length; ++I)
        Insns.push_back(instantiate(Template.Pattern, R, R));
    }
    return;
  case DagType::Chain: {
    // dest_i becomes src_{i+1}: a RAW chain through rotating registers.
    size_t Start = Rng.nextBelow(N);
    for (unsigned I = 0; I < Length; ++I)
      Insns.push_back(instantiate(Template.Pattern,
                                  Regs[(Start + I) % N],
                                  Regs[(Start + I + 1) % N]));
    return;
  }
  case DagType::Disjoint:
    for (unsigned I = 0; I < Length; ++I) {
      const std::string &R = Regs[I % N];
      Insns.push_back(instantiate(Template.Pattern, R, R));
    }
    return;
  case DagType::Random:
    for (unsigned I = 0; I < Length; ++I)
      Insns.push_back(instantiate(Template.Pattern, Regs[Rng.nextBelow(N)],
                                  Regs[Rng.nextBelow(N)]));
    return;
  }
  assert(false && "covered switch");
}

ErrorOr<std::map<std::string, uint64_t>>
DetectBenchmark::execute(const DetectProcessor &Proc,
                         const std::vector<std::string> &Events) {
  std::string Body;
  for (size_t I = 0; I < Loops.size(); ++I)
    Body += loopBody(Loops[I], static_cast<unsigned>(I));

  auto PmuOr = runDetectAssembly(Proc, Body);
  if (!PmuOr.ok())
    return MaoStatus::error(PmuOr.message());
  const PmuCounters &Pmu = *PmuOr;

  std::map<std::string, uint64_t> Out;
  for (const std::string &Event : Events) {
    if (Event == DetectProcessor::CpuCycles)
      Out[Event] = Pmu.CpuCycles;
    else if (Event == DetectProcessor::Instructions)
      Out[Event] = Pmu.InstRetired;
    else if (Event == DetectProcessor::LsdUops)
      Out[Event] = Pmu.LsdUops;
    else if (Event == DetectProcessor::BrMispredicted)
      Out[Event] = Pmu.BrMispredicted;
    else if (Event == DetectProcessor::RsFullStalls)
      Out[Event] = Pmu.RsFullStalls;
    else if (Event == DetectProcessor::DecodeLines)
      Out[Event] = Pmu.DecodeLines;
    else if (Event == DetectProcessor::L1IMisses)
      Out[Event] = Pmu.L1IMisses;
    else if (Event == DetectProcessor::ItlbMisses)
      Out[Event] = Pmu.ItlbMisses;
    else
      return MaoStatus::error("unknown PMU event: " + Event);
  }
  return Out;
}

// --- Case studies -------------------------------------------------------------

ErrorOr<unsigned>
mao::detectInstructionLatency(const DetectProcessor &Proc,
                              const InstructionTemplate &T) {
  // The paper's Fig. 6 verbatim: a CYCLE chain in a straight-line loop;
  // serialized execution makes cycles / chain-instructions the latency.
  RandomSource Rng(42);
  InstructionSequence Seq(Proc);
  Seq.setInstructionTemplate(T);
  Seq.setDagType(DagType::Cycle);
  Seq.setLength(16);
  Seq.generate(Rng);

  LoopSpec Loop;
  Loop.Sequences.push_back(Seq);
  Loop.TripCount = 10000;
  const uint64_t ChainInsns =
      static_cast<uint64_t>(16) * Loop.TripCount;

  DetectBenchmark Bench({Loop});
  auto Results = Bench.execute(Proc, {DetectProcessor::CpuCycles});
  if (!Results.ok())
    return MaoStatus::error(Results.message());
  const double Cycles =
      static_cast<double>((*Results)[DetectProcessor::CpuCycles]);
  return static_cast<unsigned>(
      std::lround(Cycles / static_cast<double>(ChainInsns)));
}

ErrorOr<unsigned> mao::detectDecodeLineBytes(const DetectProcessor &Proc) {
  // Two aligned loops whose bodies differ by 32 bytes of 8-byte NOPs: the
  // front-end cycle difference per iteration is 32 / line-size. Eight-byte
  // NOPs keep the per-line instruction count below any plausible decode
  // width, so the slope isolates the line granularity.
  auto MeasureBody = [&](unsigned BodyNops) -> ErrorOr<uint64_t> {
    std::string Body;
    Body += "\tmovl $20000, %ecx\n";
    Body += "\t.p2align 6\n";
    Body += ".LDL:\n";
    for (unsigned I = 0; I < BodyNops; ++I)
      Body += "\tnop8\n";
    Body += "\tsubl $1, %ecx\n";
    Body += "\tjne .LDL\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    return Pmu->CpuCycles;
  };
  // Both sizes exceed any plausible loop-buffer capacity, so a potential
  // LSD cannot stream one loop but not the other and skew the slope.
  auto Small = MeasureBody(10); // 80 bytes
  auto Large = MeasureBody(14); // 112 bytes
  if (!Small.ok())
    return MaoStatus::error(Small.message());
  if (!Large.ok())
    return MaoStatus::error(Large.message());
  const double DeltaPerIter =
      (static_cast<double>(*Large) - static_cast<double>(*Small)) / 20000.0;
  if (DeltaPerIter <= 0)
    return MaoStatus::error("no decode-line slope detected");
  return static_cast<unsigned>(std::lround(32.0 / DeltaPerIter));
}

ErrorOr<unsigned> mao::detectLsdMaxLines(const DetectProcessor &Proc) {
  // Sweep aligned loop sizes; the largest size that still streams from
  // the LSD (LSD_UOPS > 0 after enough iterations) reveals its capacity.
  unsigned MaxLines = 0;
  for (unsigned Lines = 1; Lines <= 8; ++Lines) {
    std::string Body;
    Body += "\tmovl $500, %ecx\n";
    Body += "\t.p2align 4\n";
    Body += ".LLSD:\n";
    for (unsigned I = 0; I < Lines * 2 - 1; ++I)
      Body += "\tnop8\n"; // 16*Lines - 8 bytes of nops...
    Body += "\tnop3\n";   // ...+ 3 + sub(3) + jne(2) = 16*Lines total.
    Body += "\tsubl $1, %ecx\n";
    Body += "\tjne .LLSD\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    if (Pmu->LsdUops > 0)
      MaxLines = Lines;
  }
  return MaxLines;
}

ErrorOr<unsigned>
mao::detectPredictorIndexShift(const DetectProcessor &Proc) {
  // A taken-biased loop back branch at a fixed small offset from a highly
  // aligned anchor, then a never-taken branch G bytes later. While both
  // live in the same predictor bucket, the never-taken branch mispredicts
  // on every outer iteration; the smallest G that stops the aliasing
  // locates the bucket boundary. (Sec. IV: "crafting microbenchmarks ...
  // and interpreting the results to infer specific parameters".)
  //
  // Layout after the anchor: movl(5) .LPI[addl(3) subl(3) jne(2)@11]
  // <G pad> cmpl(3)@13+G, never-je@16+G.
  unsigned FirstQuiet = 0;
  for (unsigned G = 1; G <= 512; G = G < 16 ? G + 1 : G * 2) {
    std::string Body;
    Body += "\txorl %esi, %esi\n";
    Body += "\tmovl $300, %r15d\n";
    Body += "\t.p2align 10\n";
    Body += ".LPO:\n";
    Body += "\tmovl $8, %ecx\n";
    Body += ".LPI:\n";
    Body += "\taddl $1, %eax\n";
    Body += "\tsubl $1, %ecx\n";
    Body += "\tjne .LPI\n";
    unsigned Pad = G;
    while (Pad > 0) {
      unsigned Chunk = Pad > 15 ? 15 : Pad;
      Body += "\tnop" + std::to_string(Chunk) + "\n";
      Pad -= Chunk;
    }
    Body += "\tcmpl $1, %esi\n"; // esi == 0: never equal
    Body += "\tje .LPNEVER\n";
    Body += "\tnop15\n\tnop15\n\tnop15\n\tnop15\n"; // isolate outer branch
    Body += "\tsubl $1, %r15d\n";
    Body += "\tjne .LPO\n";
    Body += "\tjmp .LPDONE\n";
    Body += ".LPNEVER:\n";
    Body += "\taddl $1, %ebx\n";
    Body += ".LPDONE:\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    // Baseline mispredicts: inner-loop exits (~300). Aliasing adds ~300+.
    if (Pmu->BrMispredicted < 450) {
      FirstQuiet = G;
      break;
    }
  }
  if (FirstQuiet == 0)
    return MaoStatus::error("aliasing never stopped; predictor too small");
  // The never-taken branch sits at offset 16 + G; the first quiet G puts
  // it exactly at (or just past) the next bucket boundary.
  const double Bucket = 16.0 + FirstQuiet;
  return static_cast<unsigned>(std::lround(std::log2(Bucket)));
}

ErrorOr<unsigned>
mao::detectForwardingBandwidth(const DetectProcessor &Proc) {
  // A loop-carried chain producer -> probe, with K-1 extra independent
  // consumers of the producer issued *before* the probe. The probe is the
  // K-th consumer: once K exceeds the forwarding bandwidth, the probe's
  // read slips a cycle and the measured chain length per iteration grows —
  // exactly how the paper's hand-modified schedules exposed the effect
  // (Sec. III-F).
  const unsigned Trip = 5000;
  uint64_t PrevCycles = 0;
  for (unsigned K = 1; K <= 6; ++K) {
    std::string Body;
    Body += "\tmovl $" + std::to_string(Trip) + ", %ecx\n";
    Body += "\t.p2align 4\n";
    Body += ".LFB:\n";
    Body += "\taddl %r12d, %ebx\n"; // producer (depends on the probe)
    static const char *Extras[] = {"eax", "edx", "esi", "r8d", "r9d"};
    for (unsigned C = 0; C + 1 < K; ++C)
      Body += std::string("\tmovl %ebx, %") + Extras[C] + "\n";
    Body += "\tmovl %ebx, %r12d\n"; // probe: closes the carried chain
    Body += "\tsubl $1, %ecx\n";
    Body += "\tjne .LFB\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    if (K > 1 && Pmu->CpuCycles >= PrevCycles + Trip / 2)
      return K - 1; // The probe started slipping at this fan-out.
    PrevCycles = Pmu->CpuCycles;
  }
  return 6u; // Wider than the experiment can distinguish.
}

ErrorOr<unsigned> mao::detectICacheLineBytes(const DetectProcessor &Proc) {
  // A cold straight-line sled of 8-byte NOPs misses the L1I exactly once
  // per line it spans; two sleds differing by a known byte count make the
  // slope delta-bytes / delta-misses the line size, with the benchmark
  // scaffolding's own (constant) cold misses cancelling in the delta.
  // Eight-byte NOPs divide any power-of-two line size, so no sled
  // instruction straddles a boundary and the division is exact.
  auto MeasureSled = [&](unsigned Nops) -> ErrorOr<uint64_t> {
    std::string Body;
    Body += "\t.p2align 6\n";
    for (unsigned I = 0; I < Nops; ++I)
      Body += "\tnop8\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    return Pmu->L1IMisses;
  };
  auto Small = MeasureSled(128); // 1024 bytes
  auto Large = MeasureSled(384); // 3072 bytes
  if (!Small.ok())
    return MaoStatus::error(Small.message());
  if (!Large.ok())
    return MaoStatus::error(Large.message());
  if (*Large <= *Small)
    return MaoStatus::error("no I-cache miss slope detected");
  return static_cast<unsigned>(2048 / (*Large - *Small));
}

ErrorOr<unsigned> mao::detectItlbReach(const DetectProcessor &Proc) {
  // A loop chaining jumps through K page-aligned stubs touches K + 1
  // distinct code pages per iteration (the loop head's page plus one per
  // stub, the last stub sharing its page with the loop tail). A
  // fully-associative LRU ITLB is quiet once warm while K + 1 fits, and
  // degrades to a page walk on every access as soon as it does not — the
  // classic cyclic-access LRU cliff. The first thrashing K equals the
  // entry count; reach is entries times the (assumed 4 KiB) page size.
  const unsigned Trip = 200;
  for (unsigned K = 2; K <= 48; ++K) {
    std::string Body;
    Body += "\tmovl $" + std::to_string(Trip) + ", %ecx\n";
    Body += ".LITL:\n";
    Body += "\tjmp .LITP0\n";
    for (unsigned I = 0; I < K; ++I) {
      Body += "\t.p2align 12\n";
      Body += ".LITP" + std::to_string(I) + ":\n";
      Body += I + 1 < K ? "\tjmp .LITP" + std::to_string(I + 1) + "\n"
                        : "\tjmp .LITTAIL\n";
    }
    Body += ".LITTAIL:\n";
    Body += "\tsubl $1, %ecx\n";
    Body += "\tjne .LITL\n";
    auto Pmu = runDetectAssembly(Proc, Body);
    if (!Pmu.ok())
      return MaoStatus::error(Pmu.message());
    // Quiet runs pay only the cold walk per page; thrashing runs pay one
    // per page per iteration.
    if (Pmu->ItlbMisses > Trip)
      return K * 4096;
  }
  return MaoStatus::error("ITLB never thrashed; reach beyond the sweep");
}
