//===- examples/detect_latency.cpp - Fig. 6 as a library client ---------------===//
//
// The paper's Fig. 6 program, in this reproduction's C++ API instead of
// the original Python: build a CYCLE dependence chain with the
// InstructionSequence class, wrap it in a straight-line loop, execute it
// in isolation collecting CPU_CYCLES, and divide to get the latency.
//
// Usage: ./build/examples/detect_latency
//
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"

#include <cstdio>

using namespace mao;

/// Fig. 6, line for line: form a loop with a cycle of instructions, one
/// dependent on the other; execute the chain, collect CPU cycles, and
/// obtain the latency.
static unsigned instructionLatency(const DetectProcessor &Proc,
                                   const InstructionTemplate &Template) {
  RandomSource Rng(1);
  InstructionSequence Seq(Proc);
  Seq.setInstructionTemplate(Template);
  Seq.setDagType(DagType::Cycle);
  Seq.setLength(16);
  Seq.generate(Rng);

  LoopSpec Loop;
  Loop.Sequences.push_back(Seq);
  Loop.TripCount = 10000;

  DetectBenchmark Bench({Loop});
  auto Results = Bench.execute(Proc, {DetectProcessor::CpuCycles});
  if (!Results.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 Results.message().c_str());
    return 0;
  }
  const uint64_t InsnsInLoop = 16ull * Loop.TripCount;
  const double Latency =
      static_cast<double>((*Results)[DetectProcessor::CpuCycles]) /
      static_cast<double>(InsnsInLoop);
  return static_cast<unsigned>(Latency + 0.5);
}

int main() {
  DetectProcessor Core2(ProcessorConfig::core2());

  struct Row {
    const char *Name;
    InstructionTemplate Template;
  } Rows[] = {
      {"addl %s, %d", InstructionTemplate::add()},
      {"movl %s, %d", InstructionTemplate::mov()},
      {"xorl %s, %d", {"xorl %s, %d"}},
      {"imull $3, %s, %d", InstructionTemplate::imul()},
  };
  std::printf("instruction latencies on the core2 model (Fig. 6 method):\n");
  for (const Row &R : Rows)
    std::printf("  %-18s %u cycle(s)\n", R.Name,
                instructionLatency(Core2, R.Template));

  // The framework generalizes beyond latency: recover structural
  // parameters the same way (Sec. IV's "automatic discovery" ambition).
  std::printf("\nstructural parameters, discovered black-box:\n");
  auto Line = detectDecodeLineBytes(Core2);
  auto Lsd = detectLsdMaxLines(Core2);
  auto Shift = detectPredictorIndexShift(Core2);
  if (Line.ok())
    std::printf("  decode line size:       %u bytes\n", *Line);
  if (Lsd.ok())
    std::printf("  LSD capacity:           %u decode lines\n", *Lsd);
  if (Shift.ok())
    std::printf("  predictor index:        PC >> %u\n", *Shift);
  return 0;
}
