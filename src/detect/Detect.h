//===- detect/Detect.h - Micro-architectural parameter detection -*- C++ -*-===//
///
/// \file
/// The paper's Sec. IV framework "to simplify the creation and execution of
/// microbenchmarks", built from the same five abstractions the paper
/// implements as Python classes — Processor, Instruction(Template),
/// InstructionSequence, Loop, Benchmark — plus the case studies it
/// motivates. Where the paper runs generated assembly "on a host with the
/// specified target processor in isolation" and reads PMU counters, this
/// reproduction assembles through the MAO pipeline and executes on the
/// micro-architectural simulator; the detection logic itself is black-box
/// and recovers the machine's parameters purely from counter measurements.
///
/// Case studies:
///  - instruction latency via a CYCLE dependence chain (the paper's Fig. 6)
///  - decode-line size, LSD capacity, branch-predictor index shift, and
///    forwarding bandwidth (the cliffs behind Sec. III's passes)
///
//===----------------------------------------------------------------------===//

#ifndef MAO_DETECT_DETECT_H
#define MAO_DETECT_DETECT_H

#include "support/Random.h"
#include "support/Status.h"
#include "uarch/ProcessorConfig.h"
#include "uarch/UarchSim.h"
#include "x86/Registers.h"

#include <map>
#include <string>
#include <vector>

namespace mao {

/// The target machine abstraction: registers usable by generated code and
/// the measurement backend ("execute in isolation, collect PMU counters").
class DetectProcessor {
public:
  explicit DetectProcessor(ProcessorConfig Config);

  const ProcessorConfig &config() const { return Config; }
  const std::vector<std::string> &intRegisters() const { return IntRegs; }

  /// Supported PMU event names.
  static constexpr const char *CpuCycles = "CPU_CYCLES";
  static constexpr const char *Instructions = "INST_RETIRED";
  static constexpr const char *LsdUops = "LSD_UOPS";
  static constexpr const char *BrMispredicted = "BR_MISP";
  static constexpr const char *RsFullStalls = "RESOURCE_STALLS:RS_FULL";
  static constexpr const char *DecodeLines = "DECODE_LINES";
  static constexpr const char *L1IMisses = "L1I_MISS";
  static constexpr const char *ItlbMisses = "ITLB_MISS";

private:
  ProcessorConfig Config;
  std::vector<std::string> IntRegs;
};

/// Dependence-graph shapes for generated sequences (paper Sec. IV-c).
enum class DagType {
  Chain,    ///< Each instruction RAW-depends on the previous one.
  Cycle,    ///< A Chain whose first instruction depends on the last.
  Random,   ///< Arbitrary dependencies between instructions.
  Disjoint, ///< Each instruction independent of all others.
};

/// An instruction template such as "addl %s, %d" or "imull $3, %s, %d":
/// %s is substituted with a source register, %d with a destination.
struct InstructionTemplate {
  std::string Pattern;

  static InstructionTemplate add() { return {"addl %s, %d"}; }
  static InstructionTemplate imul() { return {"imull $3, %s, %d"}; }
  static InstructionTemplate mov() { return {"movl %s, %d"}; }
};

/// An acyclic sequence of instructions generated from a candidate template
/// under dependence constraints (paper Sec. IV-c).
class InstructionSequence {
public:
  explicit InstructionSequence(const DetectProcessor &Proc) : Proc(Proc) {}

  void setInstructionTemplate(InstructionTemplate T) { Template = std::move(T); }
  void setDagType(DagType T) { Dag = T; }
  void setLength(unsigned N) { Length = N; }

  /// Generates a random sequence satisfying the constraints.
  void generate(RandomSource &Rng);

  const std::vector<std::string> &instructions() const { return Insns; }

private:
  const DetectProcessor &Proc;
  InstructionTemplate Template = InstructionTemplate::add();
  DagType Dag = DagType::Chain;
  unsigned Length = 8;
  std::vector<std::string> Insns;
};

/// A straight-line loop wrapping instruction sequences with a trip count
/// (paper Sec. IV-d).
struct LoopSpec {
  std::vector<InstructionSequence> Sequences;
  unsigned TripCount = 10000;
};

/// Constructs the assembly program, assembles it, "executes" it in
/// isolation on the target, and collects the requested counters
/// (paper Sec. IV-e).
class DetectBenchmark {
public:
  explicit DetectBenchmark(std::vector<LoopSpec> Loops)
      : Loops(std::move(Loops)) {}

  /// Runs on \p Proc; returns event name -> value, or an error when the
  /// generated program fails to assemble or execute.
  ErrorOr<std::map<std::string, uint64_t>>
  execute(const DetectProcessor &Proc, const std::vector<std::string> &Events);

private:
  std::vector<LoopSpec> Loops;
};

// --- Case studies -----------------------------------------------------------

/// Fig. 6: measures an instruction's latency by timing a CYCLE chain.
ErrorOr<unsigned> detectInstructionLatency(const DetectProcessor &Proc,
                                           const InstructionTemplate &T);

/// Discovers the decode-line size by sweeping loop-body sizes and watching
/// the front-end cycle slope.
ErrorOr<unsigned> detectDecodeLineBytes(const DetectProcessor &Proc);

/// Discovers the LSD capacity in decode lines (0 when the machine has no
/// LSD): the smallest aligned loop size at which streaming stops.
ErrorOr<unsigned> detectLsdMaxLines(const DetectProcessor &Proc);

/// Discovers the branch-predictor index shift by moving a never-taken
/// branch away from a taken-biased one until the mispredicts stop.
ErrorOr<unsigned> detectPredictorIndexShift(const DetectProcessor &Proc);

/// Discovers the forwarding bandwidth: consumers of one producer until
/// RESOURCE_STALLS:RS_FULL events appear.
ErrorOr<unsigned> detectForwardingBandwidth(const DetectProcessor &Proc);

/// Discovers the I-cache line size: two cold straight-line NOP sleds
/// differing by a known byte count miss once per line, so the slope
/// delta-bytes / delta-L1I-misses is the line granularity.
ErrorOr<unsigned> detectICacheLineBytes(const DetectProcessor &Proc);

/// Discovers the ITLB reach in bytes (assuming 4 KiB pages): a loop
/// chaining jumps through K page-aligned stubs runs ITLB-quiet until the
/// touched pages exceed the ITLB's entry count, at which point the LRU
/// array thrashes and every iteration page-walks.
ErrorOr<unsigned> detectItlbReach(const DetectProcessor &Proc);

} // namespace mao

#endif // MAO_DETECT_DETECT_H
