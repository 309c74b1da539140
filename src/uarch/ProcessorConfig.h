//===- uarch/ProcessorConfig.h - Modelled machine parameters ----*- C++ -*-===//
///
/// \file
/// Parameter set for the micro-architectural simulator. The defaults encode
/// the mechanisms the paper names as root causes of its performance cliffs:
///
///  - 16-byte instruction decode lines (Sec. III-C: "The x86/64 Core-2
///    decodes instructions in 16-byte chunks")
///  - the Loop Stream Detector: loops spanning at most four 16-byte decode
///    lines, executing at least 64 iterations, containing only certain
///    branch kinds, stream from the LSD and bypass fetch/decode
///  - branch-predictor structures indexed by PC >> 5, giving aliasing
///    between branches in the same 32-byte bucket
///  - asymmetric execution ports (lea only on port 0; shifts on 0 and 5)
///  - a result-forwarding bandwidth limit, visible as
///    RESOURCE_STALLS:RS_FULL (Sec. III-F)
///
/// Two calibrations are provided: a Core-2-like machine and an Opteron-like
/// machine (no LSD, different predictor indexing, symmetric ports, lower
/// decode bandwidth) so the LOOP16 experiments can reproduce the paper's
/// different winners per platform.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_UARCH_PROCESSORCONFIG_H
#define MAO_UARCH_PROCESSORCONFIG_H

#include <cstdint>
#include <optional>
#include <string>

namespace mao {

struct ProcessorConfig {
  std::string Name = "generic";

  /// Cache replacement policies the instruction side can be configured
  /// with. The data side stays true LRU (its non-temporal-fill contract
  /// depends on exact recency order); real L1I arrays are usually tree
  /// pseudo-LRU, which the model reproduces for power-of-two way counts.
  enum class Repl : uint8_t { Lru, PseudoLru };

  // Front end.
  unsigned DecodeLineBytes = 16; ///< Fetch/decode window granularity.
  unsigned MaxDecodePerLine = 4; ///< Instructions decoded per line-cycle.
  /// Decode slots a memory-reading instruction occupies. The Opteron
  /// model uses 2: the paper measured large, unexplained REDMOV/REDTEST
  /// wins on AMD ("we suspect another second order effect takes hold");
  /// a decode path that is more expensive for load-ops is our concrete
  /// stand-in for that unknown effect.
  unsigned DecodeCostPerLoad = 1;

  // Loop Stream Detector.
  bool HasLsd = true;
  unsigned LsdMaxLines = 4;      ///< Max 16-byte lines a streamed loop spans.
  unsigned LsdMinIterations = 64;
  unsigned LsdUopsPerCycle = 4;  ///< Delivery bandwidth while streaming.

  // Branch prediction.
  unsigned BtbIndexShift = 5;    ///< Predictor index = (PC >> shift) & mask.
  unsigned BtbEntries = 512;
  unsigned MispredictPenalty = 15;

  // Out-of-order back end.
  unsigned RsEntries = 32;          ///< Reservation-station window.
  unsigned RetireWidth = 4;
  /// Consumers one producer can forward to in the result's first cycle
  /// (the Sec. III-F RESOURCE_STALLS:RS_FULL mechanism).
  unsigned ForwardingBandwidth = 2;
  bool AsymmetricPorts = true;      ///< Honour per-opcode port masks.
  unsigned NumPorts = 6;            ///< Execution ports (<= 8).

  // Memory hierarchy.
  unsigned L1LoadLatency = 3;
  unsigned L1Sets = 64, L1Ways = 8, LineBytes = 64; ///< 32 KiB L1D.
  unsigned L2Latency = 14;
  unsigned L2Sets = 4096, L2Ways = 16;              ///< 4 MiB L2 (I+D shared).
  unsigned MemLatency = 160;

  // Instruction-side hierarchy. The L1I shares LineBytes with the data
  // side and competes with it for the same L2 arrays.
  unsigned L1ISets = 64, L1IWays = 8;  ///< 32 KiB L1I.
  Repl L1IRepl = Repl::PseudoLru;      ///< Core-2 L1I is tree pseudo-LRU.
  unsigned ItlbEntries = 16;           ///< Fully associative, LRU.
  unsigned ItlbPageBytes = 4096;
  unsigned ItlbMissPenalty = 20;       ///< Page-walk cycles added to fetch.

  /// Intel Core-2-like machine (the paper's primary platform).
  static ProcessorConfig core2() {
    ProcessorConfig C;
    C.Name = "core2";
    return C;
  }

  /// AMD Opteron-like machine: no LSD, pickier 16-byte-aligned fetch with
  /// lower per-line decode bandwidth (making loops decode-bound sooner, the
  /// suspected source of the large REDMOV/REDTEST wins on 454.calculix),
  /// different predictor indexing, symmetric integer ports.
  static ProcessorConfig opteron() {
    ProcessorConfig C;
    C.Name = "opteron";
    C.HasLsd = false;
    C.MaxDecodePerLine = 3;
    C.DecodeCostPerLoad = 2;
    C.BtbIndexShift = 4;
    C.BtbEntries = 2048;
    C.MispredictPenalty = 12;
    C.AsymmetricPorts = false;
    C.NumPorts = 3; // Three symmetric integer pipes.
    C.ForwardingBandwidth = 3;
    C.L1Sets = 512;
    C.L1Ways = 2; // 64 KiB, 2-way: the K8 L1.
    C.L2Latency = 20;
    C.L1ISets = 512;
    C.L1IWays = 2; // 64 KiB, 2-way L1I, true LRU.
    C.L1IRepl = Repl::Lru;
    C.ItlbEntries = 32;
    C.ItlbMissPenalty = 25;
    return C;
  }

  /// The model a user selects by name ("core2" or "opteron"), or none.
  static std::optional<ProcessorConfig> byName(const std::string &Name) {
    if (Name == "core2")
      return core2();
    if (Name == "opteron")
      return opteron();
    return std::nullopt;
  }

  /// Pentium-4-like machine for the Nopinizer anecdotes: long pipeline,
  /// trace-cache-less model with a high mispredict penalty.
  static ProcessorConfig pentium4() {
    ProcessorConfig C;
    C.Name = "pentium4";
    C.HasLsd = false;
    C.MispredictPenalty = 24;
    C.MaxDecodePerLine = 3;
    C.BtbIndexShift = 6;
    return C;
  }
};

} // namespace mao

#endif // MAO_UARCH_PROCESSORCONFIG_H
