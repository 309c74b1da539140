//===- passes/SchedPass.cpp - Basic-block list scheduling ---------------------===//
///
/// \file
/// The scheduling pass of paper Sec. III-F: "a framework for list-scheduling
/// at the assembly instruction level. By changing the cost functions
/// associated with the instructions, different scheduling heuristics can be
/// implemented. The current cost function ensures that, when scheduling
/// successors of an instruction with multiple fan-outs, the instructions on
/// the critical path are given a higher priority."
///
/// The pass emits a list schedule of each basic block ordered by
/// critical-path distance-to-exit over register, flag and conservative
/// memory dependences (MAO has no alias analysis). SchedDag.h computes the
/// priorities in one backward walk and the schedule as a counting sort,
/// with no dependence graph. The motivating
/// hashing microbenchmark showed a 21% spread between schedules of
/// independent consumers of one xorl, traced to forwarding-bandwidth limits
/// visible as RESOURCE_STALLS:RS_FULL.
///
//===----------------------------------------------------------------------===//

#include "pass/MaoPass.h"
#include "passes/PassUtil.h"
#include "passes/SchedDag.h"
#include "support/Stats.h"

#include <algorithm>
#include <span>
#include <utility>

using namespace mao;

namespace {

/// SCHED's StatsRegistry counters, resolved once.
struct SchedCounters {
  StatCounter &Blocks; ///< Blocks scheduled (not skipped as small/opaque).
  StatCounter &Moved;  ///< Instructions whose slot changed.

  static SchedCounters &get() {
    static SchedCounters Counters{
        StatsRegistry::instance().counter("sched.blocks"),
        StatsRegistry::instance().counter("sched.moved")};
    return Counters;
  }
};

class ListSchedulePass : public MaoFunctionPass {
public:
  ListSchedulePass(const MaoOptionMap *Options, MaoUnit *Unit, MaoFunction *Fn)
      : MaoFunctionPass("SCHED", Options, Unit, Fn) {}

  bool go() override {
    // window=N restricts reordering to chunks of N consecutive
    // instructions (0 = whole block). Small windows trade schedule quality
    // for locality; the tuner searches over this knob because the best
    // setting is workload-dependent (a tight window can avoid pulling a
    // long-latency op in front of a loop-carried chain).
    long Window = options().getInt("window", 0);
    if (Window < 0)
      Window = 0;
    const LivenessResult &Liveness = keptLiveness(function());
    unsigned Blocks = 0;
    for (const BasicBlock &BB : keptCFG(function()).blocks()) {
      if (BB.Insns.size() < 3)
        continue;
      if (containsOpaque(BB))
        continue;
      ++Blocks;
      const bool FlagsLiveOut =
          (Liveness.FlagsLiveOut[BB.Index] & FlagsAllStatus) != 0;
      const std::span<const EntryIter> Insns = BB.Insns;
      if (Window == 0 || static_cast<size_t>(Window) >= Insns.size()) {
        scheduleRange(Insns, FlagsLiveOut);
        continue;
      }
      // Chunked scheduling: each window is an independent sub-schedule.
      // Non-final chunks treat flags as live-out (a later chunk may read
      // them), which is conservative and keeps every chunk sound.
      for (size_t Begin = 0; Begin < Insns.size();
           Begin += static_cast<size_t>(Window)) {
        const size_t Len =
            std::min(static_cast<size_t>(Window), Insns.size() - Begin);
        scheduleRange(Insns.subspan(Begin, Len),
                      Begin + Len == Insns.size() ? FlagsLiveOut : true);
      }
    }
    SchedCounters &Counters = SchedCounters::get();
    Counters.Blocks.add(Blocks);
    Counters.Moved.add(transformationCount());
    trace(1, "func %s: moved %u instructions", function().name().c_str(),
          transformationCount());
    return true;
  }

private:
  // Reads go through a const view of each entry, which keeps its length
  // memo; the non-const instruction() would drop it.
  static bool containsOpaque(const BasicBlock &BB) {
    for (EntryIter It : BB.Insns)
      if (std::as_const(*It).instruction().isOpaque())
        return true;
    return false;
  }

  void scheduleRange(std::span<const EntryIter> Insns, bool FlagsLiveOut) {
    const size_t N = Insns.size();
    Nodes.resize(N);
    for (size_t I = 0; I < N; ++I) {
      const Instruction &Insn = std::as_const(*Insns[I]).instruction();
      Nodes[I].Fx = Insns[I]->effects();
      Nodes[I].Latency = Insn.info().Latency;
      Nodes[I].Terminator = Insn.isBranch() || Insn.isReturn();
    }
    const std::vector<unsigned> &Order =
        Scheduler.schedule(Nodes, FlagsLiveOut);

    // Apply the permutation one cycle at a time, moving each payload with
    // its memos into its new slot; slots that keep their payload are not
    // written. Entries, and thus their IDs and list positions, stay put.
    // Terminators keep their slots, so the block's control flow does too,
    // and a schedule keeps every dependence, so the block's live-in and
    // live-out stay: the kept analyses remain valid and no edit is noted
    // (verifyKeptAnalyses checks this under --mao-verify).
    unsigned Moved = 0;
    Done.assign(N, false);
    for (size_t Start = 0; Start < N; ++Start) {
      if (Done[Start] || Order[Start] == Start)
        continue;
      MaoEntry Held = std::move(*Insns[Start]);
      size_t Slot = Start;
      for (size_t From = Order[Slot]; From != Start; From = Order[Slot]) {
        Insns[Slot]->takeInstruction(*Insns[From]);
        Done[Slot] = true;
        ++Moved;
        Slot = From;
      }
      Insns[Slot]->takeInstruction(Held);
      Done[Slot] = true;
      ++Moved;
    }
    countTransformation(Moved);
  }

  ListScheduler Scheduler;
  // Per-region storage, reused across the function's regions.
  std::vector<SchedNode> Nodes;
  std::vector<bool> Done;
};

REGISTER_SHARDED_FUNC_PASS("SCHED", ListSchedulePass)

} // namespace

namespace mao {
void linkSchedPass() {}
} // namespace mao
