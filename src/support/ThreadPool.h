//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
///
/// \file
/// A small fixed-size worker pool for the sharded pass pipeline. The pool
/// model is deliberately minimal: one parallelFor() primitive that runs a
/// callable over an index range, with the calling thread participating as
/// one of the workers. A pool constructed with one worker therefore spawns
/// no threads at all and degenerates to a plain loop — which is what lets
/// the pipeline run the *same* sharded code path for --mao-jobs=1 and
/// --mao-jobs=N and guarantee identical results (see DESIGN.md, "Sharded
/// pass pipeline").
///
/// Work items are claimed from an atomic counter, so the *assignment* of
/// indices to threads is scheduling-dependent; callers that need
/// determinism must make each index's work independent of which thread
/// runs it (the pass runner does: results are buffered per index and
/// merged in index order).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_THREADPOOL_H
#define MAO_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mao {

class ThreadPool {
public:
  /// Creates a pool with \p Workers total workers (clamped to >= 1). The
  /// calling thread counts as one worker: N workers spawn N-1 threads.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs Fn(I) for every I in [0, N), distributing indices over the
  /// workers, and returns once all calls completed. The caller's thread
  /// participates. If any Fn invocation throws, the first exception (in
  /// completion order) is rethrown here after the whole range drained.
  /// Not reentrant: parallelFor must not be called from inside Fn.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// Total workers, including the calling thread.
  unsigned workerCount() const {
    return static_cast<unsigned>(Threads.size()) + 1;
  }

  /// The worker count a `Jobs` request means: \p Jobs itself, or for 0
  /// every hardware thread of this machine (>= 1). The one place the
  /// 0-means-all rule is resolved.
  static unsigned resolveWorkers(unsigned Jobs);

private:
  void workerLoop();
  void runIndices();

  std::vector<std::thread> Threads;

  std::mutex M;
  std::condition_variable WorkCV; ///< Signals a new job (or shutdown).
  std::condition_variable DoneCV; ///< Signals the current job drained.
  const std::function<void(size_t)> *Job = nullptr;
  size_t JobSize = 0;
  std::atomic<size_t> NextIndex{0};
  unsigned Running = 0;     ///< Workers still inside the current job.
  uint64_t Generation = 0;  ///< Bumped per job so workers detect new work.
  bool Stopping = false;
  std::exception_ptr FirstError;
};

} // namespace mao

#endif // MAO_SUPPORT_THREADPOOL_H
