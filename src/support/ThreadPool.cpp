//===- support/ThreadPool.cpp - Fixed-size worker pool -----------------------==//

#include "support/ThreadPool.h"

using namespace mao;

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers < 1)
    Workers = 1;
  Threads.reserve(Workers - 1);
  for (unsigned I = 1; I < Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

unsigned ThreadPool::resolveWorkers(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

void ThreadPool::runIndices() {
  // Claim indices until the range drains. An exception poisons only the
  // claimed index; the rest of the range still runs (shard failures are
  // handled per index by the caller, so one bad index must not starve the
  // others of execution).
  for (size_t I = NextIndex.fetch_add(1); I < JobSize;
       I = NextIndex.fetch_add(1)) {
    try {
      (*Job)(I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(M);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  }
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      WorkCV.wait(Lock, [&] {
        return Stopping || Generation != SeenGeneration;
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
    }
    runIndices();
    {
      std::lock_guard<std::mutex> Lock(M);
      if (--Running == 0)
        DoneCV.notify_all();
    }
  }
}

void ThreadPool::parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (Threads.empty()) {
    // Single-worker pool: the sharded code path with no threading at all.
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(M);
    Job = &Fn;
    JobSize = N;
    NextIndex.store(0);
    Running = static_cast<unsigned>(Threads.size());
    ++Generation;
    FirstError = nullptr;
  }
  WorkCV.notify_all();
  runIndices(); // The calling thread is a worker too.
  std::unique_lock<std::mutex> Lock(M);
  DoneCV.wait(Lock, [&] { return Running == 0; });
  Job = nullptr;
  if (FirstError) {
    std::exception_ptr E = FirstError;
    FirstError = nullptr;
    Lock.unlock();
    std::rethrow_exception(E);
  }
}
