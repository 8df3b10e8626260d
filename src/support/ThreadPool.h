//===- support/ThreadPool.h - Minimal parallel-for pool -------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool exposing a blocking parallelFor. Used to
/// parallelise the embarrassingly parallel stages of the pipeline
/// (landmark-on-every-input performance measurement, autotuner population
/// evaluation). All measured quantities are deterministic work units, so
/// parallel scheduling never perturbs results.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_THREADPOOL_H
#define PBT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pbt {
namespace support {

/// Fixed pool of worker threads with a blocking index-range parallel for.
class ThreadPool {
public:
  /// \p NumThreads == 0 selects the hardware concurrency (at least 1).
  /// parallelFor's caller is one of the \p NumThreads threads, so the pool
  /// starts NumThreads - 1 workers; ThreadPool(1) runs bodies inline.
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs \p Body(I) for every I in [Begin, End), distributing indices over
  /// the pool, and blocks until all indices completed. Safe to call with an
  /// empty range. Calls from within a worker are executed inline.
  ///
  /// \p GrainSize is the number of consecutive indices a worker claims per
  /// counter hit. The default of 1 is right for coarse bodies (a full
  /// program run); fine-grained task lists (the Level-2 fold x subset zoo
  /// on a small retrain reservoir) pass a larger grain so idle workers
  /// steal work in chunks instead of serialising on the claim lock.
  /// Scheduling never affects results -- bodies write index-addressed
  /// outputs.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Body,
                   size_t GrainSize = 1);

  /// Threads that run bodies, the caller included.
  unsigned numThreads() const { return NumThreads; }

  static unsigned hardwareThreads();

private:
  struct Job {
    size_t Begin = 0;
    size_t End = 0;
    const std::function<void(size_t)> *Body = nullptr;
    size_t NextIndex = 0;
    size_t Remaining = 0;
    size_t GrainSize = 1;
  };

  void workerLoop();
  bool runSomeOf(Job &J);

  unsigned NumThreads;
  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable JobDone;
  Job Current;
  bool HasJob = false;
  bool ShuttingDown = false;
};

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_THREADPOOL_H
