//===- support/ThreadPool.cpp ---------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace pbt;
using namespace pbt::support;

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned NumThreads)
    : NumThreads(NumThreads == 0 ? hardwareThreads() : NumThreads) {
  // The thread calling parallelFor works too, so N - 1 workers make N.
  Workers.reserve(this->NumThreads - 1);
  for (unsigned I = 1; I < this->NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::runSomeOf(Job &J) {
  // Claim GrainSize consecutive indices under the lock; execute outside
  // it. Coarse bodies (a full program run) use grain 1, which keeps the
  // scheduling maximally balanced; fine-grained task lists claim chunks
  // so the claim lock stops being the bottleneck.
  size_t First, Last;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!HasJob || J.NextIndex >= J.End)
      return false;
    First = J.NextIndex;
    Last = std::min(J.End, First + std::max<size_t>(1, J.GrainSize));
    J.NextIndex = Last;
  }
  for (size_t Index = First; Index != Last; ++Index)
    (*J.Body)(Index);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(J.Remaining >= Last - First && "completion underflow");
    J.Remaining -= Last - First;
    if (J.Remaining == 0)
      JobDone.notify_all();
  }
  return true;
}

void ThreadPool::workerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] {
        return ShuttingDown || (HasJob && Current.NextIndex < Current.End);
      });
      if (ShuttingDown)
        return;
    }
    while (runSomeOf(Current)) {
    }
  }
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Body,
                             size_t GrainSize) {
  if (Begin >= End)
    return;
  if (Workers.empty()) {
    for (size_t Index = Begin; Index != End; ++Index)
      Body(Index);
    return;
  }
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    assert(!HasJob && "nested/concurrent parallelFor is not supported");
    Current.Begin = Begin;
    Current.End = End;
    Current.Body = &Body;
    Current.NextIndex = Begin;
    Current.Remaining = End - Begin;
    Current.GrainSize = std::max<size_t>(1, GrainSize);
    HasJob = true;
  }
  WorkAvailable.notify_all();
  // The calling thread participates too.
  while (runSomeOf(Current)) {
  }
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    JobDone.wait(Lock, [this] { return Current.Remaining == 0; });
    HasJob = false;
    Current.Body = nullptr;
  }
}
