//===- tests/support/ThreadPoolTest.cpp --------------------------------------=//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using pbt::support::ThreadPool;

namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(0, Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.parallelFor(5, 5, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0);
}

TEST(ThreadPoolTest, SubrangeRespected) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(10, 60, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != 100; ++I)
    EXPECT_EQ(Hits[I].load(), I >= 10 && I < 60 ? 1 : 0);
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  for (int Round = 0; Round != 10; ++Round)
    Pool.parallelFor(0, 50, [&](size_t) { Total.fetch_add(1); });
  EXPECT_EQ(Total.load(), 500);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool Pool(1);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 20, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 20);
}

TEST(ThreadPoolTest, AtMostNThreadsRunBodies) {
  // parallelFor's caller counts as one of the N threads. Each body
  // sleeps a little so that every thread of the pool gets to claim work.
  for (unsigned N : {1u, 2u, 4u}) {
    ThreadPool Pool(N);
    EXPECT_EQ(Pool.numThreads(), N);
    std::mutex IdsMutex;
    std::set<std::thread::id> Ids;
    Pool.parallelFor(0, 64, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> Lock(IdsMutex);
      Ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(Ids.size(), 1u);
    EXPECT_LE(Ids.size(), N);
    if (N == 1)
      EXPECT_EQ(*Ids.begin(), std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareThreads) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), ThreadPool::hardwareThreads());
}

TEST(ThreadPoolTest, HardwareThreadsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

} // namespace
