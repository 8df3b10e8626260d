//===- tests/benchmarks/SortSimulationTest.cpp -------------------------------=//
//
// The charge-exact simulation contract: every sort kernel and
// SortBenchmark::run produce exactly the bytes and exactly the
// cost-category charges of the textbook physical execution -- across
// input families, sizes, selector shapes, and repeated runs (the
// canonical-configuration memo replays must be exact too). The physical
// execution lives here as a test-local oracle.

#include "benchmarks/SortAlgorithms.h"
#include "benchmarks/SortBenchmark.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

using namespace pbt;
using namespace pbt::bench;

namespace {

/// The physical polyalgorithm: the same selector-driven recursion as
/// PolySorter, with every kernel executed step by step and every compare
/// and move charged as it happens.
class PhysicalSorter {
public:
  PhysicalSorter(const runtime::Selector &Sel, unsigned MergeWays)
      : Sel(Sel), MergeWays(MergeWays < 2 ? 2 : MergeWays) {}

  void sort(std::vector<double> &V, support::CostCounter &Cost) const {
    sortRange(V, 0, V.size(), Cost);
  }

private:
  void sortRange(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const {
    if (Hi - Lo < 2)
      return;
    switch (static_cast<SortAlgo>(Sel.choose(Hi - Lo))) {
    case SortAlgo::Insertion:
      return insertion(V, Lo, Hi, Cost);
    case SortAlgo::Quick:
      return quick(V, Lo, Hi, Cost);
    case SortAlgo::Merge:
      return merge(V, Lo, Hi, Cost);
    case SortAlgo::Radix:
      return radix(V, Lo, Hi, Cost);
    case SortAlgo::Bitonic:
      return bitonic(V, Lo, Hi, Cost);
    }
  }

  static void insertion(std::vector<double> &V, size_t Lo, size_t Hi,
                        support::CostCounter &Cost) {
    if (Hi - Lo < 2)
      return;
    double Compares = 0.0, Moves = 0.0;
    for (size_t I = Lo + 1; I < Hi; ++I) {
      double Key = V[I];
      size_t J = I;
      Compares += 1.0;
      while (J > Lo && V[J - 1] > Key) {
        V[J] = V[J - 1];
        Moves += 1.0;
        --J;
        if (J > Lo)
          Compares += 1.0;
      }
      if (J != I) {
        V[J] = Key;
        Moves += 1.0;
      }
    }
    Cost.addCompares(Compares);
    Cost.addMoves(Moves);
  }

  void quick(std::vector<double> &V, size_t Lo, size_t Hi,
             support::CostCounter &Cost) const {
    size_t CurLo = Lo, CurHi = Hi;
    while (CurHi - CurLo > 1) {
      double Compares = 0.0, Moves = 0.0;
      std::swap(V[CurLo], V[CurHi - 1]);
      Moves += 3.0;
      double Pivot = V[CurHi - 1];
      size_t Store = CurLo;
      for (size_t I = CurLo; I + 1 < CurHi; ++I) {
        Compares += 1.0;
        if (V[I] < Pivot) {
          if (I != Store) {
            std::swap(V[I], V[Store]);
            Moves += 3.0;
          }
          ++Store;
        }
      }
      std::swap(V[Store], V[CurHi - 1]);
      Moves += 3.0;
      Cost.addCompares(Compares);
      Cost.addMoves(Moves);

      size_t LeftLo = CurLo, LeftHi = Store;
      size_t RightLo = Store + 1, RightHi = CurHi;
      if (LeftHi - LeftLo <= RightHi - RightLo) {
        sortRange(V, LeftLo, LeftHi, Cost);
        CurLo = RightLo;
        CurHi = RightHi;
      } else {
        sortRange(V, RightLo, RightHi, Cost);
        CurLo = LeftLo;
        CurHi = LeftHi;
      }
      if (Sel.choose(CurHi - CurLo) != static_cast<unsigned>(SortAlgo::Quick)) {
        sortRange(V, CurLo, CurHi, Cost);
        return;
      }
    }
  }

  void merge(std::vector<double> &V, size_t Lo, size_t Hi,
             support::CostCounter &Cost) const {
    size_t N = Hi - Lo;
    unsigned Ways = static_cast<unsigned>(
        std::min<size_t>(MergeWays, std::max<size_t>(2, N / 2)));
    if (N < 2)
      return;
    if (N <= Ways) {
      insertion(V, Lo, Hi, Cost);
      return;
    }
    std::vector<size_t> Bounds(Ways + 1), Head(Ways);
    for (unsigned W = 0; W <= Ways; ++W)
      Bounds[W] = Lo + N * W / Ways;
    for (unsigned W = 0; W != Ways; ++W)
      sortRange(V, Bounds[W], Bounds[W + 1], Cost);

    // Linear scan over the run heads; ties take the lowest run index.
    std::vector<double> Out;
    Out.reserve(N);
    for (unsigned W = 0; W != Ways; ++W)
      Head[W] = Bounds[W];
    double Compares = 0.0, Moves = 0.0;
    for (size_t Produced = 0; Produced != N; ++Produced) {
      unsigned Best = Ways;
      for (unsigned W = 0; W != Ways; ++W) {
        if (Head[W] == Bounds[W + 1])
          continue;
        if (Best == Ways) {
          Best = W;
          continue;
        }
        Compares += 1.0;
        if (V[Head[W]] < V[Head[Best]])
          Best = W;
      }
      Out.push_back(V[Head[Best]++]);
      Moves += 1.0;
    }
    std::copy(Out.begin(), Out.end(), V.begin() + static_cast<long>(Lo));
    Moves += static_cast<double>(N);
    Cost.addCompares(Compares);
    Cost.addMoves(Moves);
  }

  static void radix(std::vector<double> &V, size_t Lo, size_t Hi,
                    support::CostCounter &Cost) {
    size_t N = Hi - Lo;
    if (N < 2)
      return;
    std::vector<uint64_t> Keys(N), Scratch(N);
    for (size_t I = 0; I != N; ++I) {
      uint64_t Bits;
      std::memcpy(&Bits, &V[Lo + I], sizeof(Bits));
      Keys[I] = (Bits & 0x8000000000000000ull) ? ~Bits
                                               : Bits | 0x8000000000000000ull;
    }
    Cost.addOther(static_cast<double>(N));
    size_t Counts[256];
    for (unsigned Pass = 0; Pass != 8; ++Pass) {
      unsigned Shift = Pass * 8;
      std::fill(std::begin(Counts), std::end(Counts), 0);
      for (size_t I = 0; I != N; ++I)
        ++Counts[(Keys[I] >> Shift) & 0xff];
      size_t Total = 0;
      for (size_t &C : Counts) {
        size_t Old = C;
        C = Total;
        Total += Old;
      }
      for (size_t I = 0; I != N; ++I)
        Scratch[Counts[(Keys[I] >> Shift) & 0xff]++] = Keys[I];
      Keys.swap(Scratch);
      Cost.addOther(static_cast<double>(N));
      Cost.addMoves(static_cast<double>(N));
    }
    for (size_t I = 0; I != N; ++I) {
      uint64_t K = Keys[I];
      uint64_t Bits =
          (K & 0x8000000000000000ull) ? K & 0x7fffffffffffffffull : ~K;
      std::memcpy(&V[Lo + I], &Bits, sizeof(Bits));
    }
    Cost.addMoves(static_cast<double>(N));
  }

  static void bitonic(std::vector<double> &V, size_t Lo, size_t Hi,
                      support::CostCounter &Cost) {
    size_t N = Hi - Lo;
    if (N < 2)
      return;
    size_t P = 1;
    while (P < N)
      P <<= 1;
    std::vector<double> Buf(P, std::numeric_limits<double>::infinity());
    std::copy(V.begin() + static_cast<long>(Lo),
              V.begin() + static_cast<long>(Hi), Buf.begin());
    Cost.addMoves(static_cast<double>(N));
    double Compares = 0.0, Moves = 0.0;
    for (size_t K = 2; K <= P; K <<= 1) {
      for (size_t J = K >> 1; J > 0; J >>= 1) {
        for (size_t I = 0; I != P; ++I) {
          size_t L = I ^ J;
          if (L <= I)
            continue;
          bool Ascending = (I & K) == 0;
          Compares += 1.0;
          if ((Ascending && Buf[I] > Buf[L]) ||
              (!Ascending && Buf[I] < Buf[L])) {
            std::swap(Buf[I], Buf[L]);
            Moves += 3.0;
          }
        }
      }
    }
    std::copy(Buf.begin(), Buf.begin() + static_cast<long>(N),
              V.begin() + static_cast<long>(Lo));
    Moves += static_cast<double>(N);
    Cost.addCompares(Compares);
    Cost.addMoves(Moves);
  }

  const runtime::Selector &Sel;
  unsigned MergeWays;
};

void expectSameCharges(const support::CostCounter &A,
                       const support::CostCounter &B, const char *What) {
  EXPECT_EQ(A.compares(), B.compares()) << What;
  EXPECT_EQ(A.moves(), B.moves()) << What;
  EXPECT_EQ(A.flops(), B.flops()) << What;
  EXPECT_EQ(A.stencil(), B.stencil()) << What;
  EXPECT_EQ(A.other(), B.other()) << What;
}

TEST(SortSimulationTest, KernelsMatchPhysicalReferenceExactly) {
  support::Rng GenRng(777);
  for (unsigned Trial = 0; Trial != 60; ++Trial) {
    SortGen G = static_cast<SortGen>(GenRng.index(NumSortGens));
    size_t N = 8 + GenRng.index(1500);
    std::vector<double> Input = generateSortInput(G, N, GenRng);

    // A random selector over random cutoffs (including degenerate ones)
    // and a random way count drive the full polyalgorithm recursion. Way
    // counts above 16 (beyond the config space) reach the merge's
    // linear-scan take.
    std::vector<runtime::Selector::Level> Levels;
    unsigned NumLevels = 1 + static_cast<unsigned>(GenRng.index(3));
    for (unsigned L = 0; L + 1 < NumLevels; ++L)
      Levels.push_back({4 + GenRng.index(2 * N),
                        static_cast<unsigned>(GenRng.index(NumSortAlgos))});
    Levels.push_back({UINT64_MAX,
                      static_cast<unsigned>(GenRng.index(NumSortAlgos))});
    runtime::Selector Sel(std::move(Levels));
    unsigned Ways = 2 + static_cast<unsigned>(GenRng.index(20));
    PolySorter Sorter(Sel, Ways);

    std::vector<double> Physical = Input;
    support::CostCounter PhysicalCost;
    PhysicalSorter(Sorter.selector(), Ways).sort(Physical, PhysicalCost);

    std::vector<double> Simulated = Input;
    support::CostCounter SimulatedCost;
    Sorter.sort(Simulated, SimulatedCost);

    ASSERT_EQ(Simulated, Physical)
        << "trial " << Trial << " gen " << sortGenName(G) << " n=" << N
        << " ways=" << Ways;
    expectSameCharges(SimulatedCost, PhysicalCost, sortGenName(G));
  }
}

TEST(SortSimulationTest, BenchmarkRunsMatchPhysicalAndMemoReplaysExactly) {
  SortBenchmark::Options Opts;
  Opts.Data = SortBenchmark::Dataset::SyntheticMix;
  Opts.NumInputs = 24;
  Opts.MinSize = 64;
  Opts.MaxSize = 512;
  Opts.Seed = 31337;
  SortBenchmark Bench(Opts);
  int WaysParam = Bench.space().indexOf("sort.mergeWays");
  ASSERT_GE(WaysParam, 0);

  support::Rng Rng(4242);
  for (unsigned Trial = 0; Trial != 120; ++Trial) {
    runtime::Configuration Config = Bench.space().randomConfig(Rng);
    size_t Input = Rng.index(Bench.numInputs());

    // The physical run: copy the input (charged), sort it step by step.
    PolySorter Decoded = Bench.sorterFor(Config);
    unsigned Ways = static_cast<unsigned>(
        Config.integer(static_cast<unsigned>(WaysParam)));
    std::vector<double> Work = Bench.input(Input);
    support::CostCounter Physical;
    Physical.addMoves(static_cast<double>(Work.size()));
    PhysicalSorter(Decoded.selector(), Ways).sort(Work, Physical);
    ASSERT_TRUE(std::is_sorted(Work.begin(), Work.end()));

    support::CostCounter First;
    runtime::RunResult FR = Bench.run(Input, Config, First);
    // Run again: canonical-memo replays (hits are certain the second
    // time) must reproduce the exact charges, not an approximation.
    support::CostCounter Second;
    runtime::RunResult SR = Bench.run(Input, Config, Second);

    EXPECT_EQ(FR.TimeUnits, Physical.units()) << "trial " << Trial;
    EXPECT_EQ(FR.Accuracy, 1.0);
    expectSameCharges(First, Physical, "first simulated run");
    EXPECT_EQ(SR.TimeUnits, Physical.units()) << "memo replay, trial " << Trial;
    expectSameCharges(Second, Physical, "memo replay");
  }
}

} // namespace
