//===- tests/ml/KMeansParityTest.cpp -----------------------------------------=//
//
// ml::kMeans runs its distance passes points-major and vectorised across
// points. This test keeps the row-major scalar kernel (partial-distance
// early exit included) as the oracle and requires the same bits from
// both: centroid bytes, assignment, inertia bits, IterationsRun and every
// CostCounter category.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/ClusteringBenchmark.h"
#include "ml/KMeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::ml;

namespace {

//===----------------------------------------------------------------------===//
// The oracle: the row-major scalar kernel, one point at a time.
//===----------------------------------------------------------------------===//

double squaredDistance(const double *A, const double *B, size_t D) {
  double Sum = 0.0;
  for (size_t I = 0; I != D; ++I) {
    double Delta = A[I] - B[I];
    Sum += Delta * Delta;
  }
  return Sum;
}

/// Stops summing once the partial sum reaches \p Bound.
double squaredDistanceBounded(const double *A, const double *B, size_t D,
                              double Bound) {
  double Sum = 0.0;
  for (size_t I = 0; I != D; ++I) {
    double Delta = A[I] - B[I];
    Sum += Delta * Delta;
    if (Sum >= Bound)
      return Sum;
  }
  return Sum;
}

linalg::Matrix oracleInit(const linalg::Matrix &Points, unsigned K,
                          KMeansInit Init, support::Rng &Rng,
                          support::CostCounter *Cost) {
  size_t N = Points.rows(), D = Points.cols();
  linalg::Matrix C(K, D);
  auto CopyPoint = [&](size_t From, size_t To) {
    for (size_t J = 0; J != D; ++J)
      C.at(To, J) = Points.at(From, J);
  };
  switch (Init) {
  case KMeansInit::Prefix:
    for (unsigned I = 0; I != K; ++I)
      CopyPoint(I % N, I);
    break;
  case KMeansInit::Random: {
    std::vector<size_t> Picks =
        Rng.sampleWithoutReplacement(N, std::min<size_t>(K, N));
    for (unsigned I = 0; I != K; ++I)
      CopyPoint(Picks[I % Picks.size()], I);
    break;
  }
  case KMeansInit::CenterPlus: {
    std::vector<double> Dist2(N, std::numeric_limits<double>::max());
    CopyPoint(Rng.index(N), 0);
    for (unsigned Next = 1; Next < K; ++Next) {
      double Total = 0.0;
      for (size_t I = 0; I != N; ++I) {
        double D2 = squaredDistance(Points.rowPtr(I), C.rowPtr(Next - 1), D);
        Dist2[I] = std::min(Dist2[I], D2);
        Total += Dist2[I];
      }
      if (Cost)
        Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(D));
      if (Total <= 0.0) {
        CopyPoint(Rng.index(N), Next);
        continue;
      }
      double Target = Rng.uniform() * Total;
      size_t Chosen = N - 1;
      double Acc = 0.0;
      for (size_t I = 0; I != N; ++I) {
        Acc += Dist2[I];
        if (Acc >= Target) {
          Chosen = I;
          break;
        }
      }
      CopyPoint(Chosen, Next);
    }
    break;
  }
  }
  return C;
}

/// Nearest centroid of row \p I with the partial-distance early exit.
unsigned oracleNearest(const linalg::Matrix &Points, size_t I,
                       const linalg::Matrix &Centroids, double &Best) {
  Best = std::numeric_limits<double>::max();
  unsigned BestK = 0;
  for (unsigned C = 0; C != Centroids.rows(); ++C) {
    double D2 = squaredDistanceBounded(Points.rowPtr(I), Centroids.rowPtr(C),
                                       Points.cols(), Best);
    if (D2 < Best) {
      Best = D2;
      BestK = C;
    }
  }
  return BestK;
}

KMeansResult oracleKMeans(const linalg::Matrix &Points,
                          const KMeansOptions &Options,
                          support::CostCounter *Cost) {
  size_t N = Points.rows(), D = Points.cols();
  unsigned K = std::max(1u, std::min<unsigned>(Options.K,
                                               static_cast<unsigned>(N)));
  support::Rng Rng(Options.Seed);
  KMeansResult R;
  R.Centroids = oracleInit(Points, K, Options.Init, Rng, Cost);
  R.Assignment.assign(N, 0);
  std::vector<double> ClusterSize(K, 0.0);
  linalg::Matrix NewC(K, D, 0.0);
  for (unsigned Iter = 0; Iter != std::max(1u, Options.MaxIterations);
       ++Iter) {
    R.IterationsRun = Iter + 1;
    bool Changed = false;
    for (size_t I = 0; I != N; ++I) {
      double Best;
      unsigned BestK = oracleNearest(Points, I, R.Centroids, Best);
      if (R.Assignment[I] != BestK) {
        R.Assignment[I] = BestK;
        Changed = true;
      }
    }
    if (Cost)
      Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(K) *
                     static_cast<double>(D));
    std::fill(NewC.data().begin(), NewC.data().end(), 0.0);
    std::fill(ClusterSize.begin(), ClusterSize.end(), 0.0);
    for (size_t I = 0; I != N; ++I) {
      unsigned C = R.Assignment[I];
      ClusterSize[C] += 1.0;
      for (size_t J = 0; J != D; ++J)
        NewC.at(C, J) += Points.at(I, J);
    }
    for (unsigned C = 0; C != K; ++C) {
      if (ClusterSize[C] == 0.0) {
        size_t Farthest = 0;
        double Best = -1.0;
        for (size_t I = 0; I != N; ++I) {
          double D2 = squaredDistance(
              Points.rowPtr(I), R.Centroids.rowPtr(R.Assignment[I]), D);
          if (D2 > Best) {
            Best = D2;
            Farthest = I;
          }
        }
        for (size_t J = 0; J != D; ++J)
          NewC.at(C, J) = Points.at(Farthest, J);
        continue;
      }
      for (size_t J = 0; J != D; ++J)
        NewC.at(C, J) /= ClusterSize[C];
    }
    if (Cost)
      Cost->addFlops(static_cast<double>(N) * static_cast<double>(D));
    std::swap(R.Centroids, NewC);
    if (Options.EarlyStop && !Changed && Iter > 0)
      break;
  }
  R.Inertia = 0.0;
  for (size_t I = 0; I != N; ++I) {
    double Best;
    R.Assignment[I] = oracleNearest(Points, I, R.Centroids, Best);
    R.Inertia += Best;
  }
  if (Cost)
    Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(K) *
                   static_cast<double>(D));
  return R;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

uint64_t bitsOf(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof B);
  return B;
}

const char *initName(KMeansInit I) {
  switch (I) {
  case KMeansInit::Random:
    return "random";
  case KMeansInit::Prefix:
    return "prefix";
  case KMeansInit::CenterPlus:
    return "centerplus";
  }
  return "?";
}

/// Runs both kernels on \p P with \p O and requires identical bits.
void expectSameBits(const linalg::Matrix &P, const KMeansOptions &O,
                    const std::string &Where) {
  support::CostCounter CostNew, CostOld;
  KMeansResult New = kMeans(P, O, &CostNew);
  KMeansResult Old = oracleKMeans(P, O, &CostOld);
  std::string Case = Where + " init=" + initName(O.Init) +
                     " K=" + std::to_string(O.K) +
                     " iters=" + std::to_string(O.MaxIterations) +
                     " early=" + std::to_string(O.EarlyStop);
  ASSERT_EQ(New.Centroids.rows(), Old.Centroids.rows()) << Case;
  ASSERT_EQ(New.Centroids.cols(), Old.Centroids.cols()) << Case;
  EXPECT_EQ(0, std::memcmp(New.Centroids.data().data(),
                           Old.Centroids.data().data(),
                           Old.Centroids.data().size() * sizeof(double)))
      << Case;
  EXPECT_EQ(New.Assignment, Old.Assignment) << Case;
  EXPECT_EQ(bitsOf(New.Inertia), bitsOf(Old.Inertia)) << Case;
  EXPECT_EQ(New.IterationsRun, Old.IterationsRun) << Case;
  EXPECT_EQ(bitsOf(CostNew.units()), bitsOf(CostOld.units())) << Case;
  EXPECT_EQ(bitsOf(CostNew.flops()), bitsOf(CostOld.flops())) << Case;
  EXPECT_EQ(CostNew.compares(), CostOld.compares()) << Case;
  EXPECT_EQ(CostNew.moves(), CostOld.moves()) << Case;
}

/// Every init, K 1..24 and EarlyStop on and off; the iteration budget
/// walks 1..30 as K and the init advance.
void sweepOptions(const linalg::Matrix &P, const std::string &Where,
                  uint64_t Seed) {
  const KMeansInit Inits[] = {KMeansInit::Random, KMeansInit::Prefix,
                              KMeansInit::CenterPlus};
  unsigned Step = 0;
  for (KMeansInit Init : Inits)
    for (unsigned K = 1; K <= 24; ++K)
      for (bool EarlyStop : {true, false}) {
        KMeansOptions O;
        O.Init = Init;
        O.K = K;
        O.MaxIterations = 1 + (Step++ * 7) % 30;
        O.EarlyStop = EarlyStop;
        O.Seed = Seed + K;
        expectSameBits(P, O, Where);
      }
}

linalg::Matrix gaussianPoints(size_t N, size_t D, support::Rng &Rng) {
  linalg::Matrix P(N, D);
  for (double &V : P.data())
    V = Rng.gaussian(0.0, 1.0);
  return P;
}

TEST(KMeansParityTest, EveryClusterGeneratorMatchesTheScalarKernel) {
  support::Rng Rng(41);
  for (unsigned G = 0; G != bench::NumClusterGens; ++G)
    for (size_t N : {151, 325}) {
      auto Gen = static_cast<bench::ClusterGen>(G);
      linalg::Matrix P = bench::generateClusterInput(Gen, N, Rng);
      sweepOptions(P,
                   std::string(bench::clusterGenName(Gen)) +
                       " N=" + std::to_string(N),
                   G * 100 + N);
    }
}

TEST(KMeansParityTest, TwelveDimensionalInputsMatchTheScalarKernel) {
  // The Level-1 shape: normalized feature vectors, 12 columns.
  support::Rng Rng(43);
  for (size_t N : {37, 200}) {
    linalg::Matrix P = gaussianPoints(N, 12, Rng);
    sweepOptions(P, "gaussian12 N=" + std::to_string(N), N);
  }
}

TEST(KMeansParityTest, MorePointsRequestedThanExist) {
  // K > N clamps to N; N = 1..5 also leaves a partly filled last vector.
  support::Rng Rng(47);
  for (size_t N = 1; N <= 5; ++N) {
    linalg::Matrix P = gaussianPoints(N, 3, Rng);
    for (KMeansInit Init : {KMeansInit::Random, KMeansInit::Prefix,
                            KMeansInit::CenterPlus}) {
      KMeansOptions O;
      O.Init = Init;
      O.K = 8;
      O.MaxIterations = 5;
      expectSameBits(P, O, "tiny N=" + std::to_string(N));
    }
  }
}

TEST(KMeansParityTest, ExactTiesGoToTheLowestCentroid) {
  // Every point repeated four times, and whole runs of equal points:
  // Prefix seeds equal centroids, so every distance ties exactly.
  support::Rng Rng(53);
  linalg::Matrix Base = gaussianPoints(20, 2, Rng);
  linalg::Matrix P(80, 2);
  for (size_t I = 0; I != 80; ++I)
    for (size_t J = 0; J != 2; ++J)
      P.at(I, J) = Base.at(I / 4, J);
  sweepOptions(P, "duplicates", 5);

  linalg::Matrix Same(9, 2, 1.5);
  sweepOptions(Same, "all-equal", 7);

  // One iteration: centroids 1-3 seed at point 0 like centroid 0, get no
  // points, and are all re-seeded from the same farthest point, so the
  // final pass ties 1, 2 and 3 exactly on every point.
  KMeansOptions O;
  O.Init = KMeansInit::Prefix;
  O.K = 4;
  O.MaxIterations = 1;
  KMeansResult R = kMeans(P, O);
  EXPECT_EQ(0, std::memcmp(R.Centroids.rowPtr(1), R.Centroids.rowPtr(3),
                           2 * sizeof(double)));
  for (size_t I = 0; I != P.rows(); ++I)
    EXPECT_LE(R.Assignment[I], 1u) << "a tie went past the lowest centroid";
}

TEST(KMeansParityTest, EmptyClusterIsReseededFromTheFarthestPoint) {
  // Prefix seeds both centroids at 0: every point ties to centroid 0,
  // centroid 1 gets no points and is re-seeded from the farthest one.
  linalg::Matrix P(4, 1);
  P.at(0, 0) = 0.0;
  P.at(1, 0) = 0.0;
  P.at(2, 0) = 0.0;
  P.at(3, 0) = 10.0;
  KMeansOptions O;
  O.Init = KMeansInit::Prefix;
  O.K = 2;
  O.MaxIterations = 1;
  KMeansResult R = kMeans(P, O);
  EXPECT_EQ(R.Centroids.at(0, 0), 2.5);
  EXPECT_EQ(R.Centroids.at(1, 0), 10.0);
  for (unsigned Iters : {1u, 2u, 5u})
    for (bool EarlyStop : {true, false}) {
      O.MaxIterations = Iters;
      O.EarlyStop = EarlyStop;
      expectSameBits(P, O, "reseed");
    }
}

} // namespace
