//===- ml/KMeans.cpp -------------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/KMeans.h"

#include "serialize/TextFormat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace pbt;
using namespace pbt::ml;

static double squaredDistance(const double *A, const double *B, size_t D) {
  double Sum = 0.0;
  for (size_t I = 0; I != D; ++I) {
    double Delta = A[I] - B[I];
    Sum += Delta * Delta;
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Points-major distance kernel.
//
// The assignment step, the final inertia pass and the kmeans++ D^2 pass
// run over a per-call transpose of the points (one column per dimension)
// and vectorise ACROSS points: each vector element is one point, whose
// distance to a centroid is accumulated over J = 0..D-1 in exactly the
// order of squaredDistance, and whose argmin over centroids uses the
// same strict `<` in centroid index order. No point's own arithmetic is
// reordered, so every distance, every choice (ties to the lowest index)
// and every inertia bit equals the row-major scalar loop's.
//
// kVec is the number of points per vector, 16 bytes of doubles. The
// build targets baseline x86-64 (SSE2), where a 32-byte vector type is
// split through memory: on BM_KMeans's 2-D shapes it ran at 0.3-0.4x
// the row-major loop's speed, while 16 bytes ran 1.5-1.9x faster in 2-D
// and 2.4-3x in 12-D (CHANGES.md has the measurement).
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t kVec = 2;
typedef double VecD __attribute__((vector_size(kVec * 8)));
typedef long long VecM __attribute__((vector_size(kVec * 8)));

inline VecD splat(double X) {
  VecD V;
  for (size_t L = 0; L != kVec; ++L)
    V[L] = X;
  return V;
}

/// Per-thread scratch of one kMeans call, points-major: Cols[J * Blocks
/// + B] holds coordinate J of points [B * kVec, B * kVec + kVec). The pad
/// points past N are zeros whose results are never read.
struct Scratch {
  std::vector<VecD> Cols;
  std::vector<VecD> Best;  // per block: squared distance to the nearest
  std::vector<VecM> Which; // per block: index of the nearest
  std::vector<VecD> Splat; // the current centroid, one vector per dim
  size_t Blocks = 0;

  void assign(const linalg::Matrix &Points) {
    size_t N = Points.rows(), D = Points.cols();
    Blocks = (N + kVec - 1) / kVec;
    Cols.assign(Blocks * D, VecD{});
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J != D; ++J)
        Cols[J * Blocks + I / kVec][I % kVec] = Points.at(I, J);
    Best.resize(Blocks);
    Which.resize(Blocks);
    Splat.resize(D);
  }
};

/// Squared distances of block B's points to \p Centroid (one splat per
/// dimension). \p Dims fixes D at compile time when nonzero: the
/// clustering benchmark's 2-D points take that path, which unrolls the
/// dimension loop.
template <size_t Dims>
inline VecD distanceBlock(const VecD *Cols, size_t Blocks, size_t B,
                          const VecD *Centroid, size_t D) {
  if (Dims)
    D = Dims;
  VecD Sum = {};
  for (size_t J = 0; J != D; ++J) {
    VecD Delta = Cols[J * Blocks + B] - Centroid[J];
    Sum += Delta * Delta;
  }
  return Sum;
}

template <size_t Dims>
void assignNearestIn(Scratch &S, const linalg::Matrix &Centroids) {
  size_t D = Centroids.cols(), Blocks = S.Blocks;
  unsigned K = static_cast<unsigned>(Centroids.rows());
  const VecD *Cols = S.Cols.data();
  VecD *Best = S.Best.data();
  VecM *Which = S.Which.data();
  VecD *Splat = S.Splat.data();
  for (size_t B = 0; B != Blocks; ++B) {
    Best[B] = splat(std::numeric_limits<double>::max());
    Which[B] = VecM{};
  }
  for (unsigned C = 0; C != K; ++C) {
    for (size_t J = 0; J != D; ++J)
      Splat[J] = splat(Centroids.at(C, J));
    VecM CV = VecM{} + static_cast<long long>(C);
    for (size_t B = 0; B != Blocks; ++B) {
      VecD D2 = distanceBlock<Dims>(Cols, Blocks, B, Splat, D);
      VecM Less = D2 < Best[B];
      Best[B] = Less ? D2 : Best[B];
      Which[B] = Less ? CV : Which[B];
    }
  }
}

/// Nearest centroid of every point into S.Best / S.Which: centroid-major,
/// so each block's running minimum only sees centroids in index order.
void assignNearest(Scratch &S, const linalg::Matrix &Centroids) {
  if (Centroids.cols() == 2)
    assignNearestIn<2>(S, Centroids);
  else
    assignNearestIn<0>(S, Centroids);
}

/// kmeans++'s D^2 update: Dist2[B] = min(Dist2[B], |p - Centroid|^2) per
/// point, with std::min's semantics.
void lowerToCentroid(Scratch &S, const double *Centroid, size_t D,
                     VecD *Dist2) {
  size_t Blocks = S.Blocks;
  const VecD *Cols = S.Cols.data();
  VecD *Splat = S.Splat.data();
  for (size_t J = 0; J != D; ++J)
    Splat[J] = splat(Centroid[J]);
  for (size_t B = 0; B != Blocks; ++B) {
    VecD D2 = distanceBlock<0>(Cols, Blocks, B, Splat, D);
    Dist2[B] = D2 < Dist2[B] ? D2 : Dist2[B];
  }
}

} // namespace

/// Chooses K initial centroids according to the requested strategy.
static linalg::Matrix initCentroids(const linalg::Matrix &Points,
                                    Scratch &S, unsigned K,
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
    std::vector<size_t> Picks = Rng.sampleWithoutReplacement(N, std::min<size_t>(K, N));
    for (unsigned I = 0; I != K; ++I)
      CopyPoint(Picks[I % Picks.size()], I);
    break;
  }
  case KMeansInit::CenterPlus: {
    // kmeans++: first centroid uniform, then D^2 weighting.
    std::vector<VecD> Dist2(S.Blocks,
                            splat(std::numeric_limits<double>::max()));
    size_t First = Rng.index(N);
    CopyPoint(First, 0);
    for (unsigned Next = 1; Next < K; ++Next) {
      lowerToCentroid(S, C.rowPtr(Next - 1), D, Dist2.data());
      double Total = 0.0;
      for (size_t I = 0; I != N; ++I)
        Total += Dist2[I / kVec][I % kVec];
      if (Cost)
        Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(D));
      if (Total <= 0.0) {
        // All remaining points coincide with chosen centroids.
        CopyPoint(Rng.index(N), Next);
        continue;
      }
      double Target = Rng.uniform() * Total;
      size_t Chosen = N - 1;
      double Acc = 0.0;
      for (size_t I = 0; I != N; ++I) {
        Acc += Dist2[I / kVec][I % kVec];
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

KMeansResult ml::kMeans(const linalg::Matrix &Points,
                        const KMeansOptions &Options,
                        support::CostCounter *Cost) {
  size_t N = Points.rows(), D = Points.cols();
  assert(N > 0 && "kMeans needs at least one point");
  unsigned K = std::max(1u, std::min<unsigned>(Options.K,
                                               static_cast<unsigned>(N)));
  support::Rng Rng(Options.Seed);

  // Buffers reused across iterations *and across calls*: the accumulator
  // matrix swaps with the centroid matrix instead of being reallocated
  // every pass, and it, the cluster sizes, the points-major copy and the
  // per-point nearest-centroid buffers persist per thread -- the adaptive
  // loop retrains (and the clustering benchmark runs) K-means thousands
  // of times, and the per-call allocation churn showed up under the
  // drift-response profile. Every buffer is fully overwritten below, so
  // reuse is invisible to results.
  thread_local Scratch ScratchTL;
  thread_local std::vector<double> ClusterSizeTL;
  thread_local linalg::Matrix NewCTL;
  Scratch &S = ScratchTL;
  S.assign(Points);

  KMeansResult R;
  R.Centroids = initCentroids(Points, S, K, Options.Init, Rng, Cost);
  R.Assignment.assign(N, 0);

  std::vector<double> &ClusterSize = ClusterSizeTL;
  ClusterSize.assign(K, 0.0);
  if (NewCTL.rows() != K || NewCTL.cols() != D)
    NewCTL = linalg::Matrix(K, D, 0.0);
  linalg::Matrix &NewC = NewCTL;
  for (unsigned Iter = 0; Iter != std::max(1u, Options.MaxIterations);
       ++Iter) {
    R.IterationsRun = Iter + 1;
    // Assignment step, charged the nominal 2*N*K*D flops of the
    // deterministic cost model.
    assignNearest(S, R.Centroids);
    bool Changed = false;
    for (size_t I = 0; I != N; ++I) {
      unsigned Nearest = static_cast<unsigned>(S.Which[I / kVec][I % kVec]);
      if (R.Assignment[I] != Nearest) {
        R.Assignment[I] = Nearest;
        Changed = true;
      }
    }
    if (Cost)
      Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(K) *
                     static_cast<double>(D));

    // Update step.
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
        // Re-seed an empty cluster with the point farthest from its current
        // centroid, the standard fixup.
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

  // Final inertia (and assignment consistent with final centroids),
  // summed in point order.
  assignNearest(S, R.Centroids);
  R.Inertia = 0.0;
  for (size_t I = 0; I != N; ++I) {
    R.Assignment[I] = static_cast<unsigned>(S.Which[I / kVec][I % kVec]);
    R.Inertia += S.Best[I / kVec][I % kVec];
  }
  if (Cost)
    Cost->addFlops(2.0 * static_cast<double>(N) * static_cast<double>(K) *
                   static_cast<double>(D));
  return R;
}

unsigned ml::nearestCentroid(const linalg::Matrix &Centroids,
                             const std::vector<double> &Row) {
  assert(Centroids.rows() > 0 && Centroids.cols() == Row.size() &&
         "centroid/row mismatch");
  double Best = std::numeric_limits<double>::max();
  unsigned BestK = 0;
  for (size_t C = 0; C != Centroids.rows(); ++C) {
    double D2 = squaredDistance(Centroids.rowPtr(C), Row.data(), Row.size());
    if (D2 < Best) {
      Best = D2;
      BestK = static_cast<unsigned>(C);
    }
  }
  return BestK;
}

void ml::saveKMeansResult(serialize::Writer &W, const KMeansResult &Result) {
  W.key("kmeans")
      .f(Result.Inertia)
      .u64(Result.IterationsRun)
      .end();
  W.matrix("centroids", Result.Centroids);
  std::vector<uint64_t> A(Result.Assignment.begin(), Result.Assignment.end());
  W.u64s("assignment", A);
}

bool ml::loadKMeansResult(serialize::Reader &R, KMeansResult &Result) {
  if (!R.expect("kmeans"))
    return false;
  double Inertia = R.f();
  uint64_t Iterations = R.count(1u << 30);
  if (!R.endLine())
    return false;
  linalg::Matrix Centroids;
  if (!R.matrix("centroids", Centroids))
    return false;
  std::vector<uint64_t> A;
  if (!R.u64s("assignment", A, 1u << 24))
    return false;
  for (uint64_t C : A)
    if (C >= Centroids.rows())
      return R.fail("assignment refers to a missing centroid");
  Result.Centroids = std::move(Centroids);
  Result.Assignment.assign(A.begin(), A.end());
  Result.Inertia = Inertia;
  Result.IterationsRun = static_cast<unsigned>(Iterations);
  return true;
}
