//===- runtime/SimdLanes.cpp - Lane-batched classification kernels --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
//
// The lane-batched classification kernels, written with GCC/Clang vector
// extensions (LaneVD / LaneVM below) so the compiler lowers each
// lane-wide operation to whatever vector instructions the base target
// offers.
//
// Exactness contract (the parity wall pins this): each lane element
// replays CompiledModel::classify operation-for-operation. SIMD is only
// applied ACROSS lane elements -- independent inputs -- so no input's
// own arithmetic is ever reordered or reassociated, comparisons keep
// the scalar path's exact IEEE semantics (<= on tree splits, strict <
// on max scans), and std::exp stays a scalar libm call per element.
//
//===----------------------------------------------------------------------===//

#include "runtime/SimdLanes.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

using namespace pbt;
using namespace pbt::runtime;

static constexpr unsigned kW = kLaneWidth;

#if defined(__GNUC__) || defined(__clang__)
#define PBT_LANE_HAVE_VEC 1
/// One lane of doubles / of 64-bit masks. may_alias: these are loaded
/// straight over double arrays.
typedef double LaneVD
    __attribute__((vector_size(kW * 8), may_alias, aligned(32)));
typedef long long LaneVM
    __attribute__((vector_size(kW * 8), may_alias, aligned(32)));

static inline LaneVD laneLoad(const double *P) {
  return *reinterpret_cast<const LaneVD *>(P);
}
static inline void laneStore(double *P, LaneVD V) {
  *reinterpret_cast<LaneVD *>(P) = V;
}
static inline LaneVD laneSplat(double X) {
  LaneVD V;
  for (unsigned I = 0; I != kW; ++I)
    V[I] = X;
  return V;
}
static inline LaneVM laneSplatI(long long X) {
  LaneVM V;
  for (unsigned I = 0; I != kW; ++I)
    V[I] = X;
  return V;
}
/// Bitwise blend: M is an all-ones/all-zeros compare mask per element.
static inline LaneVD laneSelect(LaneVM M, LaneVD A, LaneVD B) {
  return (LaneVD)((M & (LaneVM)A) | (~M & (LaneVM)B));
}
static inline LaneVM laneSelectI(LaneVM M, LaneVM A, LaneVM B) {
  return (M & A) | (~M & B);
}
#endif // vector extensions

//===----------------------------------------------------------------------===//
// Tree: level-synchronous traversal. Every live lane gathers its own
// node's (feature, threshold, children), the compare+descend step runs
// across the lane, and a lane that reaches a leaf self-loops there until
// the whole lane has retired.
//===----------------------------------------------------------------------===//

static void laneTree(const LaneModelView &M,
                     const double *Block, unsigned Count, unsigned *Out,
                     const LaneScratchView &S) {
  const ml::CompiledClassifier &C = *M.C;
  const int32_t *Feature = M.I32 + C.TreeFeature;
  const int32_t *Left = M.I32 + C.TreeLeft;
  const int32_t *Right = M.I32 + C.TreeRight;
  const double *Threshold = M.F64 + C.TreeThreshold;

  int32_t *Node = S.Node;
  for (unsigned I = 0; I != kW; ++I)
    Node[I] = 0;

  for (;;) {
    // Gather stage (inherently per-element): each live lane stages its
    // split; leaves and idle lanes stage a self-loop (0 <= 0 picks Lo,
    // and Lo == the lane's own node).
    bool AnyInternal = false;
    for (unsigned I = 0; I != kW; ++I) {
      int32_t N = Node[I];
      int32_t F = Feature[N];
      if (F >= 0 && I < Count) {
        AnyInternal = true;
        S.V[I] = Block[static_cast<unsigned>(F) * kW + I];
        S.T[I] = Threshold[N];
        S.Lo[I] = Left[N];
        S.Hi[I] = Right[N];
      } else {
        S.V[I] = 0.0;
        S.T[I] = 0.0;
        S.Lo[I] = N;
        S.Hi[I] = N;
      }
    }
    if (!AnyInternal)
      break;
    // Descend stage: value <= threshold picks the left child -- the
    // exact DecisionTree::predictLazy comparison, blended lane-wide.
    for (unsigned I = 0; I != kW; ++I)
      Node[I] = S.V[I] <= S.T[I] ? S.Lo[I] : S.Hi[I];
  }
  for (unsigned I = 0; I != Count; ++I)
    Out[I] = static_cast<unsigned>(Left[Node[I]]); // leaf: label
}

//===----------------------------------------------------------------------===//
// Bayes: lane-major log-posterior accumulation with per-lane early-exit
// retirement. Binning and the exp() of the posterior check stay scalar
// per element (sequential-compare semantics and libm exactness); the
// accumulator block and the fused first-max scan run across the lane.
//===----------------------------------------------------------------------===//

static void laneBayes(const LaneModelView &M,
                      const double *Block, unsigned Count, unsigned *Out,
                      const LaneScratchView &S) {
  const ml::CompiledClassifier &C = *M.C;
  const unsigned Classes = C.Classes, Bins = C.Bins;
  double *LogPost = S.LogPost; // lane-major: [K * kW + lane]
  const double *LogPrior = M.F64 + C.LogPriorBase;
  for (unsigned K = 0; K != Classes; ++K)
    for (unsigned I = 0; I != kW; ++I)
      LogPost[K * kW + I] = LogPrior[K];

  const int32_t *Order = M.I32 + C.OrderBase;
  for (unsigned I = 0; I != kW; ++I) {
    S.State[I] = I < Count ? 1 : 0;
    S.Best[I] = 0;
  }
  unsigned Remaining = Count;

  for (unsigned Pos = 0; Pos != C.OrderLen && Remaining != 0; ++Pos) {
    const unsigned Flat = static_cast<unsigned>(Order[Pos]);
    const double *Edges =
        M.F64 + C.EdgeBase + static_cast<size_t>(Pos) * (Bins - 1);
    const double *Table =
        M.F64 + C.LogProbBase + static_cast<size_t>(Pos) * Classes * Bins;

    // Acquire + accumulate per live lane: the bin search keeps the
    // scalar path's sequential early-exit compare, and each lane adds
    // its class row in the same K order the scalar loop uses.
    for (unsigned I = 0; I != kW; ++I) {
      if (!S.State[I])
        continue;
      double Value = Block[Flat * kW + I];
      unsigned R = 0;
      while (R < Bins - 1 && Value > Edges[R])
        ++R;
      const double *LP = Table + R;
      for (unsigned K = 0; K != Classes; ++K)
        LogPost[K * kW + I] += LP[static_cast<size_t>(K) * Bins];
    }

    // Fused first-max scan across the lane (strict <, ascending K:
    // identical tie-breaking to the scalar scan). Retired lanes compute
    // stale values that are never read.
#if PBT_LANE_HAVE_VEC
    LaneVD MaxLog = laneLoad(LogPost);
    LaneVM Best = laneSplatI(0);
    for (unsigned K = 1; K != Classes; ++K) {
      LaneVD LP = laneLoad(LogPost + static_cast<size_t>(K) * kW);
      LaneVM Mask = MaxLog < LP;
      MaxLog = laneSelect(Mask, LP, MaxLog);
      Best = laneSelectI(Mask, laneSplatI(K), Best);
    }
    laneStore(S.MaxLog, MaxLog);
    long long BestLane[kW];
    *reinterpret_cast<LaneVM *>(BestLane) = Best;
#else
    long long BestLane[kW];
    for (unsigned I = 0; I != kW; ++I) {
      S.MaxLog[I] = LogPost[I];
      BestLane[I] = 0;
    }
    for (unsigned K = 1; K != Classes; ++K)
      for (unsigned I = 0; I != kW; ++I)
        if (S.MaxLog[I] < LogPost[static_cast<size_t>(K) * kW + I]) {
          S.MaxLog[I] = LogPost[static_cast<size_t>(K) * kW + I];
          BestLane[I] = K;
        }
#endif

    // Early-exit check per live lane -- scalar exp in the scalar path's
    // exact order (Best's own term is the constant 1.0, see the scalar
    // kernel's derivation).
    for (unsigned I = 0; I != kW; ++I) {
      if (!S.State[I])
        continue;
      const unsigned BestK = static_cast<unsigned>(BestLane[I]);
      double Z = 0.0;
      for (unsigned K = 0; K != Classes; ++K)
        Z += K == BestK ? 1.0 : std::exp(LogPost[K * kW + I] - S.MaxLog[I]);
      double Posterior = 1.0 / Z;
      if (Posterior > C.PosteriorThreshold) {
        Out[I] = BestK;
        S.State[I] = 0;
        --Remaining;
      } else {
        S.Best[I] = static_cast<int32_t>(BestK);
      }
    }
  }
  // Lanes that never cleared the threshold answer with their last best
  // class (0 when the order is empty), like the scalar fallthrough.
  for (unsigned I = 0; I != Count; ++I)
    if (S.State[I])
      Out[I] = static_cast<unsigned>(S.Best[I]);
}

//===----------------------------------------------------------------------===//
// OneLevel: fused normalizer scale/offset and centroid distances across
// the lane. The scale == 0 zero-variance rule is uniform per feature,
// so it stays a per-feature scalar branch, not a per-lane blend.
//===----------------------------------------------------------------------===//

static void laneOneLevel(const LaneModelView &M,
                         const double *Block, unsigned Count, unsigned *Out,
                         const LaneScratchView &S) {
  const ml::CompiledClassifier &C = *M.C;
  const unsigned Dim = C.Dim;
  const double *Norm = M.F64 + C.NormBase;
  double *Row = S.Row; // lane-major: [F * kW + lane]

#if PBT_LANE_HAVE_VEC
  for (unsigned F = 0; F != Dim; ++F) {
    const double Offset = Norm[2 * F], Scale = Norm[2 * F + 1];
    LaneVD B = laneLoad(Block + static_cast<size_t>(F) * kW);
    LaneVD R = Scale != 0.0 ? (B - laneSplat(Offset)) / laneSplat(Scale)
                            : laneSplat(0.0);
    laneStore(Row + static_cast<size_t>(F) * kW, R);
  }
  const double *Centroids = M.F64 + C.CentroidBase;
  LaneVD BestD = laneSplat(std::numeric_limits<double>::max());
  LaneVM BestK = laneSplatI(0);
  for (unsigned K = 0; K != C.NumCentroids; ++K) {
    const double *P = Centroids + static_cast<size_t>(K) * Dim;
    LaneVD Sum = laneSplat(0.0);
    for (unsigned F = 0; F != Dim; ++F) {
      LaneVD Delta =
          laneSplat(P[F]) - laneLoad(Row + static_cast<size_t>(F) * kW);
      Sum += Delta * Delta;
    }
    LaneVM Mask = Sum < BestD; // strict <: first minimum, like scalar
    BestD = laneSelect(Mask, Sum, BestD);
    BestK = laneSelectI(Mask, laneSplatI(K), BestK);
  }
  long long BestLane[kW];
  *reinterpret_cast<LaneVM *>(BestLane) = BestK;
#else
  for (unsigned F = 0; F != Dim; ++F) {
    const double Offset = Norm[2 * F], Scale = Norm[2 * F + 1];
    for (unsigned I = 0; I != kW; ++I) {
      double B = Block[static_cast<size_t>(F) * kW + I];
      Row[static_cast<size_t>(F) * kW + I] =
          Scale != 0.0 ? (B - Offset) / Scale : 0.0;
    }
  }
  const double *Centroids = M.F64 + C.CentroidBase;
  double BestDLane[kW];
  long long BestLane[kW];
  for (unsigned I = 0; I != kW; ++I) {
    BestDLane[I] = std::numeric_limits<double>::max();
    BestLane[I] = 0;
  }
  for (unsigned K = 0; K != C.NumCentroids; ++K) {
    const double *P = Centroids + static_cast<size_t>(K) * Dim;
    for (unsigned I = 0; I != kW; ++I) {
      double Sum = 0.0;
      for (unsigned F = 0; F != Dim; ++F) {
        double Delta = P[F] - Row[static_cast<size_t>(F) * kW + I];
        Sum += Delta * Delta;
      }
      if (Sum < BestDLane[I]) {
        BestDLane[I] = Sum;
        BestLane[I] = K;
      }
    }
  }
#endif
  for (unsigned I = 0; I != Count; ++I)
    Out[I] = static_cast<unsigned>(
        M.I32[C.ClusterLandmarkBase + static_cast<size_t>(BestLane[I])]);
}

//===----------------------------------------------------------------------===//
// Entry: the same one-switch dispatch shape as CompiledModel::classify.
//===----------------------------------------------------------------------===//

void runtime::classifyLaneBlock(const LaneModelView &M, const double *Block,
                                unsigned Count, unsigned *Out,
                                const LaneScratchView &S) {
  assert(Count >= 1 && Count <= kW && "lane count out of range");
  switch (M.C->Kind) {
  case ml::CompiledKind::Constant:
  case ml::CompiledKind::MaxApriori:
    for (unsigned I = 0; I != Count; ++I)
      Out[I] = M.C->Landmark;
    return;
  case ml::CompiledKind::Tree:
    laneTree(M, Block, Count, Out, S);
    return;
  case ml::CompiledKind::Bayes:
    laneBayes(M, Block, Count, Out, S);
    return;
  case ml::CompiledKind::OneLevel:
    laneOneLevel(M, Block, Count, Out, S);
    return;
  }
  assert(false && "unknown compiled classifier kind");
}
