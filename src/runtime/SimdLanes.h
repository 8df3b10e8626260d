//===- runtime/SimdLanes.h - Lane-batched compiled classification ---------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vectorized half of the compiled serving path: classifyLaneBlock
/// classifies a *lane* of kLaneWidth inputs at a time over the
/// pointer-free CompiledModel arena. Inputs sit lane-major in a feature
/// block (Block[Flat * kLaneWidth + lane]), and the kernel vectorizes
/// ACROSS the lane -- decision trees walk level-synchronously (gather
/// each lane's node, compare, blend children, retired lanes self-loop on
/// their leaf), the flattened-Bayes log-posterior accumulates per class
/// for all lanes with per-lane early-exit retirement, and the one-level
/// baseline fuses normalizer scale/offset and centroid distances across
/// the lane.
///
/// Exactness is the design invariant, not an aspiration: every lane
/// element replays the scalar CompiledModel::classify arithmetic in the
/// same operation order (vectorizing across independent inputs never
/// reassociates any one input's arithmetic), and transcendentals
/// (std::exp in the Bayes early-exit) stay scalar per element. A lane
/// decision is therefore bit-identical to the scalar compiled decision,
/// which is in turn bit-identical to the interpreted classifier -- the
/// parity fuzzer pins the lane path against that oracle.
///
/// There is one kernel, written with portable GCC/Clang vector
/// extensions and compiled for the base target: a same-build A/B found
/// wider ISA-specific lanes no faster than width 4, while lane batching
/// itself beats the scalar compiled path.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_SIMDLANES_H
#define PBT_RUNTIME_SIMDLANES_H

#include "ml/CompiledArena.h"

#include <cstdint>

namespace pbt {
namespace runtime {

/// Inputs classified per lane block.
constexpr unsigned kLaneWidth = 4;

/// Raw pointer view of one lowered classifier inside its arena -- what
/// the kernel TU consumes (it must not depend on runtime/CompiledModel.h,
/// which sits above it).
struct LaneModelView {
  const double *F64 = nullptr;
  const int32_t *I32 = nullptr;
  const ml::CompiledClassifier *C = nullptr;
};

/// Lane-major working memory carved out of CompiledModel::Scratch. All
/// pointers are 64-byte aligned; per-lane arrays hold kLaneWidth
/// entries, blocks are indexed [row * kLaneWidth + lane].
struct LaneScratchView {
  double *LogPost = nullptr; ///< Classes * kLaneWidth accumulator block
  double *Row = nullptr;     ///< Dim * kLaneWidth normalized-row block
  double *V = nullptr;       ///< lane: staged feature values
  double *T = nullptr;       ///< lane: staged thresholds
  double *MaxLog = nullptr;  ///< lane: running Bayes maxima
  int32_t *Node = nullptr;   ///< lane: tree cursor / centroid best
  int32_t *Lo = nullptr;     ///< lane: staged left children
  int32_t *Hi = nullptr;     ///< lane: staged right children
  int32_t *Best = nullptr;   ///< lane: Bayes best class
  int32_t *State = nullptr;  ///< lane: 1 = still classifying
};

/// Classifies \p Count (1..kLaneWidth) inputs whose flat features sit
/// lane-major in \p Block (Block[F * kLaneWidth + lane]), writing each
/// lane's chosen label to Out[lane]. Idle lanes (>= Count) are computed
/// and discarded; Block rows must span every flat feature the classifier
/// can touch.
void classifyLaneBlock(const LaneModelView &M, const double *Block,
                       unsigned Count, unsigned *Out,
                       const LaneScratchView &S);

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_SIMDLANES_H
