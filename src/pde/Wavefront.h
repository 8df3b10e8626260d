//===- pde/Wavefront.h - Wavefront order for in-place sweeps ---------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order in which the Gauss-Seidel/SOR smoothers (smoothSOR,
/// helmholtzSmoothSOR) run their in-place lexicographic sweeps.
///
/// A lexicographic sweep makes every node wait on the value just written
/// to its left: one latency chain per row. The sweeps are one sequence
/// of items (a (sweep, row) pair in 2D, a (sweep, K-line) pair in 3D),
/// and node J of item T reads or overwrites only nodes J' <= J + 1 of
/// earlier items. So kWavefrontLanes consecutive items can run as a
/// wavefront: at step C lane L updates node C - L, lanes in item order.
/// Every node (T', J') that (T, J) depends on has T' < T and
/// T' + J' <= T + J, so it runs first, and each node sees exactly the
/// operands of the sequential order -- the same bits -- while the lanes'
/// latency chains overlap.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_PDE_WAVEFRONT_H
#define PBT_PDE_WAVEFRONT_H

#include <cstddef>

namespace pbt {
namespace pde {

/// Items in flight. Fixed by measurement, not a tunable: it changes speed
/// only, never a result bit or a cost charge. Per-node times of 100 SOR
/// sweeps on 33^2 / 10 on 17^3 (Release, x86-64): 2 lanes 2.8 / 6.5 ns,
/// 3 lanes 2.5 / 5.2, 4 lanes 1.9 / 4.6, 6 lanes 1.6 / 5.3, 8 lanes
/// 2.2 / 6.9; the lexicographic loops took 4.1 / 13.6.
inline constexpr size_t kWavefrontLanes = 4;

/// Runs \p Items items of \p Nodes nodes each with the result of the
/// lexicographic order
///
///     for (T = 0; T != Items; ++T) {
///       Start(0, T);
///       for (J = 1; J <= Nodes; ++J)
///         Update(0, J);
///     }
///
/// Start(L, T) binds lane L (< kWavefrontLanes) to item T; Update(L, J)
/// updates node J of lane L's item. The ramp-up needs at least
/// kWavefrontLanes nodes per item; shorter items, and the items left
/// over after the last full group, run in the plain order on lane 0.
template <typename StartFn, typename UpdateFn>
inline void runWavefront(size_t Items, size_t Nodes, StartFn Start,
                         UpdateFn Update) {
  size_t T = 0;
  if (Nodes >= kWavefrontLanes)
    for (; T + kWavefrontLanes <= Items; T += kWavefrontLanes) {
      for (size_t L = 0; L != kWavefrontLanes; ++L)
        Start(L, T + L);
      for (size_t C = 1; C != kWavefrontLanes; ++C)
        for (size_t L = 0; L != C; ++L)
          Update(L, C - L);
      for (size_t C = kWavefrontLanes; C <= Nodes; ++C)
        for (size_t L = 0; L != kWavefrontLanes; ++L)
          Update(L, C - L);
      for (size_t C = Nodes + 1; C != Nodes + kWavefrontLanes; ++C)
        for (size_t L = C - Nodes; L != kWavefrontLanes; ++L)
          Update(L, C - L);
    }
  for (; T != Items; ++T) {
    Start(0, T);
    for (size_t J = 1; J <= Nodes; ++J)
      Update(0, J);
  }
}

} // namespace pde
} // namespace pbt

#endif // PBT_PDE_WAVEFRONT_H
