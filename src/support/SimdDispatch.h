//===- support/SimdDispatch.h - Host SIMD tier detection ------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host SIMD tier detection, for labelling measurement records. The
/// host's best tier is probed once (CPUID via __builtin_cpu_supports on
/// x86; everything else is Scalar), and the `PBT_SIMD` environment
/// variable can force a LOWER tier -- `scalar`, `sse42` or `avx2`. A
/// request above what the host supports clamps down to the detected
/// tier.
///
/// Nothing in serving reads the tier: the lane kernel
/// (runtime/SimdLanes.h) is one portable build, so the tier and its
/// override only change the host-tier field that run records carry.
///
/// The tiers order Scalar < Sse42 < Avx2, so "best available" is a
/// plain max and clamping is a plain min.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_SIMDDISPATCH_H
#define PBT_SUPPORT_SIMDDISPATCH_H

#include <cstdint>

namespace pbt {
namespace support {

enum class SimdTier : uint8_t {
  Scalar = 0,
  Sse42 = 1,
  Avx2 = 2,
};

/// Stable lowercase name ("scalar" / "sse42" / "avx2"); what PBT_SIMD
/// accepts and what reports print.
const char *simdTierName(SimdTier Tier);

/// Parses a PBT_SIMD value. Returns false (leaving \p Out untouched) on
/// anything but the three tier names.
bool parseSimdTier(const char *Text, SimdTier &Out);

/// The best tier the host can execute, ignoring any override.
SimdTier detectSimdTier();

/// Pure override policy: the tier to report given a requested and a
/// detected tier (min of the two -- never above the host).
inline SimdTier clampSimdTier(SimdTier Requested, SimdTier Detected) {
  return Requested < Detected ? Requested : Detected;
}

/// Resolves an override string against a detected tier: empty/invalid
/// text keeps the detected tier, a valid one clamps as above. Split out
/// from the environment read so tests can drive it directly.
SimdTier resolveSimdTier(const char *EnvValue, SimdTier Detected);

/// The process-wide tier: detectSimdTier() filtered through the PBT_SIMD
/// environment variable, computed once and cached.
SimdTier activeSimdTier();

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_SIMDDISPATCH_H
