//===- support/SimdDispatch.cpp ---------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

#include <cstdlib>
#include <cstring>

using namespace pbt;
using namespace pbt::support;

const char *support::simdTierName(SimdTier Tier) {
  switch (Tier) {
  case SimdTier::Scalar:
    return "scalar";
  case SimdTier::Sse42:
    return "sse42";
  case SimdTier::Avx2:
    return "avx2";
  }
  return "scalar";
}

bool support::parseSimdTier(const char *Text, SimdTier &Out) {
  if (!Text)
    return false;
  if (std::strcmp(Text, "scalar") == 0) {
    Out = SimdTier::Scalar;
    return true;
  }
  if (std::strcmp(Text, "sse42") == 0) {
    Out = SimdTier::Sse42;
    return true;
  }
  if (std::strcmp(Text, "avx2") == 0) {
    Out = SimdTier::Avx2;
    return true;
  }
  return false;
}

SimdTier support::detectSimdTier() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2"))
    return SimdTier::Avx2;
  if (__builtin_cpu_supports("sse4.2"))
    return SimdTier::Sse42;
#endif
  return SimdTier::Scalar;
}

SimdTier support::resolveSimdTier(const char *EnvValue, SimdTier Detected) {
  SimdTier Requested;
  if (!parseSimdTier(EnvValue, Requested))
    return Detected;
  return clampSimdTier(Requested, Detected);
}

SimdTier support::activeSimdTier() {
  static const SimdTier Active =
      resolveSimdTier(std::getenv("PBT_SIMD"), detectSimdTier());
  return Active;
}
