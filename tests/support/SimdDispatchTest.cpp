//===- tests/support/SimdDispatchTest.cpp ------------------------------------=//
//
// The host SIMD tier policy that labels run records: tier names
// round-trip through the PBT_SIMD parser, and override resolution only
// ever clamps DOWN (a request above the host's capability must never
// report a tier the host lacks).
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

#include <gtest/gtest.h>

#include <string>

using namespace pbt;
using support::SimdTier;

namespace {

TEST(SimdDispatchTest, TierNamesRoundTripThroughParser) {
  for (SimdTier Tier :
       {SimdTier::Scalar, SimdTier::Sse42, SimdTier::Avx2}) {
    SimdTier Parsed = SimdTier::Scalar;
    ASSERT_TRUE(support::parseSimdTier(support::simdTierName(Tier), Parsed))
        << support::simdTierName(Tier);
    EXPECT_EQ(Parsed, Tier);
  }
}

TEST(SimdDispatchTest, ParserRejectsUnknownText) {
  SimdTier Out = SimdTier::Avx2;
  EXPECT_FALSE(support::parseSimdTier(nullptr, Out));
  EXPECT_FALSE(support::parseSimdTier("", Out));
  EXPECT_FALSE(support::parseSimdTier("avx512", Out));
  EXPECT_FALSE(support::parseSimdTier("SSE42", Out)); // names are lowercase
  // A failed parse must leave the output untouched.
  EXPECT_EQ(Out, SimdTier::Avx2);
}

TEST(SimdDispatchTest, ClampNeverRisesAboveDetected) {
  using support::clampSimdTier;
  EXPECT_EQ(clampSimdTier(SimdTier::Avx2, SimdTier::Scalar),
            SimdTier::Scalar);
  EXPECT_EQ(clampSimdTier(SimdTier::Avx2, SimdTier::Sse42), SimdTier::Sse42);
  EXPECT_EQ(clampSimdTier(SimdTier::Scalar, SimdTier::Avx2),
            SimdTier::Scalar);
  EXPECT_EQ(clampSimdTier(SimdTier::Sse42, SimdTier::Sse42),
            SimdTier::Sse42);
}

TEST(SimdDispatchTest, ResolutionUsesDetectedUnlessValidOverride) {
  using support::resolveSimdTier;
  // No/invalid override: serve at the detected tier.
  EXPECT_EQ(resolveSimdTier(nullptr, SimdTier::Avx2), SimdTier::Avx2);
  EXPECT_EQ(resolveSimdTier("", SimdTier::Sse42), SimdTier::Sse42);
  EXPECT_EQ(resolveSimdTier("turbo", SimdTier::Avx2), SimdTier::Avx2);
  // Valid override: clamped against the detected tier.
  EXPECT_EQ(resolveSimdTier("scalar", SimdTier::Avx2), SimdTier::Scalar);
  EXPECT_EQ(resolveSimdTier("sse42", SimdTier::Avx2), SimdTier::Sse42);
  EXPECT_EQ(resolveSimdTier("avx2", SimdTier::Scalar), SimdTier::Scalar);
  // The process-wide tier never rises above the host's.
  EXPECT_LE(static_cast<int>(support::activeSimdTier()),
            static_cast<int>(support::detectSimdTier()));
}

} // namespace
