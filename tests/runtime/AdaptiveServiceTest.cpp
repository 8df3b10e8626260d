//===- tests/runtime/AdaptiveServiceTest.cpp ---------------------------------=//
//
// The adaptive serving wrapper in isolation: construction/validation,
// parity with PredictionService on the same model, epoch-keyed decision
// caching across hot swaps, and the concurrency stress the subsystem's
// thread contract promises -- many small decideBatch calls on the
// serving thread racing a hot-swapper thread (the TSan target).
//
//===----------------------------------------------------------------------===//

#include "runtime/AdaptiveService.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"
#include "runtime/SubsetProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace pbt;

namespace {

constexpr double kScale = 0.1;

/// Trains the sort1 model once per process; tests clone it through the
/// serializer (TrainedModel is move-only).
const std::string &modelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

/// A second, genuinely different model: trained on the first half of the
/// inputs only.
const std::string &altModelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    std::vector<size_t> Half;
    for (size_t I = 0; I != P->numInputs() / 2; ++I)
      Half.push_back(I);
    runtime::SubsetProgram View(*P, Half);
    core::PipelineOptions Opt =
        registry::reservoirRetrainOptions(F, kScale, Half.size(), nullptr);
    core::TrainedSystem Sys = core::trainSystem(View, Opt);
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), View, std::move(Sys));
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

serialize::TrainedModel cloneModel(const std::string &Bytes) {
  serialize::TrainedModel M;
  EXPECT_TRUE(serialize::loadModel(Bytes, M).Ok);
  return M;
}

registry::ProgramPtr makeProgram() {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  return F.makeProgram(kScale, F.defaultProgramSeed());
}

TEST(AdaptiveServiceTest, RejectsMismatchedProgram) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr Wrong = F.makeProgram(kScale, F.defaultProgramSeed());
  runtime::AdaptiveService Service(*Wrong, cloneModel(modelBytes()));
  EXPECT_FALSE(Service.ready());
  EXPECT_FALSE(Service.status().Ok);
  EXPECT_FALSE(Service.status().Error.empty());
}

TEST(AdaptiveServiceTest, DecisionsMatchPredictionService) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Adaptive(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Adaptive.ready()) << Adaptive.status().Error;

  runtime::PredictionService Reference(cloneModel(modelBytes()));
  ASSERT_TRUE(Reference.bind(*P).Ok);

  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision A = Adaptive.decide(I);
    runtime::PredictionService::Decision R = Reference.decide(I);
    EXPECT_EQ(A.Landmark, R.Landmark) << "input " << I;
    EXPECT_DOUBLE_EQ(A.FeatureCost, R.FeatureCost);
    EXPECT_EQ(A.FeaturesExtracted, R.FeaturesExtracted);
    EXPECT_EQ(A.Config->values(), R.Config->values());
  }
  // Repeat decisions are memoized with identical semantics.
  runtime::AdaptiveService::Decision Second = Adaptive.decide(0);
  EXPECT_TRUE(Second.Memoized);
  EXPECT_EQ(Second.FeatureCost, 0.0);
}

TEST(AdaptiveServiceTest, ServeObservesIntoMonitorAndReservoir) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  O.ReservoirSize = 8;
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()), O);
  ASSERT_TRUE(Service.ready());

  for (size_t I = 0; I != 12; ++I)
    Service.serve(I % P->numInputs());
  EXPECT_EQ(Service.monitor().observations(), 12u);
  EXPECT_EQ(Service.reservoir().seen(), 12u);
  EXPECT_EQ(Service.reservoir().size(), 8u);
  // The monitor pre-extracts the full feature vector; its cost is
  // accounted apart from per-decision cost.
  EXPECT_GT(Service.stats().MonitorCostPaid, 0.0);
  EXPECT_EQ(Service.stats().Decisions, 12u);
}

TEST(AdaptiveServiceTest, SwapModelBumpsEpochAndInvalidatesDecisionCache) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());
  uint64_t E0 = Service.epoch();

  std::vector<runtime::AdaptiveService::Decision> Before;
  for (size_t I = 0; I != P->numInputs(); ++I)
    Before.push_back(Service.decide(I));

  ASSERT_TRUE(Service.swapModel(cloneModel(altModelBytes())).Ok);
  EXPECT_EQ(Service.epoch(), E0 + 1);
  EXPECT_EQ(Service.stats().Swaps, 1u);

  // Decisions now come from the new model -- cached landmarks from the
  // old epoch must not leak through. Features stay memoized, so any
  // recomputation is free of extraction cost.
  runtime::PredictionService Alt(cloneModel(altModelBytes()));
  ASSERT_TRUE(Alt.bind(*P).Ok);
  bool AnyChanged = false;
  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision D = Service.decide(I);
    EXPECT_EQ(D.Landmark, Alt.decide(I).Landmark) << "input " << I;
    EXPECT_EQ(D.Epoch, E0 + 1);
    EXPECT_EQ(D.FeatureCost, 0.0) << "re-extracted a memoized feature";
    AnyChanged |= D.Landmark != Before[I].Landmark;
  }
  EXPECT_TRUE(AnyChanged)
      << "the two models decide identically everywhere; the cache "
         "invalidation is untested";

  // Old decisions' configurations stay valid through their epoch holds.
  for (size_t I = 0; I != Before.size(); ++I) {
    ASSERT_NE(Before[I].Config, nullptr);
    EXPECT_EQ(Before[I].Config->values(),
              Before[I].Hold->Model.System.L1.Landmarks[Before[I].Landmark]
                  .values());
  }
}

TEST(AdaptiveServiceTest, SwapModelValidatesThePushedModel) {
  // An operator-pushed model that does not fit the bound program must be
  // rejected without disturbing the serving epoch.
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
  core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
  serialize::TrainedModel Foreign = serialize::makeModel(
      "binpacking", kScale, F.defaultProgramSeed(), *P, std::move(Sys));

  registry::ProgramPtr Sort = makeProgram();
  runtime::AdaptiveService Service(*Sort, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());
  uint64_t E0 = Service.epoch();

  serialize::LoadStatus Pushed = Service.swapModel(std::move(Foreign));
  EXPECT_FALSE(Pushed.Ok);
  EXPECT_FALSE(Pushed.Error.empty());
  EXPECT_EQ(Service.epoch(), E0);
  EXPECT_EQ(Service.stats().Swaps, 0u);
}

TEST(AdaptiveServiceTest, ScratchAndMonitorFollowTheModelAcrossSwaps) {
  // Start from the SMALLER model (2 landmarks) and swap in the larger
  // one (4-class incremental Bayes): the serving thread's scratch and
  // the drift monitor's cluster/decision arity must both be re-sized for
  // the new epoch, or decide()/serve() index out of bounds.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  runtime::AdaptiveService Service(*P, cloneModel(altModelBytes()), O);
  ASSERT_TRUE(Service.ready());
  size_t SmallLandmarks =
      Service.currentEpoch()->Model.System.L1.Landmarks.size();
  for (size_t I = 0; I != 8; ++I)
    Service.serve(I);

  ASSERT_TRUE(Service.swapModel(cloneModel(modelBytes())).Ok);
  size_t BigLandmarks =
      Service.currentEpoch()->Model.System.L1.Landmarks.size();
  ASSERT_GT(BigLandmarks, SmallLandmarks)
      << "models coincide in landmark count; the resize goes untested";

  runtime::PredictionService Reference(cloneModel(modelBytes()));
  ASSERT_TRUE(Reference.bind(*P).Ok);
  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision D = Service.serve(I);
    EXPECT_EQ(D.Landmark, Reference.decide(I).Landmark) << "input " << I;
  }
  // serve() rebased the monitor to the pushed model on first contact.
  EXPECT_EQ(Service.monitor().numDecisions(), BigLandmarks);
}

// The stress half of the test wall, in the daemon's shape: the serving
// thread runs many small batches while another thread hot-swaps models
// as fast as it can. Every batch must be internally consistent (one
// epoch per batch, every landmark valid for that epoch's model); TSan
// verifies the absence of data races in CI.
TEST(AdaptiveServiceStressTest, ConcurrentHotSwapUnderBatchLoad) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());

  constexpr uint64_t kSwaps = 40;
  std::atomic<uint64_t> SwapsDone{0};
  std::thread Swapper([&] {
    // Pre-clone outside the race so each swap is quick and the load/swap
    // interleaving is dense.
    for (uint64_t I = 0; I != kSwaps; ++I) {
      if (Service.swapModel(cloneModel(I % 2 ? altModelBytes() : modelBytes()))
              .Ok)
        SwapsDone.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<size_t> Batch;
  for (size_t I = 0; I != 32; ++I)
    Batch.push_back(I % P->numInputs());

  // Serve until every swap has landed (bounded in case the swapper
  // starves), then a few more batches against the final epoch.
  size_t Batches = 0;
  uint64_t MaxEpochSeen = 0;
  for (; Batches < 20000 &&
         SwapsDone.load(std::memory_order_relaxed) < kSwaps;
       ++Batches) {
    std::vector<runtime::AdaptiveService::Decision> Out =
        Service.decideBatch(Batch);
    ASSERT_EQ(Out.size(), Batch.size());
    uint64_t Epoch = Out.front().Epoch;
    MaxEpochSeen = std::max(MaxEpochSeen, Epoch);
    for (const runtime::AdaptiveService::Decision &D : Out) {
      // One epoch snapshot per batch, even with the swapper racing.
      ASSERT_EQ(D.Epoch, Epoch) << "batch mixed epochs";
      ASSERT_NE(D.Hold, nullptr);
      ASSERT_LT(D.Landmark, D.Hold->Model.System.L1.Landmarks.size());
      ASSERT_EQ(D.Config,
                &D.Hold->Model.System.L1.Landmarks[D.Landmark]);
    }
  }
  Swapper.join();
  for (size_t I = 0; I != 3; ++I, ++Batches)
    Service.decideBatch(Batch);

  EXPECT_EQ(SwapsDone.load(), kSwaps);
  EXPECT_EQ(Service.stats().Decisions, Batches * Batch.size());
  EXPECT_EQ(Service.stats().Swaps, kSwaps);
  EXPECT_GE(Service.epoch(), kSwaps);
  EXPECT_GT(MaxEpochSeen, 0u);
}

} // namespace
