//===- tests/rollout/RolloutTest.cpp -----------------------------------------=//
//
// The staged rollout state machine on the happy and unhappy paths:
// bootstrap seeding, canary-gated promotion of an equal candidate,
// rollback of a degraded one (with the canary reverting to the champion
// it never stopped trusting), resume after a fleet kill, and the
// provenance/validation walls at the edges. Serving replicas are store
// followers the test owns and syncs after each cycle, the way pbt-serve
// store tenants follow the store. The store-level crash windows live in
// tests/store/; this file is about the machine above them.
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pbt;
using rollout::RolloutController;
using rollout::ServingFollower;

namespace {

constexpr double kScale = 0.1;

const std::string &modelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    M.System.Data.reset();
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

serialize::TrainedModel cloneModel(const std::string &Bytes) {
  serialize::TrainedModel M;
  EXPECT_TRUE(serialize::loadModel(Bytes, M).Ok);
  return M;
}

serialize::TrainedModel degradedModel() {
  serialize::TrainedModel M = cloneModel(modelBytes());
  EXPECT_GT(M.System.L1.Landmarks.size(), 1u);
  std::rotate(M.System.L1.Landmarks.begin(),
              M.System.L1.Landmarks.begin() + 1,
              M.System.L1.Landmarks.end());
  return M;
}

class RolloutTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    Program = F.makeProgram(kScale, F.defaultProgramSeed());
    Dir = ::testing::TempDir() + "pbt-rollout-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override {
    support::FaultInjector::instance().reset();
    std::filesystem::remove_all(Dir);
  }

  std::unique_ptr<RolloutController> makeStarted() {
    rollout::RolloutOptions RO;
    RO.ShadowSample = 8;
    auto Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
    EXPECT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);
    return Ctl;
  }

  /// \p N serving replicas following the store, synced onto CURRENT.
  std::vector<std::unique_ptr<ServingFollower>> syncedFollowers(size_t N) {
    std::vector<std::unique_ptr<ServingFollower>> Out;
    for (size_t I = 0; I != N; ++I) {
      Out.push_back(std::make_unique<ServingFollower>(*Program, Dir));
      EXPECT_TRUE(Out.back()->sync().Ok) << "follower " << I;
    }
    return Out;
  }

  registry::ProgramPtr Program;
  std::string Dir;
};

TEST_F(RolloutTest, StartSeedsTheBootstrapEpochFleetWide) {
  auto Ctl = makeStarted();
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  auto Followers = syncedFollowers(2);
  std::vector<ServingFollower *> Fleet = {&Ctl->canary()};
  for (auto &F : Followers)
    Fleet.push_back(F.get());
  for (size_t I = 0; I != Fleet.size(); ++I) {
    ServingFollower &R = *Fleet[I];
    ASSERT_TRUE(R.serving()) << "replica " << I;
    EXPECT_EQ(R.epoch(), 1u);
    // The image is self-describing: Meta.Epoch matches the store epoch
    // it landed as.
    EXPECT_EQ(R.service().model().Meta.Epoch, 1u);
  }
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Active);

  // start() on a store that already has a promoted epoch does not
  // re-seed: the existing truth wins.
  auto Again = makeStarted();
  EXPECT_EQ(Again->currentEpoch(), 1u);
  EXPECT_EQ(Again->modelStore().records().size(), 1u);
}

TEST_F(RolloutTest, EqualCandidatePromotesThroughTheCanary) {
  auto Ctl = makeStarted();
  auto Followers = syncedFollowers(2);
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);

  EXPECT_TRUE(Report.Promoted);
  EXPECT_EQ(Report.CandidateEpoch, 2u);
  // An identical model scores identically; the canary is a regression
  // gate, so equality passes.
  EXPECT_DOUBLE_EQ(Report.CandidateScore, Report.ChampionScore);
  EXPECT_GT(Report.ChampionScore, 0.0);

  EXPECT_EQ(Ctl->currentEpoch(), 2u);
  EXPECT_EQ(Ctl->canary().epoch(), 2u);
  EXPECT_EQ(Ctl->canary().service().model().Meta.Epoch, 2u);
  for (auto &F : Followers) {
    EXPECT_EQ(F->epoch(), 1u); // not yet synced
    ASSERT_TRUE(F->sync().Ok);
    EXPECT_EQ(F->epoch(), 2u);
    EXPECT_EQ(F->service().model().Meta.Epoch, 2u);
  }
  EXPECT_EQ(Ctl->modelStore().record(2)->State, store::EpochState::Active);
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Retired);
}

TEST_F(RolloutTest, DegradedCandidateRollsBackAndTheCanaryReverts) {
  auto Ctl = makeStarted();
  auto Followers = syncedFollowers(2);
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(degradedModel(), Report).Ok);

  EXPECT_FALSE(Report.Promoted);
  EXPECT_GT(Report.CandidateScore, Report.ChampionScore);
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  EXPECT_EQ(Ctl->modelStore().record(2)->State,
            store::EpochState::RolledBack);
  // The canary served the candidate during scoring but reverted: the
  // whole fleet is back on the champion.
  EXPECT_EQ(Ctl->canary().epoch(), 1u);
  for (auto &F : Followers) {
    ASSERT_TRUE(F->sync().Ok);
    EXPECT_EQ(F->epoch(), 1u);
  }
  EXPECT_EQ(Ctl->canary().swaps(), 2u); // to the candidate and back
  EXPECT_EQ(Followers[0]->swaps(), 0u);
}

TEST_F(RolloutTest, ResumeConvergesAKilledFleetOntoCurrent) {
  {
    auto Ctl = makeStarted();
    RolloutController::CycleReport Report;
    ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);
    ASSERT_EQ(Ctl->currentEpoch(), 2u);
    // The fleet dies here (handles dropped, store directory survives).
  }
  RolloutController Restarted(*Program, Dir);
  ASSERT_TRUE(Restarted.resume().Ok);
  EXPECT_EQ(Restarted.currentEpoch(), 2u);
  ASSERT_TRUE(Restarted.canary().serving());
  EXPECT_EQ(Restarted.canary().epoch(), 2u);
  for (auto &F : syncedFollowers(2)) {
    ASSERT_TRUE(F->serving());
    EXPECT_EQ(F->epoch(), 2u);
  }
}

TEST_F(RolloutTest, ResumeRefusesAStoreThatWasNeverStarted) {
  RolloutController Ctl(*Program, Dir, {});
  serialize::LoadStatus St = Ctl.resume();
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("no promoted epoch"), std::string::npos);
}

TEST_F(RolloutTest, RolloutRequiresAServingFleet) {
  RolloutController Ctl(*Program, Dir, {});
  RolloutController::CycleReport Report;
  EXPECT_FALSE(Ctl.rollout(cloneModel(modelBytes()), Report).Ok);
}

TEST_F(RolloutTest, StartValidatesTheSeedAgainstTheProgram) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr Wrong = F.makeProgram(kScale, F.defaultProgramSeed());
  RolloutController Ctl(*Wrong, Dir, {});
  EXPECT_FALSE(Ctl.start(cloneModel(modelBytes())).Ok);
}

TEST_F(RolloutTest, CanaryAdoptRefusesAnUnknownEpoch) {
  auto Ctl = makeStarted();
  ServingFollower &Canary = Ctl->canary();
  uint64_t Before = Canary.rejected();
  EXPECT_FALSE(Canary.adopt(99).Ok);
  EXPECT_EQ(Canary.rejected(), Before + 1);
  EXPECT_EQ(Canary.epoch(), 1u); // still serving the champion
}

TEST_F(RolloutTest, ResumeRefusesAForeignProgramsEpoch) {
  auto Ctl = makeStarted();
  uint64_t Before = Ctl->canary().rejected();

  // A trainer for another program (same benchmark and scale, different
  // input seed) promotes straight through the store, past rollout()'s
  // validation, while this publisher is idle. Features and config space
  // match, so only provenance tells the image apart.
  serialize::TrainedModel Foreign = cloneModel(modelBytes());
  Foreign.Meta.ProgramSeed += 1;
  Foreign.Meta.Epoch = 2;
  {
    store::ModelStore Writer(Dir);
    ASSERT_TRUE(Writer.open().Ok);
    uint64_t Landed = 0;
    ASSERT_TRUE(
        Writer.publish(serialize::serializeModel(Foreign), Landed).Ok);
    ASSERT_EQ(Landed, 2u);
    ASSERT_TRUE(Writer.promote(Landed).Ok);
  }

  serialize::LoadStatus St = Ctl->resume();
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("another program"), std::string::npos) << St.Error;
  EXPECT_EQ(Ctl->canary().epoch(), 1u); // keeps serving the champion
  EXPECT_EQ(Ctl->canary().service().model().Meta.ProgramSeed,
            cloneModel(modelBytes()).Meta.ProgramSeed);
  EXPECT_EQ(Ctl->canary().rejected(), Before + 1);
}

} // namespace
