//===- tests/store/FaultWallTest.cpp -----------------------------------------=//
//
// The randomized kill-during-publish wall: hundreds of staged rollouts
// of a real trained model through a RolloutController, each cycle
// arming one randomly chosen failpoint at a random hit, with a serving
// replica (a store follower) synced after every cycle. Crash-class
// triggers kill the publisher mid-protocol; the wall restarts it from
// the store like a supervisor and requires resume() to succeed every
// time.
// The safety property under test: across every injected crash and
// corruption, no replica EVER serves decisions that diverge from the
// golden decisions its epoch produced the first time it served -- a
// torn read that reached serving would show up exactly there.
//
// StoreRecoveryTest pins each crash window individually; this wall is
// the volume/interleaving coverage over the same protocol (the ISSUE's
// ">= 200 injected points, zero torn reads" acceptance gate).
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pbt;
using rollout::RolloutController;
using support::FaultCrash;
using support::FaultInjector;
using support::FaultPoint;

namespace {

constexpr double kScale = 0.1;

/// The sort1 model this wall publishes over and over, trained once per
/// process (the AdaptiveServiceTest idiom).
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

TEST(FaultWallTest, RandomizedKillDuringPublishConvergesEveryTime) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr Program =
      F.makeProgram(kScale, F.defaultProgramSeed());

  std::string Dir = ::testing::TempDir() + "pbt-fault-wall-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);

  rollout::RolloutOptions RO;
  RO.ShadowSample = 8; // keep per-cycle scoring cheap; volume is the point
  RO.KeepFinished = 3; // keep gc busy reclaiming finished epochs

  auto Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
  ASSERT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);
  // Canary + one follower is enough fleet.
  rollout::ServingFollower Follower(*Program, Dir);

  // Golden decisions: first time an epoch serves anywhere, its probe
  // choices are the truth; every later sighting must reproduce them.
  // The follower syncs onto CURRENT first (a refused image is counted
  // and the held epoch keeps serving).
  std::vector<size_t> Probe;
  for (size_t I = 0; I != std::min<size_t>(16, Program->numInputs()); ++I)
    Probe.push_back(I);
  std::map<uint64_t, std::vector<unsigned>> Golden;
  auto checkGolden = [&] {
    (void)Follower.sync();
    for (rollout::ServingFollower *R : {&Ctl->canary(), &Follower}) {
      if (!R->serving())
        continue;
      std::vector<unsigned> Choices;
      for (size_t Input : Probe)
        Choices.push_back(R->service().decide(Input).Landmark);
      auto It = Golden.find(R->epoch());
      if (It == Golden.end())
        Golden.emplace(R->epoch(), std::move(Choices));
      else
        ASSERT_EQ(It->second, Choices)
            << (R == &Follower ? "follower" : "canary")
            << " diverged from golden on epoch " << R->epoch()
            << " -- a torn read reached serving";
    }
  };
  checkGolden();

  const FaultPoint CrashPoints[] = {
      FaultPoint::TornWrite,
      FaultPoint::CrashBeforeRename,
      FaultPoint::CrashBeforeManifest,
      FaultPoint::CrashBetweenManifestAndCurrent,
  };
  const FaultPoint DegradePoints[] = {
      FaultPoint::CorruptChecksum,
      FaultPoint::FsyncFail,
      FaultPoint::FsyncSlow,
  };

  support::Rng WallRng(0xFA17AB1E);
  FaultInjector &Inj = FaultInjector::instance();
  Inj.reset();

  auto drainTriggered = [&Inj] {
    uint64_t N = 0;
    for (unsigned P = 0; P != support::kNumFaultPoints; ++P)
      N += Inj.triggered(static_cast<FaultPoint>(P));
    Inj.reset();
    return N;
  };

  uint64_t Injected = 0, Crashes = 0, Recoveries = 0;
  unsigned Cycle = 0;
  const uint64_t WantInjected = 200;
  const unsigned MaxCycles = 600; // safety valve, never the budget

  for (; Injected < WantInjected && Cycle != MaxCycles; ++Cycle) {
    serialize::TrainedModel Candidate = cloneModel(modelBytes());
    // Every third candidate is degraded (landmark-rotated) so rollback
    // interleaves with promotion in the crash schedule.
    if (Cycle % 3 == 2 && Candidate.System.L1.Landmarks.size() > 1)
      std::rotate(Candidate.System.L1.Landmarks.begin(),
                  Candidate.System.L1.Landmarks.begin() + 1,
                  Candidate.System.L1.Landmarks.end());

    // Crash points arm at hit 0 (their site is reached at most once per
    // cycle); fsync-class points get a random hit so the same fault
    // lands on the image, manifest, or CURRENT write.
    if (WallRng.index(2) == 0)
      Inj.arm(CrashPoints[WallRng.index(std::size(CrashPoints))], 0);
    else
      Inj.arm(DegradePoints[WallRng.index(std::size(DegradePoints))],
              WallRng.index(3));

    RolloutController::CycleReport Report;
    try {
      serialize::LoadStatus St = Ctl->rollout(std::move(Candidate), Report);
      (void)St; // a refused rollout (injected fsync failure) is fine
    } catch (const FaultCrash &) {
      ++Crashes;
      Injected += drainTriggered();
      // The publisher died mid-protocol. Restart it from the directory
      // exactly as the crash left it; resume must always find durable
      // truth. The follower, a separate serving replica, lives on.
      Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
      ASSERT_TRUE(Ctl->resume().Ok)
          << "recovery failed after injected crash, cycle " << Cycle;
      ++Recoveries;
      checkGolden();
      continue;
    }
    Injected += drainTriggered();
    checkGolden();
  }
  Inj.reset();

  EXPECT_GE(Injected, WantInjected)
      << "wall exhausted " << MaxCycles << " cycles";
  EXPECT_EQ(Crashes, Recoveries);
  EXPECT_GT(Crashes, 0u) << "the schedule never crashed the fleet";
  EXPECT_GT(Ctl->currentEpoch(), 1u) << "no rollout ever promoted";

  // Torn reads were prevented (checksums rejected images), never served
  // (checkGolden would have failed above). rejected() is not asserted
  // > 0: whether a *reader* ever raced a bad image depends on the
  // schedule; the invariant is that serving never diverged.

  std::filesystem::remove_all(Dir);
}

} // namespace
