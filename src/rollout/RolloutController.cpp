//===- rollout/RolloutController.cpp - Staged epoch rollout machine --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "runtime/AdaptiveService.h"
#include "support/Cost.h"
#include "support/Random.h"

#include <algorithm>
#include <utility>

namespace pbt {
namespace rollout {

using serialize::LoadStatus;

//===----------------------------------------------------------------------===//
// ServingFollower
//===----------------------------------------------------------------------===//

ServingFollower::ServingFollower(const runtime::TunableProgram &Program,
                                 std::string StoreDir)
    : StoreFollower(std::move(StoreDir),
                    [this, P = &Program](serialize::TrainedModel Model) {
                      auto Next = std::make_unique<runtime::PredictionService>(
                          std::move(Model));
                      LoadStatus St = Next->bind(*P);
                      if (St)
                        Service = std::move(Next);
                      return St;
                    }) {}

//===----------------------------------------------------------------------===//
// RolloutController
//===----------------------------------------------------------------------===//

RolloutController::RolloutController(const runtime::TunableProgram &Program,
                                     std::string StoreDir,
                                     RolloutOptions Options)
    : Program(Program), Store(StoreDir), Opts(Options),
      Canary(Program, StoreDir) {
  // Seeded shadow sample: distinct inputs via partial Fisher-Yates so
  // the canary verdict is reproducible per (seed, program).
  size_t N = Program.numInputs();
  std::vector<size_t> All(N);
  for (size_t I = 0; I != N; ++I)
    All[I] = I;
  size_t Want = std::min(Opts.ShadowSample == 0 ? N : Opts.ShadowSample, N);
  support::Rng Rng(Opts.ShadowSeed);
  for (size_t I = 0; I != Want; ++I) {
    size_t J = I + Rng.index(N - I);
    std::swap(All[I], All[J]);
  }
  All.resize(Want);
  Sample = std::move(All);
}

double RolloutController::shadowScore(runtime::PredictionService &Service) {
  double Total = 0.0;
  for (size_t Input : Sample) {
    runtime::PredictionService::Decision D = Service.decide(Input);
    Total += Program.runOnce(Input, *D.Config).TimeUnits;
  }
  return Sample.empty() ? 0.0 : Total / static_cast<double>(Sample.size());
}

LoadStatus RolloutController::start(const serialize::TrainedModel &Initial) {
  std::lock_guard<std::mutex> Lock(Mu);
  LoadStatus St = Store.open();
  if (!St)
    return St;
  if (Store.currentEpoch() == 0) {
    serialize::TrainedModel Seed;
    St = serialize::loadModel(serialize::serializeModel(Initial), Seed);
    if (!St)
      return St;
    St = serialize::validateAgainst(Seed, Program);
    if (!St)
      return St;
    // The bootstrap epoch: Meta.Epoch must match the store number the
    // image lands as, so stamp it before serializing. A store fresh or
    // recovered-to-empty always starts at the next free number.
    uint64_t Epoch = Store.records().empty()
                         ? 1
                         : Store.records().back().Epoch + 1;
    Seed.Meta.Epoch = Epoch;
    uint64_t Landed = 0;
    St = Store.publish(serialize::serializeModel(Seed), Landed);
    if (!St)
      return St;
    St = Store.promote(Landed);
    if (!St)
      return St;
  }
  return Canary.sync();
}

LoadStatus RolloutController::resume() {
  std::lock_guard<std::mutex> Lock(Mu);
  // Re-running open() is deliberate: recovery is idempotent, and a
  // supervisor resuming after a replica crash wants any interrupted
  // promotion rolled forward before the replacement process loads
  // CURRENT.
  LoadStatus St = Store.open();
  if (!St)
    return St;
  if (Store.currentEpoch() == 0)
    return LoadStatus::failure(
        "store '" + Store.dir() +
        "' has no promoted epoch to resume from (was it ever started?)");
  return Canary.sync();
}

LoadStatus RolloutController::rollout(serialize::TrainedModel Candidate,
                                      CycleReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  CycleReport Report;
  LoadStatus St = serialize::validateAgainst(Candidate, Program);
  if (!St)
    return St;
  if (!Canary.serving())
    return LoadStatus::failure("canary is not serving (call start() first)");

  // --- Publish: durable image + manifest record. ---
  support::WallTimer PublishTimer;
  uint64_t Epoch =
      Store.records().empty() ? 1 : Store.records().back().Epoch + 1;
  Candidate.Meta.Epoch = Epoch;
  uint64_t Landed = 0;
  St = Store.publish(serialize::serializeModel(Candidate), Landed);
  if (!St)
    return St;
  Report.CandidateEpoch = Landed;
  Report.PublishSeconds = PublishTimer.elapsedSeconds();

  // --- Canary: durable transition first, then the canary serves it. ---
  support::WallTimer CanaryTimer;
  St = Store.setState(Landed, store::EpochState::Canary);
  if (!St)
    return St;
  Report.ChampionScore = shadowScore(Canary.service());
  St = Canary.adopt(Landed);
  if (!St) {
    // The candidate image was refused at the canary: roll it back
    // durably; no replica ever saw it.
    Store.rollback(Landed);
    return St;
  }
  Report.CandidateScore = shadowScore(Canary.service());
  bool Promote =
      Report.CandidateScore <=
      Report.ChampionScore * (1.0 + Opts.CanaryMargin);
  Report.CanarySeconds = CanaryTimer.elapsedSeconds();

  // --- Promote (the canary already serves it), or roll it back. ---
  support::WallTimer PromoteTimer;
  if (Promote) {
    St = Store.promote(Landed);
    if (!St)
      return St;
    Report.Promoted = true;
  } else {
    St = Store.rollback(Landed);
    if (!St)
      return St;
    // The canary reverts to the champion (CURRENT is unchanged).
    St = Canary.sync();
    if (!St)
      return St;
  }
  Report.PromoteSeconds = PromoteTimer.elapsedSeconds();

  St = Store.gc(Opts.KeepFinished);
  if (!St)
    return St;
  Out = Report;
  return LoadStatus::success();
}

//===----------------------------------------------------------------------===//
// Publisher
//===----------------------------------------------------------------------===//

Publisher::Outcome
Publisher::retrainAndRollout(const std::vector<size_t> &SampleInputs,
                             RolloutController::CycleReport &Report,
                             std::string &Why) {
  if (stopRequested()) {
    Why = "stop requested before retraining";
    return Outcome::Stopped;
  }
  if (SampleInputs.size() < 4) {
    Why = "sample too thin to retrain on (" +
          std::to_string(SampleInputs.size()) + " inputs)";
    return Outcome::NoCandidate;
  }
  if (Opts.OnRetrainStart)
    Opts.OnRetrainStart();

  // Provenance comes from the serving champion: the candidate is the
  // same benchmark at the same scale, retrained on recent traffic.
  serialize::TrainedModel Candidate;
  try {
    Candidate = runtime::retrainCandidate(
        Program, SampleInputs, Opts.Retrain,
        Controller.canary().service().model().Meta);
  } catch (const std::exception &E) {
    Why = std::string("candidate retrain failed: ") + E.what();
    return Outcome::NoCandidate;
  }

  // The stop window that matters: SIGTERM landed while the retrain was
  // running. The candidate is complete in memory but nothing durable
  // exists -- discard it here and nothing ever will.
  if (stopRequested()) {
    Why = "stop requested during retrain; candidate discarded unpublished";
    return Outcome::Stopped;
  }

  serialize::LoadStatus St = Controller.rollout(std::move(Candidate), Report);
  if (!St) {
    Why = St.Error;
    return Outcome::NoCandidate;
  }
  return Report.Promoted ? Outcome::Promoted : Outcome::RolledBack;
}

} // namespace rollout
} // namespace pbt
