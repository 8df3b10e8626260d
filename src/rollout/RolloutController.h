//===- rollout/RolloutController.h - Staged epoch rollout machine ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged rollout state machine over the crash-safe model store: one
/// publisher produces candidate epochs, serving replicas follow the
/// store, and a candidate reaches them only through
///
///   Publish -> Canary -> Promote   (or -> Rollback)
///
/// with every transition durable in the store's MANIFEST before any
/// replica acts on it. Canarying is real: the controller's one
/// in-process follower, the canary, actually serves the candidate while
/// its live shadow score (mean run cost over a seeded sample of inputs)
/// is compared against the champion's on the same sample; only a
/// candidate that holds up is promoted (CURRENT moves), and a rollback
/// reverts the canary to the champion it never stopped trusting.
///
/// The canary stays in-process because its shadow score reads decisions
/// directly. Serving replicas are store followers elsewhere -- pbt-serve
/// store tenants under a fleet::Supervisor, or ServingFollower objects in
/// tests and `pbt-bench rollout` -- that pick up a promotion on their
/// next sync. A killed-and-restarted publisher resumes from the MANIFEST:
/// ModelStore::open() rolls interrupted promotions forward and demotes
/// mid-flight candidates, and resume() puts the canary back on the
/// surviving CURRENT epoch.
///
/// The Publisher at the bottom drives the machine from traffic: retrain
/// a candidate on a sample (runtime::retrainCandidate), then rollout. It
/// honors a stop flag (SIGTERM handlers set it) at phase boundaries, so
/// shutdown mid-shadow-retrain discards the candidate instead of
/// publishing a partial epoch.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ROLLOUT_ROLLOUTCONTROLLER_H
#define PBT_ROLLOUT_ROLLOUTCONTROLLER_H

#include "core/Pipeline.h"
#include "runtime/PredictionService.h"
#include "store/ModelStore.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace rollout {

/// A store follower that serves through a PredictionService bound to
/// the program: the rollout canary, and the in-process serving replica
/// tests and `pbt-bench rollout` sync after each cycle.
class ServingFollower : public store::StoreFollower {
public:
  /// \p Program must outlive the follower.
  ServingFollower(const runtime::TunableProgram &Program,
                  std::string StoreDir);

  bool serving() const { return Service != nullptr; }
  runtime::PredictionService &service() { return *Service; }

private:
  std::unique_ptr<runtime::PredictionService> Service;
};

struct RolloutOptions {
  /// Inputs in the canary shadow sample (clamped to the program).
  size_t ShadowSample = 24;
  uint64_t ShadowSeed = 0xCA9A23;
  /// Promote when candidate cost <= champion cost * (1 + Margin): the
  /// canary is a regression gate, not an optimizer -- the publisher
  /// already decided the candidate is worth shipping, so equality
  /// passes and only a measurably worse candidate rolls back.
  double CanaryMargin = 0.0;
  /// Finished (Retired/RolledBack) epochs kept for fallback before GC.
  size_t KeepFinished = 4;
};

/// The publisher-side state machine driver. Owns the single-writer
/// ModelStore handle and the canary.
class RolloutController {
public:
  /// \p Program must outlive the controller; it is the traffic universe
  /// the canary binds and shadow-scores on.
  RolloutController(const runtime::TunableProgram &Program,
                    std::string StoreDir, RolloutOptions Options = {});

  /// Opens the store (running crash recovery), seeds it with \p Initial
  /// when empty (publish + immediate promote -- the bootstrap epoch
  /// skips canarying; there is nothing to compare against), and syncs
  /// the canary onto CURRENT.
  serialize::LoadStatus start(const serialize::TrainedModel &Initial);

  /// The restart path: like start() but never seeds -- a store left
  /// behind by a killed publisher must already contain the durable truth.
  /// Safe to drive from a fleet::Supervisor's monitor thread while the
  /// publisher is mid-rollout on another: every public transition locks
  /// one internal mutex, so a supervisor-triggered resume (re-running
  /// store recovery and re-syncing the canary before a crashed replica
  /// respawns) serializes cleanly against publish/canary/promote.
  serialize::LoadStatus resume();

  /// One full staged rollout of \p Candidate.
  struct CycleReport {
    uint64_t CandidateEpoch = 0;
    bool Promoted = false;
    double ChampionScore = 0.0;
    double CandidateScore = 0.0;
    double PublishSeconds = 0.0;
    double CanarySeconds = 0.0; ///< canary swap + shadow scoring + verdict
    /// Durable promote, or rollback plus the canary's revert.
    double PromoteSeconds = 0.0;
  };

  /// Publish -> Canary (the canary serves it, shadow-scored against the
  /// champion) -> Promote (CURRENT moves; followers pick it up on their
  /// next sync) or Rollback. Every transition is durable before any
  /// replica moves. The candidate's Meta.Epoch is rewritten to the store
  /// epoch it lands as, so the image is self-describing. Throws
  /// support::FaultCrash through from the store when a crash failpoint
  /// triggers mid-protocol.
  serialize::LoadStatus rollout(serialize::TrainedModel Candidate,
                                CycleReport &Out);

  /// The canary: serves the champion between cycles, each candidate
  /// while it is shadow-scored.
  ServingFollower &canary() { return Canary; }
  store::ModelStore &modelStore() { return Store; }
  uint64_t currentEpoch() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Store.currentEpoch();
  }

private:
  /// Mean run cost of serving the shadow sample with \p Service's
  /// decisions -- the canary comparison metric. Caller holds Mu.
  double shadowScore(runtime::PredictionService &Service);

  const runtime::TunableProgram &Program;
  store::ModelStore Store;
  RolloutOptions Opts;
  ServingFollower Canary;
  std::vector<size_t> Sample; // seeded shadow-sample inputs
  /// Serializes start/resume/rollout across threads: the publisher and a
  /// supervising monitor may both drive transitions.
  mutable std::mutex Mu;
};

//===----------------------------------------------------------------------===//
// Publisher: the retrain side of the trainer/server split
//===----------------------------------------------------------------------===//

struct PublisherOptions {
  /// Pipeline template for candidate retraining; clamped to the sample
  /// by runtime::retrainCandidate.
  core::PipelineOptions Retrain;
  /// Graceful-shutdown flag (a SIGTERM handler stores true). Checked at
  /// phase boundaries: before retraining, and again between retrain and
  /// publish -- a stop mid-retrain discards the candidate; a partial
  /// epoch is never published.
  std::atomic<bool> *Stop = nullptr;
  /// Test hook, called after the stop check when retraining begins (the
  /// graceful-shutdown test delivers its signal here).
  std::function<void()> OnRetrainStart;
};

class Publisher {
public:
  enum class Outcome {
    Stopped,    ///< stop flag honored; nothing published
    NoCandidate,///< retrain failed or sample too thin; nothing published
    Promoted,
    RolledBack,
  };

  Publisher(RolloutController &Controller,
            const runtime::TunableProgram &Program, PublisherOptions Options)
      : Controller(Controller), Program(Program), Opts(std::move(Options)) {}

  /// Retrains a candidate on \p SampleInputs (runtime::retrainCandidate
  /// over the shared universe, with the champion's provenance) and drives
  /// one staged rollout with it. \p Why explains NoCandidate outcomes.
  Outcome retrainAndRollout(const std::vector<size_t> &SampleInputs,
                            RolloutController::CycleReport &Report,
                            std::string &Why);

private:
  bool stopRequested() const {
    return Opts.Stop && Opts.Stop->load(std::memory_order_relaxed);
  }

  RolloutController &Controller;
  const runtime::TunableProgram &Program;
  PublisherOptions Opts;
};

} // namespace rollout
} // namespace pbt

#endif // PBT_ROLLOUT_ROLLOUTCONTROLLER_H
