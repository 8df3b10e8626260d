//===- runtime/PredictionService.h - Online per-input selection -----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online half of the offline-train / online-predict split: a
/// PredictionService loads a persisted TrainedModel (serialize/ModelIO.h)
/// and answers "which configuration should this input run under?" without
/// retraining anything.
///
/// Serving is cheap by construction: straight after load the model is
/// lowered into a CompiledModel (one contiguous pointer-free arena; see
/// runtime/CompiledModel.h), so decide() is array walks with zero virtual
/// dispatch and zero per-call allocation. The production classifier
/// extracts only the features it examines, extracted feature values are
/// memoized per input so repeated decisions for the same input pay the
/// extraction cost exactly once, and every call reports its own cost
/// (alongside service-lifetime totals) so a deployment can account for
/// the overhead the paper's Figure 6 includes.
///
/// decideBatch() serves many inputs per call, sharding them across a
/// support::ThreadPool by input id: each memo entry is only ever touched
/// by the shard that owns its input, so the feature-memo hot path needs
/// no lock, and the decisions (landmarks *and* per-call costs) are
/// bit-identical for every thread count -- including Pool == nullptr.
///
/// The interpreted (polymorphic InputClassifier) path stays available
/// through decideInterpreted() for parity checks and as the baseline the
/// `pbt-bench serve` report measures the compiled path against.
///
/// Single-input calls are not thread-safe; decideBatch is the one entry
/// point that may use worker threads internally.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_PREDICTIONSERVICE_H
#define PBT_RUNTIME_PREDICTIONSERVICE_H

#include "runtime/CompiledModel.h"
#include "serialize/ModelIO.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace pbt {
namespace runtime {

class PredictionService {
public:
  /// One answered query.
  struct Decision {
    /// Chosen landmark index into the model's configurations.
    unsigned Landmark = 0;
    /// The configuration to run the input under. Points into the
    /// service's loaded model: valid until the next loadFile() replaces
    /// it (copy the Configuration when holding decisions across swaps).
    const Configuration *Config = nullptr;
    /// Extraction cost paid by THIS call (0 when every examined feature
    /// was already memoized).
    double FeatureCost = 0.0;
    /// Features newly extracted by this call.
    unsigned FeaturesExtracted = 0;
    /// True when the call paid no extraction at all.
    bool Memoized = false;
  };

  /// Service-lifetime accounting.
  struct Stats {
    uint64_t Calls = 0;
    /// Calls that paid no extraction cost (memoized or feature-free).
    uint64_t MemoizedCalls = 0;
    uint64_t FeaturesExtracted = 0;
    double FeatureCostPaid = 0.0;
  };

  PredictionService() = default;
  explicit PredictionService(serialize::TrainedModel Model);

  /// Loads a model file and compiles it for serving. On failure returns
  /// the loader's error and leaves the service empty.
  serialize::LoadStatus loadFile(const std::string &Path);

  /// Binds the program inputs are drawn from. Fails (and leaves the
  /// service unbound) unless the program matches the model's feature
  /// declarations and configuration arity.
  serialize::LoadStatus bind(const TunableProgram &Program);

  bool ready() const {
    return Bound && Compiled.ready() && !Model.System.L1.Landmarks.empty();
  }

  /// Answers "which configuration for input \p Input" through the
  /// compiled production classifier, memoizing extracted features.
  /// \p Input must be below the bound program's input count.
  Decision decide(size_t Input);

  /// The decision the persisted one-level baseline would make (compiled);
  /// exposed so harnesses can compare methods online. Shares the memo.
  Decision decideOneLevel(size_t Input);

  /// Batched serving: Out[i] answers Inputs[i]. With a pool, inputs are
  /// sharded by input id across its workers (lock-free memo, see file
  /// comment); without one (or with a 1-thread pool) the loop runs
  /// inline. Decisions are identical for every thread count.
  ///
  /// When lane serving is enabled (the default), each shard gathers
  /// lane-eligible inputs -- memo-complete ones, plus every input when
  /// the production classifier is the all-features one-level kind --
  /// into lanes of kLaneWidth inputs and classifies them through
  /// classifyLaneBlock. Lane decisions are bit-identical (in landmark
  /// AND per-call cost) to the scalar compiled path: the kernel replays
  /// the scalar arithmetic per lane element, and cold lane elements
  /// extract exactly the features the scalar path would, in the same
  /// order.
  std::vector<Decision> decideBatch(const std::vector<size_t> &Inputs,
                                    support::ThreadPool *Pool = nullptr);

  /// Turns lane-batched serving off/on; when off, decideBatch runs the
  /// scalar compiled path for every input. That scalar path is the
  /// frozen oracle the lane parity wall compares against.
  void setLaneServing(bool Enabled) { LaneServing = Enabled; }
  bool laneServing() const { return LaneServing; }

  /// The pre-compile reference path, frozen as PR 2 shipped it: the
  /// polymorphic classifier chain, a std::function-backed FeatureProbe,
  /// and its own hash-map feature memo. Kept byte-for-byte so parity
  /// tests compare against -- and `pbt-bench serve` measures against --
  /// the implementation the compiled path replaced, not a half-upgraded
  /// hybrid.
  Decision decideInterpreted(size_t Input);
  Decision decideOneLevelInterpreted(size_t Input);

  /// Drops all memoized features (e.g. when the bound program's inputs
  /// were regenerated).
  void clearMemo();

  /// Drops only the cached decisions, keeping memoized feature values:
  /// the next decideBatch re-classifies every input (through whichever
  /// path is enabled) without re-paying extraction. What the parity
  /// fuzzer and `pbt-bench serve` use to re-run classification proper.
  void clearDecisions();

  /// Extracts and memoizes every still-missing flat feature of
  /// \p Input, deciding nothing and touching no lifetime stats: a
  /// serving-side warm-up so steady-state harnesses can measure
  /// classification with a feature-complete memo (where every model
  /// kind is lane-eligible).
  void warmFeatureMemo(size_t Input);

  const serialize::TrainedModel &model() const { return Model; }
  const CompiledModel &compiled() const { return Compiled; }
  const Stats &stats() const { return Totals; }

private:
  /// Flat-feature memo per input: value + extracted flag, plus the
  /// decisions already derived from those features. A landmark choice is
  /// a pure function of the input (via its memoized features), so once a
  /// path has decided an input, the repeat decision is one cached load --
  /// with the exact observable behaviour of re-classifying over memoized
  /// features (zero cost, zero extractions, Memoized = true). Entries
  /// are lazily sized on first touch; the vector itself is sized to the
  /// bound program's input count so concurrent shards never rehash.
  struct MemoEntry {
    std::vector<double> Values;
    std::vector<char> Have;
    /// How many flat features are memoized; == numFlat() means the
    /// entry is feature-complete (the O(1) lane-eligibility check).
    unsigned HaveCount = 0;
    /// Cached landmark per compiled path (-1 = not yet decided);
    /// [0] = production, [1] = one-level baseline.
    int32_t Decided[2] = {-1, -1};
  };
  /// Interpreted-path feature memo (the PR 2 structure, see
  /// decideInterpreted above).
  struct InterpMemoEntry {
    std::vector<double> Values;
    std::vector<char> Have;
  };

  Decision decideCompiled(size_t Input, bool OneLevelPath,
                          CompiledModel::Scratch &S);
  /// Lane-batched serving of one shard of a batch: walks the positions
  /// whose input id lands in \p Shard (of \p Shards) in batch order,
  /// queueing lane-eligible inputs into SIMD lanes and falling back to
  /// the scalar compiled path for the rest.
  void decideShard(const std::vector<size_t> &Inputs,
                   std::vector<Decision> &Out, unsigned Shards,
                   unsigned Shard, CompiledModel::Scratch &S);
  Decision decideInterpretedWith(const core::InputClassifier &Classifier,
                                 size_t Input);
  void recordTotals(const Decision &D);

  serialize::TrainedModel Model;
  CompiledModel Compiled;
  const TunableProgram *Program = nullptr;
  bool Bound = false;
  /// Flat-index decoder over Model.Meta.Features, built once per model so
  /// the per-decision hot path does no allocation-heavy rebuilding.
  std::optional<FeatureIndex> Index;
  std::vector<MemoEntry> Memo;
  std::unordered_map<size_t, InterpMemoEntry> InterpMemo;
  /// Working memory for single-input calls (batch shards make their own).
  CompiledModel::Scratch MainScratch;
  bool LaneServing = true;
  Stats Totals;
};

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_PREDICTIONSERVICE_H
