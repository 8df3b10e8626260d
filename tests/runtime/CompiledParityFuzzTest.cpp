//===- tests/runtime/CompiledParityFuzzTest.cpp ------------------------------=//
//
// Randomized compiled-vs-interpreted parity: the golden suite pins the
// two committed models, but the lowering claim is universal -- for ANY
// loadable model, decide() must equal decideInterpreted(). This fuzzer
// generates ~200 random TrainedModels spanning every classifier kind the
// zoo can select (constant, max-apriori, subset tree, incremental Bayes,
// one-level nearest-centroid) over both flat and conditional
// (hierarchical) configuration spaces, serves random inputs through a
// PredictionService bound to a matching synthetic program, and asserts
// landmark, extraction-cost and examined-feature parity between the
// compiled and interpreted paths -- for the production classifier and
// the one-level baseline alike.
//
// Everything is seeded through support/Random, so a failure reproduces
// from its printed model index alone.
//
//===----------------------------------------------------------------------===//

#include "runtime/PredictionService.h"

#include "core/Classifiers.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/CompiledModel.h"
#include "runtime/SimdLanes.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

using namespace pbt;

namespace {

/// A synthetic program whose features are a stored random table: exactly
/// what a PredictionService needs to serve decisions (the run() cost
/// model never executes here).
class TableProgram : public runtime::TunableProgram {
public:
  TableProgram(linalg::Matrix Table, std::vector<runtime::FeatureInfo> Props,
               runtime::ConfigSpace SpaceIn)
      : Table(std::move(Table)), Props(std::move(Props)),
        Space(std::move(SpaceIn)) {
    Index.emplace(this->Props);
  }

  std::string name() const override { return "fuzz-table"; }
  const runtime::ConfigSpace &space() const override { return Space; }
  std::vector<runtime::FeatureInfo> features() const override {
    return Props;
  }
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return std::nullopt;
  }
  size_t numInputs() const override { return Table.rows(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    // Per-feature extraction cost grows with the sampling level, like the
    // real benchmarks' probes.
    Cost.addFlops(1.0 + Level);
    return Table.at(Input, Index->flat(Feature, Level));
  }
  runtime::RunResult run(size_t, const runtime::Configuration &,
                         support::CostCounter &) const override {
    return {};
  }

private:
  linalg::Matrix Table;
  std::vector<runtime::FeatureInfo> Props;
  runtime::ConfigSpace Space;
  std::optional<runtime::FeatureIndex> Index;
};

struct FuzzCase {
  std::unique_ptr<TableProgram> Program;
  serialize::TrainedModel Model;
};

/// A random configuration space. Every third case is conditional: a
/// categorical root gating each real tunable on a random activation set,
/// plus a two-level chain (categorical mode under the root, log-integer
/// leaf under the mode) so nested dependencies fuzz too.
runtime::ConfigSpace makeFuzzSpace(support::Rng &Rng, unsigned Arity,
                                   bool Conditional) {
  runtime::ConfigSpace S;
  if (!Conditional) {
    for (unsigned P = 0; P != Arity; ++P)
      S.addReal("p" + std::to_string(P), 0.0, 1.0);
    return S;
  }
  unsigned Card = static_cast<unsigned>(Rng.range(2, 4));
  unsigned Root = S.addCategorical("branch", Card);
  for (unsigned P = 0; P != Arity; ++P) {
    unsigned Idx = S.addReal("p" + std::to_string(P), 0.0, 1.0);
    std::vector<unsigned> Vals;
    for (unsigned V = 0; V != Card; ++V)
      if (Rng.chance(0.5))
        Vals.push_back(V);
    if (Vals.empty())
      Vals.push_back(static_cast<unsigned>(Rng.index(Card)));
    S.makeConditional(Idx, Root, Vals);
  }
  unsigned Mode = S.addCategorical("mode", 2);
  S.makeConditional(Mode, Root, {0});
  unsigned Leaf = S.addInteger("leaf", 1, 64, /*LogScale=*/true);
  S.makeConditional(Leaf, Mode, {1});
  return S;
}

/// One random model: random feature geometry, random training table,
/// random labels, the classifier kind cycling with the index.
FuzzCase makeCase(unsigned CaseIndex) {
  support::Rng Rng(0xF022 + 7919ull * CaseIndex);

  unsigned NumProps = static_cast<unsigned>(Rng.range(1, 3));
  std::vector<runtime::FeatureInfo> Props;
  for (unsigned P = 0; P != NumProps; ++P)
    Props.push_back({"f" + std::to_string(P),
                     static_cast<unsigned>(Rng.range(1, 3))});
  runtime::FeatureIndex Index(Props);
  unsigned NumFlat = Index.numFlat();
  unsigned K = static_cast<unsigned>(Rng.range(2, 5));
  size_t N = static_cast<size_t>(Rng.range(20, 40));
  unsigned Arity = static_cast<unsigned>(Rng.range(1, 3));

  linalg::Matrix X(N, NumFlat);
  std::vector<unsigned> Y(N);
  for (size_t I = 0; I != N; ++I) {
    for (unsigned F = 0; F != NumFlat; ++F)
      X.at(I, F) = Rng.uniform(0.0, 10.0);
    Y[I] = static_cast<unsigned>(Rng.index(K));
  }
  // Correlate the labels with one feature so trees/Bayes grow structure
  // more often than pure noise would allow.
  unsigned Pivot = static_cast<unsigned>(Rng.index(NumFlat));
  for (size_t I = 0; I != N; ++I)
    if (X.at(I, Pivot) > 5.0)
      Y[I] = (Y[I] + 1) % K;

  FuzzCase C;
  runtime::ConfigSpace Space =
      makeFuzzSpace(Rng, Arity, /*Conditional=*/CaseIndex % 3 == 0);
  C.Program = std::make_unique<TableProgram>(X, Props, Space);

  serialize::TrainedModel &M = C.Model;
  M.Meta.Benchmark = "fuzz-table";
  M.Meta.Scale = 1.0;
  M.Meta.ProgramSeed = CaseIndex;
  M.Meta.Features = Props;
  M.Meta.Space = Space;
  // randomConfig returns canonical points (dead branches pinned), which
  // is exactly what the loader and validateAgainst demand of landmarks.
  for (unsigned L = 0; L != K; ++L)
    M.System.L1.Landmarks.push_back(Space.randomConfig(Rng));

  // The production classifier: cycle through every kind the zoo knows.
  std::unique_ptr<core::InputClassifier> Production;
  switch (CaseIndex % 5) {
  case 0:
    Production = std::make_unique<core::ConstantClassifier>(
        static_cast<unsigned>(Rng.index(K)));
    break;
  case 1: {
    ml::MaxApriori Prior;
    Prior.fit(Y, K);
    Production = std::make_unique<core::MaxAprioriClassifier>(std::move(Prior));
    break;
  }
  case 2: {
    std::vector<unsigned> Subset(NumFlat);
    std::iota(Subset.begin(), Subset.end(), 0u);
    Rng.shuffle(Subset);
    Subset.resize(Rng.index(NumFlat) + 1);
    std::sort(Subset.begin(), Subset.end());
    ml::DecisionTreeOptions Opts;
    Opts.AllowedFeatures = Subset;
    Opts.MaxDepth = static_cast<unsigned>(Rng.range(1, 10));
    Opts.MinSamplesLeaf = static_cast<unsigned>(Rng.range(1, 4));
    ml::DecisionTree Tree;
    Tree.fit(X, Y, K, Opts);
    Production = std::make_unique<core::SubsetTreeClassifier>(
        std::move(Tree), std::move(Subset), "fuzz-tree");
    break;
  }
  case 3: {
    std::vector<unsigned> Order(NumFlat);
    std::iota(Order.begin(), Order.end(), 0u);
    Rng.shuffle(Order);
    Order.resize(Rng.index(NumFlat) + 1);
    ml::IncrementalBayesOptions Opts;
    Opts.Bins = static_cast<unsigned>(Rng.range(2, 8));
    // Spans the always-stop, sometimes-stop and never-stop regimes.
    Opts.PosteriorThreshold = Rng.uniform(0.4, 1.1);
    ml::IncrementalBayes Model;
    Model.fit(X, Y, K, Order, Opts);
    Production = std::make_unique<core::IncrementalClassifier>(
        std::move(Model), "fuzz-bayes");
    break;
  }
  default: {
    ml::Normalizer Norm;
    Norm.fit(X);
    ml::KMeansOptions Opts;
    Opts.K = K;
    Opts.Seed = Rng.next();
    ml::KMeansResult Clusters = ml::kMeans(Norm.transform(X), Opts);
    std::vector<unsigned> ClusterLandmark;
    for (size_t Cl = 0; Cl != Clusters.Centroids.rows(); ++Cl)
      ClusterLandmark.push_back(static_cast<unsigned>(Rng.index(K)));
    Production = std::make_unique<core::OneLevelClassifier>(
        std::move(Clusters.Centroids), std::move(Norm),
        std::move(ClusterLandmark));
    break;
  }
  }
  M.System.L2.Production = std::move(Production);
  M.System.L2.SelectedName = "fuzz";

  // Every model also carries a one-level baseline, so the baseline
  // lowering fuzzes alongside the production one.
  {
    ml::Normalizer Norm;
    Norm.fit(X);
    ml::KMeansOptions Opts;
    Opts.K = std::min<unsigned>(K, 3);
    Opts.Seed = Rng.next();
    ml::KMeansResult Clusters = ml::kMeans(Norm.transform(X), Opts);
    std::vector<unsigned> ClusterLandmark;
    for (size_t Cl = 0; Cl != Clusters.Centroids.rows(); ++Cl)
      ClusterLandmark.push_back(static_cast<unsigned>(Rng.index(K)));
    M.System.OneLevel = std::make_unique<core::OneLevelClassifier>(
        std::move(Clusters.Centroids), std::move(Norm),
        std::move(ClusterLandmark));
  }
  return C;
}

TEST(CompiledParityFuzzTest, RandomModelsDecideIdenticallyOnBothPaths) {
  constexpr unsigned kModels = 200;
  unsigned PerKind[5] = {0, 0, 0, 0, 0};
  for (unsigned CaseIndex = 0; CaseIndex != kModels; ++CaseIndex) {
    FuzzCase C = makeCase(CaseIndex);
    ++PerKind[CaseIndex % 5];
    std::string Kind = C.Model.System.L2.Production->describe();

    runtime::PredictionService Service(std::move(C.Model));
    ASSERT_TRUE(Service.bind(*C.Program).Ok)
        << "case " << CaseIndex << " (" << Kind << ")";
    ASSERT_TRUE(Service.ready());

    for (size_t Input = 0; Input != C.Program->numInputs(); ++Input) {
      // Fresh-input order: compiled first here, interpreted first on odd
      // inputs, so both paths get to be the cold one.
      runtime::PredictionService::Decision A, B;
      if (Input % 2 == 0) {
        A = Service.decide(Input);
        B = Service.decideInterpreted(Input);
      } else {
        B = Service.decideInterpreted(Input);
        A = Service.decide(Input);
      }
      ASSERT_EQ(A.Landmark, B.Landmark)
          << "case " << CaseIndex << " (" << Kind << ") input " << Input
          << ": compiled and interpreted decisions diverge";
      // The two paths keep separate feature memos, so each input's first
      // call on either path is cold: identical extraction work and cost.
      EXPECT_DOUBLE_EQ(A.FeatureCost, B.FeatureCost)
          << "case " << CaseIndex << " (" << Kind << ") input " << Input;
      EXPECT_EQ(A.FeaturesExtracted, B.FeaturesExtracted)
          << "case " << CaseIndex << " (" << Kind << ") input " << Input;

      // Baseline parity on the same input.
      runtime::PredictionService::Decision OA = Service.decideOneLevel(Input);
      runtime::PredictionService::Decision OB =
          Service.decideOneLevelInterpreted(Input);
      ASSERT_EQ(OA.Landmark, OB.Landmark)
          << "case " << CaseIndex << " input " << Input
          << ": one-level baseline diverges";
    }
  }
  for (unsigned Kind = 0; Kind != 5; ++Kind)
    EXPECT_GE(PerKind[Kind], 40u) << "kind " << Kind << " under-covered";
}

/// Full-Decision equality between two services serving the same batch
/// stream: one lane-serving, one with lanes off (the frozen scalar
/// compiled oracle) -- plus the interpreted path as the outer oracle for
/// the chosen landmarks.
void expectLaneBatchParity(runtime::PredictionService &LaneService,
                           runtime::PredictionService &ScalarService,
                           const std::vector<size_t> &Batch,
                           unsigned CaseIndex, const char *Phase) {
  std::vector<runtime::PredictionService::Decision> A =
      LaneService.decideBatch(Batch);
  std::vector<runtime::PredictionService::Decision> B =
      ScalarService.decideBatch(Batch);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    ASSERT_EQ(A[I].Landmark, B[I].Landmark)
        << "case " << CaseIndex << " " << Phase << " position " << I
        << " input " << Batch[I] << ": lane and scalar decisions diverge";
    EXPECT_DOUBLE_EQ(A[I].FeatureCost, B[I].FeatureCost)
        << "case " << CaseIndex << " " << Phase << " position " << I;
    EXPECT_EQ(A[I].FeaturesExtracted, B[I].FeaturesExtracted)
        << "case " << CaseIndex << " " << Phase << " position " << I;
    EXPECT_EQ(A[I].Memoized, B[I].Memoized)
        << "case " << CaseIndex << " " << Phase << " position " << I;
    ASSERT_EQ(A[I].Landmark,
              ScalarService.decideInterpreted(Batch[I]).Landmark)
        << "case " << CaseIndex << " " << Phase << " position " << I
        << ": lane diverges from interpreted oracle";
  }
}

/// The lane parity wall proper: every fuzz model served through the
/// lane kernel, with the scalar compiled path (lane serving off) and the
/// interpreted classifier as frozen oracles. Covers cold batches with
/// in-lane duplicate inputs, lane-remainder batch sizes 1..2*kLaneWidth,
/// and a forced memo-complete pass so the tree/Bayes lane kernels run
/// too (cold tree/Bayes inputs take the scalar fallback by design --
/// lazy extraction is value-dependent).
TEST(CompiledParityFuzzTest, LaneServingMatchesScalarAndInterpreted) {
  constexpr unsigned kModels = 60;
  for (unsigned CaseIndex = 0; CaseIndex != kModels; ++CaseIndex) {
    // makeCase is deterministic in its index: two builds of the same
    // case give the lane and scalar services identical models.
    FuzzCase LaneCase = makeCase(CaseIndex);
    FuzzCase ScalarCase = makeCase(CaseIndex);
    runtime::PredictionService LaneService(std::move(LaneCase.Model));
    runtime::PredictionService ScalarService(std::move(ScalarCase.Model));
    ASSERT_TRUE(LaneService.laneServing());
    ScalarService.setLaneServing(false);
    ASSERT_TRUE(LaneService.bind(*LaneCase.Program).Ok);
    ASSERT_TRUE(ScalarService.bind(*ScalarCase.Program).Ok);

    const size_t N = LaneCase.Program->numInputs();
    // Cold pass with each input duplicated adjacently: the repeat of an
    // input still queued in a pending lane must flush and serve from
    // the fresh decision cache, in batch order.
    std::vector<size_t> Cold;
    for (size_t I = 0; I != N; ++I) {
      Cold.push_back(I);
      Cold.push_back(I);
    }
    expectLaneBatchParity(LaneService, ScalarService, Cold, CaseIndex,
                          "cold");

    // Lane-remainder sizes 1..2*kLaneWidth over re-decided warm inputs.
    for (unsigned Size = 1; Size <= 2 * runtime::kLaneWidth; ++Size) {
      LaneService.clearDecisions();
      ScalarService.clearDecisions();
      std::vector<size_t> Batch;
      for (unsigned I = 0; I != Size; ++I)
        Batch.push_back(I % N);
      expectLaneBatchParity(LaneService, ScalarService, Batch, CaseIndex,
                            "remainder");
    }

    // Force memo completeness through the all-features one-level
    // baseline, then re-decide: tree/Bayes models now take the lane
    // path instead of the cold scalar fallback.
    for (size_t I = 0; I != N; ++I) {
      LaneService.decideOneLevel(I);
      ScalarService.decideOneLevel(I);
    }
    LaneService.clearDecisions();
    ScalarService.clearDecisions();
    std::vector<size_t> Warm(N);
    std::iota(Warm.begin(), Warm.end(), size_t{0});
    std::reverse(Warm.begin(), Warm.end());
    expectLaneBatchParity(LaneService, ScalarService, Warm, CaseIndex,
                          "memo-complete");
  }
}

/// The same fuzz population, additionally pushed through the serializer:
/// save -> load -> compile must preserve parity (the loader's bounds
/// checks and the writer's 17-digit doubles both under test).
TEST(CompiledParityFuzzTest, SerializedRoundTripPreservesDecisions) {
  for (unsigned CaseIndex = 0; CaseIndex != 40; ++CaseIndex) {
    FuzzCase C = makeCase(CaseIndex);
    // Minimal-but-valid evidence tables so the whole-model serializer has
    // consistent shapes to write.
    size_t N = C.Program->numInputs();
    unsigned NumFlat = C.Program->numMLFeatures();
    unsigned K = static_cast<unsigned>(C.Model.System.L1.Landmarks.size());
    C.Model.System.L1.Features = linalg::Matrix(N, NumFlat);
    C.Model.System.L1.ExtractCosts = linalg::Matrix(N, NumFlat, 1.0);
    C.Model.System.L1.Time = linalg::Matrix(N, K, 1.0);
    C.Model.System.L1.Acc = linalg::Matrix(N, K, 1.0);
    C.Model.System.L1.Norm.fit(C.Model.System.L1.Features);
    ml::KMeansOptions KOpts;
    KOpts.K = K;
    C.Model.System.L1.Clusters =
        ml::kMeans(C.Model.System.L1.Features, KOpts);
    C.Model.System.L1.Clusters.Assignment.clear();
    C.Model.System.L1.Representatives.assign(K, 0);
    C.Model.System.L2.Costs = ml::CostMatrix::zeroOne(K);

    std::string Bytes = serialize::serializeModel(C.Model);
    serialize::TrainedModel Loaded;
    ASSERT_TRUE(serialize::loadModel(Bytes, Loaded).Ok) << "case "
                                                        << CaseIndex;
    // Byte-identity through the round trip: the reloaded model (its
    // config space -- conditional structure included -- landmarks and
    // classifiers) must re-serialize to the exact same bytes.
    ASSERT_EQ(serialize::serializeModel(Loaded), Bytes)
        << "case " << CaseIndex << ": round trip is not byte-identical";

    // The compiled arenas agree on the conditional structure: identical
    // per-landmark active-parameter masks on both sides of the trip.
    runtime::CompiledModel CompiledA = runtime::CompiledModel::compile(C.Model);
    runtime::CompiledModel CompiledB = runtime::CompiledModel::compile(Loaded);
    ASSERT_EQ(CompiledA.numLandmarks(), CompiledB.numLandmarks());
    for (unsigned L = 0; L != CompiledA.numLandmarks(); ++L) {
      EXPECT_EQ(CompiledA.landmarkActiveMask(L),
                CompiledB.landmarkActiveMask(L))
          << "case " << CaseIndex << " landmark " << L;
      EXPECT_EQ(CompiledA.landmarkActiveMask(L),
                C.Model.Meta.Space.activeMask(C.Model.System.L1.Landmarks[L]))
          << "case " << CaseIndex << " landmark " << L;
    }

    runtime::PredictionService Original(std::move(C.Model));
    runtime::PredictionService Reloaded(std::move(Loaded));
    ASSERT_TRUE(Original.bind(*C.Program).Ok);
    ASSERT_TRUE(Reloaded.bind(*C.Program).Ok);
    for (size_t Input = 0; Input != C.Program->numInputs(); ++Input)
      ASSERT_EQ(Original.decide(Input).Landmark,
                Reloaded.decide(Input).Landmark)
          << "case " << CaseIndex << " input " << Input;
  }
}

} // namespace
