//===- tests/golden/ServeParityTest.cpp --------------------------------------=//
//
// The serving-path half of the golden suite: for every committed golden
// model, the compiled fast path, the interpreted reference path and the
// batch API (with any pool, or none) must all make exactly the per-input
// choices recorded in <name>.choices.csv. This is the pin behind the
// compiled subsystem's "bit-identical lowering" claim and behind
// decideBatch's "a batch is the same sequence of decide() calls" claim.
//
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

using namespace pbt;

#ifndef PBT_GOLDEN_DIR
#error "PBT_GOLDEN_DIR must point at the committed golden files"
#endif

namespace {

std::string goldenPath(const std::string &File) {
  return std::string(PBT_GOLDEN_DIR) + "/" + File;
}

/// Parses the `input,landmark` CSV committed next to each model.
std::vector<std::pair<size_t, unsigned>> readChoices(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing golden choices " << Path;
  std::vector<std::pair<size_t, unsigned>> Out;
  std::string Line;
  std::getline(In, Line); // header
  EXPECT_EQ(Line, "input,landmark");
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Comma = Line.find(',');
    if (Comma == std::string::npos) {
      ADD_FAILURE() << "malformed choices line: " << Line;
      break;
    }
    Out.emplace_back(std::stoull(Line.substr(0, Comma)),
                     static_cast<unsigned>(std::stoul(Line.substr(Comma + 1))));
  }
  return Out;
}

/// One freshly loaded-and-bound service per call: every scenario below
/// must reproduce the goldens from a cold start.
struct Loaded {
  runtime::PredictionService Service;
  registry::ProgramPtr Program;
};

void loadGolden(const std::string &Name, Loaded &L) {
  serialize::LoadStatus Status = L.Service.loadFile(goldenPath(Name + ".pbt"));
  ASSERT_TRUE(Status.Ok) << Status.Error;
  const serialize::TrainedModel &Model = L.Service.model();
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Model.Meta.Benchmark);
  L.Program = F.makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
  serialize::LoadStatus Bound = L.Service.bind(*L.Program);
  ASSERT_TRUE(Bound.Ok) << Bound.Error;
}

class ServeParityTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ServeParityTest, CompiledAndInterpretedMatchGoldenChoices) {
  std::string Name = GetParam();
  Loaded L;
  loadGolden(Name, L);
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  ASSERT_FALSE(Expected.empty());

  for (const auto &[Input, Landmark] : Expected) {
    runtime::PredictionService::Decision Compiled = L.Service.decide(Input);
    runtime::PredictionService::Decision Interpreted =
        L.Service.decideInterpreted(Input);
    EXPECT_EQ(Compiled.Landmark, Landmark)
        << Name << " input " << Input << ": compiled decision drifted";
    EXPECT_EQ(Interpreted.Landmark, Landmark)
        << Name << " input " << Input << ": interpreted decision drifted";
    // Both paths pay the same extraction on their first (cold) call.
    EXPECT_DOUBLE_EQ(Compiled.FeatureCost, Interpreted.FeatureCost);
    EXPECT_EQ(Compiled.FeaturesExtracted, Interpreted.FeaturesExtracted);
  }
}

TEST_P(ServeParityTest, BatchMatchesSingleDecisions) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  ASSERT_FALSE(Expected.empty());
  // The golden inputs, then the same inputs again in reverse: the second
  // half is all repeats, served from the memo in a different order.
  std::vector<size_t> Inputs;
  std::vector<unsigned> Golden;
  for (const auto &[Input, Landmark] : Expected) {
    Inputs.push_back(Input);
    Golden.push_back(Landmark);
  }
  for (auto It = Expected.rbegin(); It != Expected.rend(); ++It) {
    Inputs.push_back(It->first);
    Golden.push_back(It->second);
  }

  Loaded Single;
  loadGolden(Name, Single);
  std::vector<runtime::PredictionService::Decision> PerCall;
  for (size_t Input : Inputs)
    PerCall.push_back(Single.Service.decide(Input));

  Loaded Batched;
  loadGolden(Name, Batched);
  std::vector<runtime::PredictionService::Decision> Batch =
      Batched.Service.decideBatch(Inputs);
  ASSERT_EQ(Batch.size(), PerCall.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    EXPECT_EQ(Batch[I].Landmark, Golden[I])
        << Name << " input " << Inputs[I] << " at batch position " << I;
    EXPECT_EQ(PerCall[I].Landmark, Golden[I])
        << Name << " input " << Inputs[I] << " at call " << I;
    EXPECT_DOUBLE_EQ(Batch[I].FeatureCost, PerCall[I].FeatureCost);
    EXPECT_EQ(Batch[I].FeaturesExtracted, PerCall[I].FeaturesExtracted);
    EXPECT_EQ(Batch[I].Memoized, PerCall[I].Memoized);
  }
  // Deterministic lifetime accounting: one batch == the same calls made
  // one at a time.
  const runtime::PredictionService::Stats &B = Batched.Service.stats();
  const runtime::PredictionService::Stats &S = Single.Service.stats();
  EXPECT_EQ(B.Calls, S.Calls);
  EXPECT_EQ(B.MemoizedCalls, S.MemoizedCalls);
  EXPECT_EQ(B.FeaturesExtracted, S.FeaturesExtracted);
  EXPECT_DOUBLE_EQ(B.FeatureCostPaid, S.FeatureCostPaid);
}

TEST_P(ServeParityTest, ThreadCountInvariance) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  // Duplicated + reordered inputs, so the second half is served from the
  // memo.
  std::vector<size_t> Inputs;
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  std::reverse(Inputs.begin() + static_cast<long>(Expected.size()),
               Inputs.end());

  // Whatever pool a caller passes, the batch's decisions are the same.
  std::vector<std::vector<runtime::PredictionService::Decision>> Runs;
  for (unsigned Threads : {1u, 2u, 8u}) {
    support::ThreadPool Pool(Threads);
    Loaded L;
    loadGolden(Name, L);
    Runs.push_back(L.Service.decideBatch(Inputs, &Pool));
  }
  // And the poolless reference.
  {
    Loaded L;
    loadGolden(Name, L);
    Runs.push_back(L.Service.decideBatch(Inputs, nullptr));
  }

  for (size_t Run = 1; Run != Runs.size(); ++Run) {
    ASSERT_EQ(Runs[Run].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I) {
      EXPECT_EQ(Runs[Run][I].Landmark, Runs[0][I].Landmark)
          << "thread-count-dependent choice at batch position " << I;
      EXPECT_DOUBLE_EQ(Runs[Run][I].FeatureCost, Runs[0][I].FeatureCost);
      EXPECT_EQ(Runs[Run][I].FeaturesExtracted,
                Runs[0][I].FeaturesExtracted);
      EXPECT_EQ(Runs[Run][I].Memoized, Runs[0][I].Memoized);
    }
  }
  // Every choice still matches the committed goldens.
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(Runs[0][I].Landmark, Expected[I].second);
}

TEST_P(ServeParityTest, RepeatDecisionsAreCachedAndIdentical) {
  std::string Name = GetParam();
  Loaded L;
  loadGolden(Name, L);
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  bool ExtractsFeatures = false;
  for (const auto &[Input, Landmark] : Expected) {
    runtime::PredictionService::Decision First = L.Service.decide(Input);
    runtime::PredictionService::Decision Second = L.Service.decide(Input);
    ExtractsFeatures |= First.FeaturesExtracted > 0;
    EXPECT_EQ(First.Landmark, Landmark);
    EXPECT_EQ(Second.Landmark, Landmark);
    EXPECT_TRUE(Second.Memoized);
    EXPECT_EQ(Second.FeatureCost, 0.0);
    EXPECT_EQ(Second.FeaturesExtracted, 0u);
  }
  // clearMemo really drops the decision cache too: the next call pays
  // extraction again and still answers identically. A model whose
  // production classifier reads no features (e.g. svd's static-best)
  // never pays extraction, so its fresh decisions legitimately report
  // Memoized under the FeaturesExtracted==0 rule.
  L.Service.clearMemo();
  runtime::PredictionService::Decision Fresh =
      L.Service.decide(Expected.front().first);
  EXPECT_EQ(Fresh.Landmark, Expected.front().second);
  if (ExtractsFeatures)
    EXPECT_FALSE(Fresh.Memoized);
}

TEST_P(ServeParityTest, LaneServingMatchesGoldens) {
  // The lane serving wall against the committed decisions: the one lane
  // kernel must reproduce the golden choices through the lane-batched
  // path -- cold, and again re-decided from a warm feature memo (where
  // lanes serve every model kind) with duplicated inputs in the batch.
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  ASSERT_FALSE(Expected.empty());

  Loaded L;
  loadGolden(Name, L);
  ASSERT_TRUE(L.Service.laneServing());

  std::vector<size_t> Inputs;
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  std::vector<runtime::PredictionService::Decision> Cold =
      L.Service.decideBatch(Inputs);
  ASSERT_EQ(Cold.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(Cold[I].Landmark, Expected[I].second)
        << Name << " input " << Inputs[I] << ": cold lane decision drifted";

  // Re-decide from the warm memo: feature values stay cached, so the
  // whole batch is lane-eligible; duplicates exercise in-lane repeats.
  L.Service.clearDecisions();
  std::vector<size_t> Doubled;
  for (size_t Input : Inputs) {
    Doubled.push_back(Input);
    Doubled.push_back(Input);
  }
  std::vector<runtime::PredictionService::Decision> Warm =
      L.Service.decideBatch(Doubled);
  for (size_t I = 0; I != Doubled.size(); ++I) {
    EXPECT_EQ(Warm[I].Landmark, Expected[I / 2].second)
        << Name << " input " << Doubled[I] << ": warm lane decision drifted";
    EXPECT_EQ(Warm[I].FeatureCost, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ServeParityTest,
                         ::testing::Values("sort1", "binpacking",
                                           "clustering1", "clustering2",
                                           "svd", "poisson2d",
                                           "helmholtz3d"));

} // namespace
