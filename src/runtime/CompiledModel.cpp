//===- runtime/CompiledModel.cpp --------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledModel.h"

#include "core/Classifiers.h"
#include "serialize/ModelIO.h"

#include <algorithm>

using namespace pbt;
using namespace pbt::runtime;

/// The flat features \p C can ever examine, sorted and deduplicated
/// (see CompiledModel::productionReads).
static std::vector<uint32_t> readSetOf(const ml::CompiledClassifier &C,
                                       const ml::CompiledArena &Arena) {
  std::vector<uint32_t> Reads;
  switch (C.Kind) {
  case ml::CompiledKind::Constant:
  case ml::CompiledKind::MaxApriori:
    break;
  case ml::CompiledKind::Tree: {
    const int32_t *Feature = Arena.I32.data() + C.TreeFeature;
    for (uint32_t N = 0; N != C.NumNodes; ++N)
      if (Feature[N] >= 0)
        Reads.push_back(static_cast<uint32_t>(Feature[N]));
    break;
  }
  case ml::CompiledKind::Bayes: {
    const int32_t *Order = Arena.I32.data() + C.OrderBase;
    for (uint32_t P = 0; P != C.OrderLen; ++P)
      Reads.push_back(static_cast<uint32_t>(Order[P]));
    break;
  }
  case ml::CompiledKind::OneLevel:
    for (uint32_t F = 0; F != C.Dim; ++F)
      Reads.push_back(F);
    break;
  }
  std::sort(Reads.begin(), Reads.end());
  Reads.erase(std::unique(Reads.begin(), Reads.end()), Reads.end());
  return Reads;
}

CompiledModel CompiledModel::compileClassifiers(
    const core::InputClassifier &Production,
    const core::InputClassifier *OneLevel, unsigned NumFlat,
    unsigned NumLandmarks) {
  CompiledModel M;
  M.NumFlat = NumFlat;
  M.NumLandmarks = NumLandmarks;
  Production.compileInto(M.Arena, M.Production);
  if (OneLevel) {
    OneLevel->compileInto(M.Arena, M.Baseline);
    M.HasOneLevel = true;
  }
  M.ProductionReads = readSetOf(M.Production, M.Arena);
  M.Ready = true;
  return M;
}

CompiledModel CompiledModel::compile(const serialize::TrainedModel &Model) {
  const core::TrainedSystem &S = Model.System;
  if (!S.L2.Production || S.L1.Landmarks.empty())
    return CompiledModel();
  CompiledModel M = compileClassifiers(
      *S.L2.Production, S.OneLevel.get(), Model.Meta.numFlatFeatures(),
      static_cast<unsigned>(S.L1.Landmarks.size()));
  // Inline the landmark configurations: a flat values-by-arity table so
  // decision -> configuration is one multiply-add away.
  M.Arity = static_cast<unsigned>(S.L1.Landmarks.front().size());
  M.LandmarkBase = static_cast<uint32_t>(M.Arena.F64.size());
  for (const Configuration &C : S.L1.Landmarks) {
    assert(C.size() == M.Arity && "landmark arity mismatch");
    M.Arena.appendF64(C.values().data(), C.values().size());
  }
  // Precompute each landmark's active-parameter bitmask from the
  // recorded conditional space: one chain walk per landmark at compile
  // time, a single load per decision afterwards.
  const ConfigSpace &Space = Model.Meta.Space;
  if (Space.size() == M.Arity && M.Arity != 0) {
    M.LandmarkMasks.reserve(S.L1.Landmarks.size());
    for (const Configuration &C : S.L1.Landmarks)
      M.LandmarkMasks.push_back(Space.activeMask(C));
  }
  return M;
}

CompiledModel::Scratch CompiledModel::makeScratch() const {
  Scratch S;
  unsigned Classes = std::max(
      {NumLandmarks, Production.Classes, Baseline.Classes, 1u});
  unsigned Dim = std::max({NumFlat, Production.Dim, Baseline.Dim, 1u});
  S.LogPost.assign(Classes, 0.0);
  S.Row.assign(Dim, 0.0);
  // Lane-major working memory; see Scratch::laneView for the carve.
  S.LaneClasses = Classes;
  S.LaneDim = Dim;
  S.LaneBlock.assign(static_cast<size_t>(Dim) * kLaneWidth, 0.0);
  S.LaneF64.assign((static_cast<size_t>(Classes) + Dim + 3) *
                       Scratch::kLaneStrideF64,
                   0.0);
  S.LaneI32.assign(5 * static_cast<size_t>(Scratch::kLaneStrideI32), 0);
  return S;
}
