//===- runtime/PredictionService.cpp ----------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/PredictionService.h"

#include "core/FeatureProbe.h"

#include <cassert>

using namespace pbt;
using namespace pbt::runtime;

PredictionService::PredictionService(serialize::TrainedModel ModelIn)
    : Model(std::move(ModelIn)) {
  Index.emplace(Model.Meta.Features);
  Compiled = CompiledModel::compile(Model);
  MainScratch = Compiled.makeScratch();
}

serialize::LoadStatus PredictionService::loadFile(const std::string &Path) {
  serialize::TrainedModel Loaded;
  CompiledModel LoadedCompiled;
  serialize::LoadStatus Status =
      serialize::loadCompiledModelFile(Path, Loaded, LoadedCompiled);
  if (!Status) {
    // The documented contract: a failed load empties the service rather
    // than silently serving the previously loaded model.
    *this = PredictionService();
    return Status;
  }
  Model = std::move(Loaded);
  Compiled = std::move(LoadedCompiled);
  MainScratch = Compiled.makeScratch();
  Index.emplace(Model.Meta.Features);
  Program = nullptr;
  Bound = false;
  Memo.clear();
  Totals = Stats();
  return serialize::LoadStatus::success();
}

serialize::LoadStatus PredictionService::bind(const TunableProgram &P) {
  // The documented contract: a failed bind leaves the service unbound --
  // it must not keep serving a previously bound program.
  Program = nullptr;
  Bound = false;
  Memo.clear();
  if (!Model.System.L2.Production)
    return serialize::LoadStatus::failure("no model loaded");
  serialize::LoadStatus Status = serialize::validateAgainst(Model, P);
  if (!Status)
    return Status;
  Program = &P;
  Bound = true;
  // One slot per program input, so the serving path never grows (or
  // rehashes) the memo.
  Memo.assign(P.numInputs(), MemoEntry());
  InterpMemo.clear();
  return serialize::LoadStatus::success();
}

void PredictionService::clearMemo() {
  Memo.assign(Memo.size(), MemoEntry());
  InterpMemo.clear();
}

void PredictionService::clearDecisions() {
  for (MemoEntry &E : Memo)
    E.Decided[0] = E.Decided[1] = -1;
}

void PredictionService::warmFeatureMemo(size_t Input) {
  assert(ready() && "warmFeatureMemo() before loadFile()+bind()");
  assert(Input < Memo.size() && "input out of range");
  const unsigned NumFlat = Index->numFlat();
  MemoEntry &E = Memo[Input];
  if (E.Have.empty()) {
    E.Values.assign(NumFlat, 0.0);
    E.Have.assign(NumFlat, 0);
  }
  for (unsigned F = 0; F != NumFlat; ++F)
    if (!E.Have[F]) {
      support::CostCounter C;
      E.Values[F] = Program->extractFeature(Input, Index->propertyOf(F),
                                            Index->levelOf(F), C);
      E.Have[F] = 1;
      ++E.HaveCount;
    }
}

void PredictionService::recordTotals(const Decision &D) {
  ++Totals.Calls;
  if (D.Memoized)
    ++Totals.MemoizedCalls;
  Totals.FeaturesExtracted += D.FeaturesExtracted;
  Totals.FeatureCostPaid += D.FeatureCost;
}

PredictionService::Decision
PredictionService::decideCompiled(size_t Input, bool OneLevelPath,
                                  CompiledModel::Scratch &S) {
  assert(ready() && "decide() before a successful loadFile()+bind()");
  assert(Input < Memo.size() && "input out of range");

  unsigned NumFlat = Index->numFlat();
  MemoEntry &E = Memo[Input];
  // Repeat decision: the choice was already derived from this input's
  // memoized features, and re-running the classifier over a memo is
  // deterministic -- serve the cached landmark with the exact Decision a
  // re-classification over memoized features would produce.
  int32_t Cached = E.Decided[OneLevelPath ? 1 : 0];
  if (Cached >= 0) {
    Decision D;
    D.Landmark = static_cast<unsigned>(Cached);
    D.Config = &Model.System.L1.Landmarks[D.Landmark];
    D.Memoized = true;
    return D;
  }
  if (E.Have.empty()) {
    E.Values.assign(NumFlat, 0.0);
    E.Have.assign(NumFlat, 0);
  }

  Decision D;
  // Memo-backed extractor, inlined into the compiled walk (no
  // std::function, no probe allocation). Costs accumulate in examination
  // order, exactly like the interpreted probe, so the per-call cost is
  // bit-identical across the two paths.
  auto Get = [&](unsigned Flat) -> double {
    if (E.Have[Flat])
      return E.Values[Flat];
    support::CostCounter C;
    double V = Program->extractFeature(Input, Index->propertyOf(Flat),
                                       Index->levelOf(Flat), C);
    E.Values[Flat] = V;
    E.Have[Flat] = 1;
    ++E.HaveCount;
    D.FeatureCost += C.units();
    ++D.FeaturesExtracted;
    return V;
  };

  unsigned Landmark = OneLevelPath ? Compiled.decideOneLevel(S, Get)
                                   : Compiled.decideProduction(S, Get);
  // Loaders bound every classifier's predictions by the landmark count,
  // so this holds for any model that passed validation.
  assert(Landmark < Model.System.L1.Landmarks.size() &&
         "classifier predicted a missing landmark");
  D.Landmark = Landmark;
  D.Config = &Model.System.L1.Landmarks[Landmark];
  D.Memoized = D.FeaturesExtracted == 0;
  E.Decided[OneLevelPath ? 1 : 0] = static_cast<int32_t>(Landmark);
  return D;
}

PredictionService::Decision PredictionService::decide(size_t Input) {
  Decision D = decideCompiled(Input, /*OneLevelPath=*/false, MainScratch);
  recordTotals(D);
  return D;
}

PredictionService::Decision PredictionService::decideOneLevel(size_t Input) {
  Decision D = decideCompiled(Input, /*OneLevelPath=*/true, MainScratch);
  recordTotals(D);
  return D;
}

void PredictionService::decideLanes(const std::vector<size_t> &Inputs,
                                    std::vector<Decision> &Out,
                                    CompiledModel::Scratch &S) {
  const unsigned NumFlat = Index->numFlat();
  constexpr unsigned W = kLaneWidth;
  // A OneLevel production classifier reads every flat feature in
  // [0, Dim) unconditionally, so even cold inputs are lane-eligible:
  // pre-extracting that range IS the scalar extraction sequence. Tree /
  // Bayes examine a value-dependent subset, so their cold inputs stay
  // on the scalar path (pre-extraction would change what gets charged).
  const bool ColdEligible =
      Compiled.productionKind() == ml::CompiledKind::OneLevel;
  const unsigned ProdDim = Compiled.productionDim();
  const std::vector<uint32_t> &Reads = Compiled.productionReads();

  struct PendingLane {
    size_t Input;
    size_t Pos;
  };
  PendingLane Lane[kLaneWidth];
  unsigned Queued = 0;

  auto flushLane = [&] {
    if (Queued == 0)
      return;
    double *Block = S.LaneBlock.data();
    for (unsigned L = 0; L != Queued; ++L) {
      MemoEntry &E = Memo[Lane[L].Input];
      Decision &D = Out[Lane[L].Pos];
      D = Decision();
      if (E.Have.empty()) {
        E.Values.assign(NumFlat, 0.0);
        E.Have.assign(NumFlat, 0);
      }
      // Cold one-level elements extract their missing features here, in
      // flat order -- the same calls, order and costs as the scalar
      // path's memo-backed Get, charged to the same Decision.
      if (ColdEligible)
        for (unsigned F = 0; F != ProdDim; ++F)
          if (!E.Have[F]) {
            support::CostCounter C;
            double V = Program->extractFeature(Lane[L].Input,
                                               Index->propertyOf(F),
                                               Index->levelOf(F), C);
            E.Values[F] = V;
            E.Have[F] = 1;
            ++E.HaveCount;
            D.FeatureCost += C.units();
            ++D.FeaturesExtracted;
          }
      // Stage only the classifier's read set: features outside it are
      // never examined by any kernel, so for subset classifiers (trees,
      // best-subset Bayes) this is far fewer copies than NumFlat.
      for (uint32_t F : Reads)
        Block[static_cast<size_t>(F) * W + L] = E.Values[F];
    }
    unsigned Labels[kLaneWidth];
    Compiled.classifyProductionBlock(S, Queued, Labels);
    for (unsigned L = 0; L != Queued; ++L) {
      assert(Labels[L] < Model.System.L1.Landmarks.size() &&
             "lane kernel predicted a missing landmark");
      Decision &D = Out[Lane[L].Pos];
      D.Landmark = Labels[L];
      D.Config = &Model.System.L1.Landmarks[Labels[L]];
      D.Memoized = D.FeaturesExtracted == 0;
      Memo[Lane[L].Input].Decided[0] = static_cast<int32_t>(Labels[L]);
    }
    Queued = 0;
  };

  for (size_t I = 0; I != Inputs.size(); ++I) {
    size_t Input = Inputs[I];
    assert(Input < Memo.size() && "input out of range");
    MemoEntry &E = Memo[Input];
    if (E.Decided[0] < 0) {
      // A repeat of an input still waiting in the lane: classify the
      // lane now, then serve the repeat from the fresh decision cache
      // -- same served order as the scalar loop.
      bool Waiting = false;
      for (unsigned L = 0; L != Queued && !Waiting; ++L)
        Waiting = Lane[L].Input == Input;
      if (Waiting)
        flushLane();
    }
    if (E.Decided[0] >= 0) {
      Decision D;
      D.Landmark = static_cast<unsigned>(E.Decided[0]);
      D.Config = &Model.System.L1.Landmarks[D.Landmark];
      D.Memoized = true;
      Out[I] = D;
      continue;
    }
    const bool MemoComplete = E.HaveCount == NumFlat && NumFlat != 0;
    if (MemoComplete || ColdEligible) {
      Lane[Queued].Input = Input;
      Lane[Queued].Pos = I;
      if (++Queued == W)
        flushLane();
    } else {
      Out[I] = decideCompiled(Input, /*OneLevelPath=*/false, S);
    }
  }
  flushLane();
}

std::vector<PredictionService::Decision>
PredictionService::decideBatch(const std::vector<size_t> &Inputs,
                               support::ThreadPool *) {
  assert(ready() && "decideBatch() before a successful loadFile()+bind()");
  std::vector<Decision> Out(Inputs.size());
  // Single-input batches skip straight to the scalar path.
  if (LaneServing && Inputs.size() > 1) {
    decideLanes(Inputs, Out, MainScratch);
  } else {
    for (size_t I = 0; I != Inputs.size(); ++I)
      Out[I] = decideCompiled(Inputs[I], false, MainScratch);
  }
  // Lifetime totals accumulate in batch order, as single calls would.
  for (const Decision &D : Out)
    recordTotals(D);
  return Out;
}

PredictionService::Decision
PredictionService::decideInterpretedWith(const core::InputClassifier &Classifier,
                                         size_t Input) {
  assert(ready() && "decide() before a successful loadFile()+bind()");
  assert(Input < Memo.size() && "input out of range");

  unsigned NumFlat = Index->numFlat();
  InterpMemoEntry &E = InterpMemo[Input];
  if (E.Values.empty()) {
    E.Values.assign(NumFlat, 0.0);
    E.Have.assign(NumFlat, 0);
  }

  Decision D;
  core::FeatureProbe Probe(NumFlat, [this, &E, &D, Input](unsigned Flat) {
    if (E.Have[Flat])
      return std::make_pair(E.Values[Flat], 0.0);
    support::CostCounter C;
    double V = this->Program->extractFeature(
        Input, this->Index->propertyOf(Flat), this->Index->levelOf(Flat), C);
    E.Values[Flat] = V;
    E.Have[Flat] = 1;
    ++D.FeaturesExtracted;
    return std::make_pair(V, C.units());
  });

  unsigned Landmark = Classifier.classify(Probe);
  assert(Landmark < Model.System.L1.Landmarks.size() &&
         "classifier predicted a missing landmark");
  D.Landmark = Landmark;
  D.Config = &Model.System.L1.Landmarks[Landmark];
  D.FeatureCost = Probe.totalCost();
  D.Memoized = D.FeaturesExtracted == 0;
  recordTotals(D);
  return D;
}

PredictionService::Decision PredictionService::decideInterpreted(size_t Input) {
  return decideInterpretedWith(*Model.System.L2.Production, Input);
}

PredictionService::Decision
PredictionService::decideOneLevelInterpreted(size_t Input) {
  return decideInterpretedWith(*Model.System.OneLevel, Input);
}
