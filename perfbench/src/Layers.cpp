//===- perfbench/src/Layers.cpp - The traced run's layer sweep ------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer metrics of the traced run. Every number is a span or a
/// counter around a public call the benchmark itself makes; no program
/// code is instrumented. The sweep is the same on every workload (so each
/// traced record carries every per-layer metric); only the daemon's load
/// counters come from the workload's own daemon when it runs one.
///
/// Training runs twice per family: once through core::trainSystem, once
/// phase by phase in trainSystem's order on a fresh program behind a
/// TimedProgram. The two must produce the same bytes (and the recorded
/// fingerprint), and the phases must cover trainSystem's time to within
/// 10%.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchmarks/SortBenchmark.h"
#include "core/Classifiers.h"
#include "core/Labeling.h"
#include "core/Pipeline.h"
#include "daemon/Protocol.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "runtime/PredictionService.h"
#include "store/ModelStore.h"
#include "streams/WorkloadStream.h"
#include "support/Random.h"

#include <cmath>

using namespace pbt;

namespace perfbench {

double TimedProgram::extractFeature(size_t Input, unsigned Feature,
                                    unsigned Level,
                                    support::CostCounter &Cost) const {
  int64_t T0 = nowNs();
  double V = Inner.extractFeature(Input, Feature, Level, Cost);
  ExtractNs.fetch_add(static_cast<uint64_t>(nowNs() - T0),
                      std::memory_order_relaxed);
  ExtractCalls.fetch_add(1, std::memory_order_relaxed);
  return V;
}

runtime::RunResult TimedProgram::run(size_t Input,
                                     const runtime::Configuration &Config,
                                     support::CostCounter &Cost) const {
  int64_t T0 = nowNs();
  runtime::RunResult V = Inner.run(Input, Config, Cost);
  RunNs.fetch_add(static_cast<uint64_t>(nowNs() - T0),
                  std::memory_order_relaxed);
  RunCalls.fetch_add(1, std::memory_order_relaxed);
  return V;
}

namespace {

/// Runs \p Fn inside a span named \p Name; returns its wall time in ns.
template <class F> double spanNs(Tracer &T, const char *Name, F &&Fn) {
  int64_t T0 = nowNs();
  int32_t I = T.begin(Name);
  Fn();
  T.end(I);
  return static_cast<double>(nowNs() - T0);
}

double ratio(double A, double B) { return B > 0 ? A / B : std::nan(""); }

//===----------------------------------------------------------------------===//
// runtime + benchmarks.extract
//===----------------------------------------------------------------------===//

struct RuntimeNumbers {
  double DecideNs = 0, WarmDecideNs = 0;
};

RuntimeNumbers runtimeLayer(Run &R) {
  constexpr size_t kBatch = 64, kLength = 4096;
  support::Rng Rng(R.Opt.Seed ^ 0x5EEDull);
  std::vector<double> LoadMs;
  double ColdNs = 0, WarmNs = 0;
  uint64_t Cold = 0, Warm = 0, Calls = 0, Memoized = 0, Features = 0;
  uint64_t ExtractCalls = 0, ExtractNs = 0;
  for (const std::string &Name : goldenNames()) {
    auto S = std::make_unique<runtime::PredictionService>();
    serialize::LoadStatus St;
    LoadMs.push_back(spanNs(R.Trace, "runtime.loadFile", [&] {
                       St = S->loadFile(R.goldenPath(Name));
                     }) /
                     1e6);
    if (!St) {
      R.fail("load " + Name + ": " + St.Error);
      continue;
    }
    // A universe 10x the golden's, under another program seed.
    const serialize::ModelMeta &M = S->model().Meta;
    registry::ProgramPtr Universe =
        registry::BenchmarkRegistry::instance().get(M.Benchmark).makeProgram(
            M.Scale * 10, M.ProgramSeed + 1000003);
    TimedProgram Timed(*Universe);
    if (!S->bind(Timed)) {
      R.fail("bind " + Name);
      continue;
    }
    std::vector<size_t> Stream =
        halfRepeatStream(Universe->numInputs(), kLength, Rng);
    std::vector<size_t> Batch(kBatch);
    auto Pass = [&](const char *SpanName) {
      double Ns = 0;
      for (size_t At = 0; At + kBatch <= Stream.size(); At += kBatch) {
        std::copy(Stream.begin() + At, Stream.begin() + At + kBatch,
                  Batch.begin());
        Ns += spanNs(R.Trace, SpanName, [&] { S->decideBatch(Batch); });
      }
      return Ns;
    };
    ColdNs += Pass("runtime.decideBatch");
    Cold += Stream.size();
    Calls += S->stats().Calls;
    Memoized += S->stats().MemoizedCalls;
    Features += S->stats().FeaturesExtracted;
    ExtractCalls += Timed.ExtractCalls.load();
    ExtractNs += Timed.ExtractNs.load();
    // Warm: the memo holds every feature; only classification remains.
    for (size_t In : Stream)
      S->warmFeatureMemo(In);
    S->clearDecisions();
    WarmNs += Pass("runtime.decideBatch.warm");
    Warm += Stream.size();
    R.Attempted += 2 * Stream.size();
  }
  RuntimeNumbers N;
  N.DecideNs = ratio(ColdNs, static_cast<double>(Cold));
  N.WarmDecideNs = ratio(WarmNs, static_cast<double>(Warm));
  R.layer("runtime.decide_ns", N.DecideNs, "ns");
  R.layer("runtime.warm_decide_ns", N.WarmDecideNs, "ns");
  R.layer("runtime.memo_hit_frac",
          ratio(static_cast<double>(Memoized), static_cast<double>(Calls)),
          "ratio");
  R.layer("runtime.features_per_decision",
          ratio(static_cast<double>(Features), static_cast<double>(Calls)),
          "count");
  R.layer("runtime.load_compile_ms", median(LoadMs), "ms");
  R.layer("benchmarks.extract_ns",
          ratio(static_cast<double>(ExtractNs),
                static_cast<double>(ExtractCalls)),
          "ns");
  R.layer("benchmarks.extract_calls", static_cast<double>(ExtractCalls),
          "count");
  return N;
}

//===----------------------------------------------------------------------===//
// daemon + protocol
//===----------------------------------------------------------------------===//

void protocolLayer(Run &R) {
  constexpr unsigned kReps = 20000, kBulk = 8;
  for (unsigned Size : {1u, kBulk}) {
    std::vector<uint64_t> Inputs(Size);
    std::vector<daemon::PredictedChoice> Choices(Size);
    for (unsigned I = 0; I != Size; ++I) {
      Inputs[I] = I * 7 + 3;
      Choices[I] = {I % 5, 1};
    }
    std::string Req, Rep;
    double EncNs = spanNs(R.Trace, "protocol.encode", [&] {
      for (unsigned I = 0; I != kReps; ++I) {
        Req = daemon::makePredict(Inputs);
        Rep = daemon::makePredictions(Choices);
      }
    });
    daemon::Message A, B;
    bool Ok = true;
    double DecNs = spanNs(R.Trace, "protocol.decode", [&] {
      for (unsigned I = 0; I != kReps; ++I)
        Ok = daemon::decodeMessage(Req, A) && daemon::decodeMessage(Rep, B) &&
             Ok;
    });
    ++R.Attempted;
    if (!Ok || A.Inputs != Inputs || B.Choices.size() != Size)
      R.fail("protocol round trip");
    std::string Suffix = Size == 1 ? "" : "_bulk";
    R.layer("protocol.encode" + Suffix + "_ns", EncNs / kReps, "ns");
    R.layer("protocol.decode" + Suffix + "_ns", DecNs / kReps, "ns");
  }
}

void daemonLayer(Run &R, const RuntimeNumbers &RT) {
  constexpr unsigned kReps = 4000, kBulk = 8;
  DaemonProcess D;
  std::string Models;
  for (const std::string &Name : goldenNames())
    Models += (Models.empty() ? "" : ",") + R.goldenPath(Name);
  std::string Err;
  if (!D.start(R.Opt.ServeExe, {"--model=" + Models},
               R.Opt.WorkDir + "/probe.sock", Err)) {
    R.fail("spawn probe pbt-serve: " + Err);
    return;
  }
  std::vector<double> AttachMs;
  for (unsigned I = 0; I != 20; ++I) {
    daemon::DaemonClient C;
    daemon::DaemonClient::AttachInfo Info;
    bool Ok = true;
    AttachMs.push_back(spanNs(R.Trace, "daemon.attach", [&] {
                         Ok = connectAttach(C, D.endpoint(), "sort1", Info,
                                            Err);
                       }) /
                       1e6);
    ++R.Attempted;
    if (!Ok)
      R.fail("attach: " + Err);
  }
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  std::vector<daemon::PredictedChoice> Out;
  if (!connectAttach(C, D.endpoint(), "sort1", Info, Err)) {
    R.fail("attach: " + Err);
    return;
  }
  // The probe's answers are checked like every other daemon answer:
  // against an in-process replay of the same golden.
  std::vector<unsigned> Expected;
  {
    runtime::PredictionService S;
    serialize::LoadStatus St = S.loadFile(R.goldenPath("sort1"));
    const registry::BenchmarkFactory *F =
        St ? registry::BenchmarkRegistry::instance().lookup(
                 S.model().Meta.Benchmark)
           : nullptr;
    registry::ProgramPtr P =
        F ? F->makeProgram(S.model().Meta.Scale, S.model().Meta.ProgramSeed)
          : nullptr;
    if (!P || !S.bind(*P) || P->numInputs() != Info.NumInputs) {
      R.fail("probe reference for sort1");
      return;
    }
    std::vector<size_t> All(P->numInputs());
    for (size_t I = 0; I != All.size(); ++I)
      All[I] = I;
    for (const runtime::PredictionService::Decision &Dn : S.decideBatch(All))
      Expected.push_back(Dn.Landmark);
  }
  auto Matches = [&](const std::vector<uint64_t> &In) {
    if (Out.size() != In.size())
      return false;
    for (size_t K = 0; K != In.size(); ++K)
      if (Out[K].Landmark != Expected[In[K]])
        return false;
    return true;
  };
  std::vector<double> Ping, One, Bulk;
  std::vector<uint64_t> In1 = {0}, InBulk;
  for (unsigned I = 0; I != kBulk; ++I)
    InBulk.push_back(I % Info.NumInputs);
  for (unsigned I = 0; I != kReps; ++I) {
    daemon::DaemonClient::HealthInfo H;
    bool Ok = true;
    Ping.push_back(spanNs(R.Trace, "daemon.ping",
                          [&] { Ok = C.ping(H, Err); }) /
                   1e3);
    In1[0] = I % Info.NumInputs;
    daemon::DaemonClient::PredictOutcome O1, O2;
    One.push_back(spanNs(R.Trace, "daemon.predict",
                         [&] { O1 = C.predict(In1, Out, Err); }) /
                  1e3);
    bool Ok1 = O1 == daemon::DaemonClient::PredictOutcome::Ok && Matches(In1);
    Bulk.push_back(spanNs(R.Trace, "daemon.predict.bulk",
                          [&] { O2 = C.predict(InBulk, Out, Err); }) /
                   1e3);
    bool Ok2 = O2 == daemon::DaemonClient::PredictOutcome::Ok &&
               Matches(InBulk);
    R.Attempted += 3;
    if (!Ok || !Ok1 || !Ok2)
      R.fail("probe rpc or parity: " + Err);
  }
  std::string Stats = R.DaemonStats;
  if (Stats.empty() && !C.stats(Stats, Err))
    R.fail("stats: " + Err);
  C.close();
  D.stop();

  double PingP50 = median(Ping), OneP50 = median(One);
  R.layer("daemon.ping_rtt_us", PingP50, "us");
  R.layer("daemon.predict_rtt_us", OneP50, "us");
  R.layer("daemon.queue_us", OneP50 - PingP50 - RT.WarmDecideNs / 1e3, "us");
  R.layer("daemon.predict_bulk_rtt_us", median(Bulk), "us");
  R.layer("daemon.attach_ms", median(AttachMs), "ms");
  double Batches = static_cast<double>(statsField(Stats, "batches"));
  double Requests = static_cast<double>(statsField(Stats, "requests"));
  R.layer("daemon.mean_batch",
          ratio(static_cast<double>(statsField(Stats, "batched_requests")),
                Batches),
          "count");
  R.layer("daemon.max_queue_depth",
          static_cast<double>(statsField(Stats, "max_queue_depth")), "count");
  R.layer("daemon.shed_frac",
          ratio(static_cast<double>(statsField(Stats, "shed")),
                Requests + static_cast<double>(statsField(Stats, "shed"))),
          "ratio");
}

//===----------------------------------------------------------------------===//
// core + serialize + benchmarks.run
//===----------------------------------------------------------------------===//

struct Phases {
  double LevelOne = 0, Features = 0, Labeling = 0, LevelTwo = 0, Save = 0,
         Load = 0, Evaluate = 0, Train = 0, Run = 0;
};

/// trainSystem, step by step, with each step in its own span.
std::string trainByPhases(Run &R, const registry::SuiteEntry &E,
                          const runtime::TunableProgram &P, Phases &Ph,
                          serialize::TrainedModel &Model) {
  const core::PipelineOptions &Options = E.Options;
  core::TrainedSystem S;
  support::Rng SplitRng(Options.SplitSeed);
  ml::FoldSplit Split =
      ml::trainTestSplit(P.numInputs(), Options.TrainFraction, SplitRng);
  S.TrainRows = std::move(Split.Train);
  S.TestRows = std::move(Split.Test);
  core::LevelOneOptions L1Opts = Options.L1;
  if (!L1Opts.Pool)
    L1Opts.Pool = Options.Pool;
  core::LevelTwoOptions L2Opts = Options.L2;
  if (!L2Opts.Pool)
    L2Opts.Pool = Options.Pool;
  Ph.LevelOne = spanNs(R.Trace, "core.runLevelOne", [&] {
                  S.L1 = core::runLevelOne(P, S.TrainRows, L1Opts);
                }) /
                1e9;
  std::optional<runtime::AccuracySpec> Spec = P.accuracy();
  Ph.Labeling = spanNs(R.Trace, "core.labelAllRows", [&] {
                  if (L2Opts.UseDataset) {
                    auto Data = std::make_shared<ml::Dataset>(
                        S.L1.Features, S.L1.ExtractCosts, S.L1.Time, S.L1.Acc,
                        Spec ? std::optional<double>(Spec->AccuracyThreshold)
                             : std::nullopt);
                    Data->setLabels(
                        core::labelAllRows(S.L1.Time, S.L1.Acc, Spec));
                    S.Data = std::move(Data);
                  }
                }) /
                1e9;
  Ph.LevelTwo = spanNs(R.Trace, "core.runLevelTwo", [&] {
                  S.L2 = core::runLevelTwo(P, S.L1, S.TrainRows, L2Opts,
                                           S.Data.get());
                  S.StaticOracleLandmark = core::selectStaticOracle(
                      S.L1.Time, S.L1.Acc, S.TrainRows, Spec);
                  std::vector<unsigned> Identity(S.L1.Landmarks.size());
                  for (unsigned I = 0; I != Identity.size(); ++I)
                    Identity[I] = I;
                  S.OneLevel = std::make_unique<core::OneLevelClassifier>(
                      S.L1.Clusters.Centroids, S.L1.Norm,
                      std::move(Identity));
                }) /
                1e9;
  std::string Bytes;
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(E.Name);
  Ph.Save = spanNs(R.Trace, "serialize.serializeModel", [&] {
              Model = serialize::makeModel(E.Name, 1.0,
                                           F.defaultProgramSeed(), P,
                                           std::move(S));
              Bytes = serialize::serializeModel(Model);
            }) /
            1e6;
  return Bytes;
}

void trainingLayer(Run &R) {
  support::ThreadPool Pool(R.Opt.Threads);
  std::map<std::string, uint64_t> Expected = expectedFingerprints(R);
  Phases Sum;
  uint64_t RunCalls = 0;
  bench::SortRunMemoStats Memo0 = bench::sortRunMemoStats();
  std::vector<std::string> Names =
      registry::BenchmarkRegistry::instance().names();
  std::string Outside;
  for (const std::string &Name : Names) {
    // trainSystem + serializeModel and the phase-by-phase replay alternate
    // kReps times, each on a freshly generated program (fresh sort-run
    // memo); every timing is the median of its kReps. One training's wall
    // time varies by tens of percent on a shared host, so a single pair
    // cannot show whether the phases cover trainSystem's time.
    constexpr unsigned kReps = 3;
    const uint64_t ProgramSeed =
        registry::BenchmarkRegistry::instance().get(Name).defaultProgramSeed();
    std::vector<double> Train, LevelOne, Labeling, LevelTwo, Save, Run;
    std::string Whole, Phased;
    serialize::TrainedModel Model;
    std::vector<registry::SuiteEntry> Last;
    for (unsigned K = 0; K != kReps; ++K) {
      std::vector<registry::SuiteEntry> One =
          registry::makeSuite({Name}, 1.0, &Pool);
      Train.push_back(spanNs(R.Trace, "core.trainSystem+save", [&] {
                        core::TrainedSystem Sys =
                            core::trainSystem(*One[0].Program, One[0].Options);
                        serialize::TrainedModel M = serialize::makeModel(
                            Name, 1.0, ProgramSeed, *One[0].Program,
                            std::move(Sys));
                        Whole = serialize::serializeModel(M);
                      }) /
                      1e9);
      Last = registry::makeSuite({Name}, 1.0, &Pool);
      TimedProgram Timed(*Last[0].Program);
      Phases P;
      Phased = trainByPhases(R, Last[0], Timed, P, Model);
      LevelOne.push_back(P.LevelOne);
      Labeling.push_back(P.Labeling);
      LevelTwo.push_back(P.LevelTwo);
      Save.push_back(P.Save);
      Run.push_back(static_cast<double>(Timed.RunNs.load()) / 1e9);
      if (K == 0)
        RunCalls += Timed.RunCalls.load();
      checkFingerprint(R, Expected, Name, Whole);
      ++R.Attempted;
      if (Phased != Whole)
        R.fail("phase-by-phase training of " + Name +
               " differs from trainSystem");
    }
    Phases Ph;
    Ph.Train = median(Train);
    Ph.LevelOne = median(LevelOne);
    Ph.Labeling = median(Labeling);
    Ph.LevelTwo = median(LevelTwo);
    Ph.Save = median(Save);
    Ph.Run = median(Run);
    const registry::SuiteEntry &E = Last[0];
    Ph.Features = spanNs(R.Trace, "core.extractAllFeatures", [&] {
                    linalg::Matrix V, C;
                    core::extractAllFeatures(*E.Program, V, C, &Pool);
                  }) /
                  1e9;
    Ph.Evaluate = spanNs(R.Trace, "core.evaluateSystem", [&] {
                    core::evaluateSystem(*E.Program, Model.System, &Pool);
                  }) /
                  1e9;
    serialize::TrainedModel Back;
    Ph.Load = spanNs(R.Trace, "serialize.loadModel", [&] {
                serialize::loadModel(Phased, Back);
              }) /
              1e6;
    double Covered = Ph.LevelOne + Ph.Labeling + Ph.LevelTwo + Ph.Save / 1e3;
    double Coverage = Covered / Ph.Train;
    if (Coverage < 0.9 || Coverage > 1.1)
      Outside += (Outside.empty() ? "" : ", ") + jstr(Name);

    R.layer("core.level_one_s." + Name, Ph.LevelOne, "s");
    R.layer("core.features_s." + Name, Ph.Features, "s");
    R.layer("core.labeling_s." + Name, Ph.Labeling, "s");
    R.layer("core.level_two_s." + Name, Ph.LevelTwo, "s");
    R.layer("core.evaluate_s." + Name, Ph.Evaluate, "s");
    R.layer("core.phase_coverage." + Name, Coverage, "ratio");
    R.layer("serialize.save_ms." + Name, Ph.Save, "ms");
    R.layer("benchmarks.run_s." + Name, Ph.Run, "s");
    Sum.LevelOne += Ph.LevelOne;
    Sum.Features += Ph.Features;
    Sum.Labeling += Ph.Labeling;
    Sum.LevelTwo += Ph.LevelTwo;
    Sum.Evaluate += Ph.Evaluate;
    Sum.Save += Ph.Save;
    Sum.Load += Ph.Load;
    Sum.Train += Ph.Train;
    Sum.Run += Ph.Run;
  }
  bench::SortRunMemoStats Memo1 = bench::sortRunMemoStats();
  double Hits = static_cast<double>(Memo1.Hits - Memo0.Hits);
  double Misses = static_cast<double>(Memo1.Misses - Memo0.Misses);
  R.layer("core.level_one_s", Sum.LevelOne, "s");
  R.layer("core.features_s", Sum.Features, "s");
  R.layer("core.labeling_s", Sum.Labeling, "s");
  R.layer("core.level_two_s", Sum.LevelTwo, "s");
  R.layer("core.evaluate_s", Sum.Evaluate, "s");
  // The gate is on the suite: Level 1 + labeling + Level 2 + save must
  // land within 10% of trainSystem + save. Per family the medians of
  // three still move by more than that on a shared host, so families
  // outside 10% are listed in the record, not failed.
  double Coverage =
      (Sum.LevelOne + Sum.Labeling + Sum.LevelTwo + Sum.Save / 1e3) /
      Sum.Train;
  ++R.Attempted;
  if (Coverage < 0.9 || Coverage > 1.1)
    R.fail("suite phase coverage is " + jnum(Coverage));
  R.record("phase_coverage_outside_10pct", "[" + Outside + "]");
  R.layer("core.phase_coverage", Coverage, "ratio");
  R.layer("serialize.save_ms", Sum.Save, "ms");
  R.layer("serialize.load_ms", Sum.Load, "ms");
  R.layer("benchmarks.run_s", Sum.Run, "s");
  R.layer("benchmarks.run_calls", static_cast<double>(RunCalls), "count");
  R.layer("benchmarks.sort_memo_hit_frac", ratio(Hits, Hits + Misses),
          "ratio");
}

//===----------------------------------------------------------------------===//
// store
//===----------------------------------------------------------------------===//

void storeLayer(Run &R) {
  std::string Text;
  {
    serialize::TrainedModel M;
    if (!serialize::loadModelFile(R.goldenPath("svd"), M)) {
      R.fail("load svd golden");
      return;
    }
    Text = serialize::serializeModel(M);
  }
  store::ModelStore S(R.Opt.WorkDir + "/probe-store");
  if (!S.open()) {
    R.fail("open probe store");
    return;
  }
  std::vector<double> Pub, Pro, Load;
  for (unsigned I = 0; I != 16; ++I) {
    uint64_t Epoch = 0;
    serialize::LoadStatus St;
    Pub.push_back(spanNs(R.Trace, "store.publish",
                         [&] { St = S.publish(Text, Epoch); }) /
                  1e6);
    if (St)
      Pro.push_back(spanNs(R.Trace, "store.promote",
                           [&] { St = S.promote(Epoch); }) /
                    1e6);
    store::VerifiedModel V;
    if (St)
      Load.push_back(spanNs(R.Trace, "store.loadCurrentVerified", [&] {
                       St = store::loadCurrentVerified(S.dir(), V);
                     }) /
                     1e6);
    ++R.Attempted;
    if (!St || V.Epoch != Epoch || V.Text != Text)
      R.fail("store round trip: " + St.Error);
  }
  R.layer("store.publish_ms", median(Pub), "ms");
  R.layer("store.promote_ms", median(Pro), "ms");
  R.layer("store.load_verified_ms", median(Load), "ms");
}

//===----------------------------------------------------------------------===//
// adapt
//===----------------------------------------------------------------------===//

void adaptLayer(Run &R) {
  struct Spec {
    const char *Name;
    streams::Schedule Kind;
  };
  const Spec Specs[] = {{"sort1", streams::Schedule::Abrupt},
                        {"clustering1", streams::Schedule::Ramp},
                        {"binpacking", streams::Schedule::Periodic}};
  std::vector<double> ServeNs, RetrainMs;
  uint64_t Retrains = 0, Swaps = 0;
  for (const Spec &Sp : Specs) {
    serialize::TrainedModel M;
    if (!serialize::loadModelFile(R.goldenPath(Sp.Name), M)) {
      R.fail(std::string("load ") + Sp.Name);
      continue;
    }
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get(M.Meta.Benchmark);
    registry::ProgramPtr P = F.makeProgram(M.Meta.Scale, M.Meta.ProgramSeed);
    streams::WorkloadStreamOptions SO;
    SO.Kind = Sp.Kind;
    SO.Requests = 1600;
    // Fixed, like live_update's streams: the replay must retrain on every
    // seed, or the retrain metrics would have no sample.
    SO.Seed = 104729 + 17;
    streams::WorkloadStream Stream(*P, SO);
    runtime::AdaptiveServiceOptions AO =
        daemonAdaptOptions(M.Meta.Benchmark, M.Meta.Scale);
    runtime::AdaptiveService A(*P, std::move(M), AO);
    for (size_t In : Stream.sequence()) {
      uint64_t Before = A.stats().Retrains;
      double Ns = spanNs(R.Trace, "adapt.serve", [&] { A.serve(In); });
      if (A.stats().Retrains != Before)
        RetrainMs.push_back(Ns / 1e6);
      else
        ServeNs.push_back(Ns);
    }
    R.Attempted += Stream.length();
    Retrains += A.stats().Retrains;
    Swaps += A.stats().Swaps;
  }
  R.layer("adapt.serve_ns", median(ServeNs), "ns");
  R.layer("adapt.retrain_ms", median(RetrainMs), "ms");
  R.layer("adapt.retrains", static_cast<double>(Retrains), "count");
  R.layer("adapt.swaps", static_cast<double>(Swaps), "count");
  R.layer("adapt.swap_frac",
          ratio(static_cast<double>(Swaps), static_cast<double>(Retrains)),
          "ratio");
}

} // namespace

void runLayers(Run &R) {
  RuntimeNumbers RT = runtimeLayer(R);
  protocolLayer(R);
  daemonLayer(R, RT);
  trainingLayer(R);
  storeLayer(R);
  adaptLayer(R);
}

} // namespace perfbench
