//===- perfbench/src/InprocDecide.cpp - The inproc_decide workload --------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// inproc_decide: the seven goldens, each bound in process to a fresh
/// universe 100x its training universe (scale 10, another program seed),
/// answer a seeded stream through PredictionService::decideBatch(...,
/// nullptr) in batches of 64 -- the call a daemon worker makes. Half of
/// the stream repeats one of the previous 64 inputs; clearMemo() at the
/// start of every pass keeps the cold share steady over a long run. No
/// daemon runs: classification, the memo, the SIMD lanes and feature
/// extraction do all the work.
///
/// Checks: a seeded sample of decisions against decideInterpreted, and
/// every golden model's committed *.choices.csv on its own universe.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"
#include "support/Random.h"

#include <fstream>
#include <sstream>

using namespace pbt;

namespace perfbench {

namespace {

constexpr double kUniverseScale = 10.0;
constexpr uint64_t kSeedOffset = 1000003;
constexpr size_t kBatch = 64;
constexpr size_t kStreamLength = 16384;
constexpr double kRepeatShare = 0.5;
constexpr size_t kInterpretedSample = 64;
constexpr unsigned kCalibrateEvery = 16;

struct Bound {
  std::string Name;
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::PredictionService> Service;
  std::vector<size_t> Stream;
};

std::vector<std::pair<size_t, unsigned>> readChoices(const std::string &Path) {
  std::vector<std::pair<size_t, unsigned>> Out;
  std::ifstream F(Path);
  std::string Line;
  std::getline(F, Line); // header
  while (std::getline(F, Line)) {
    size_t Comma = Line.find(',');
    if (Comma == std::string::npos)
      continue;
    Out.emplace_back(std::stoul(Line.substr(0, Comma)),
                     static_cast<unsigned>(std::stoul(Line.substr(Comma + 1))));
  }
  return Out;
}

} // namespace

std::vector<size_t> halfRepeatStream(size_t Universe, size_t Length,
                                     support::Rng &Rng) {
  std::vector<size_t> S;
  S.reserve(Length);
  for (size_t I = 0; I != Length; ++I) {
    if (I > 0 && Rng.uniform() < kRepeatShare)
      S.push_back(S[I - 1 - Rng.index(std::min<size_t>(I, kBatch))]);
    else
      S.push_back(Rng.index(Universe));
  }
  return S;
}

void runInprocDecide(Run &R) {
  std::vector<Bound> Tenants;
  bool SetupOk = true;
  double SetupS = medianSetup(3, [&] {
    Tracer::Scope S(R.Trace, "setup");
    int64_t T0 = nowNs();
    Tenants.clear();
    for (const std::string &Name : goldenNames()) {
      Bound B;
      B.Name = Name;
      B.Service = std::make_unique<runtime::PredictionService>();
      serialize::LoadStatus St = B.Service->loadFile(R.goldenPath(Name));
      const registry::BenchmarkFactory *F =
          St ? registry::BenchmarkRegistry::instance().lookup(
                   B.Service->model().Meta.Benchmark)
             : nullptr;
      if (!F) {
        R.fail("load " + Name + ": " + St.Error);
        SetupOk = false;
        continue;
      }
      B.Program = F->makeProgram(kUniverseScale,
                                 B.Service->model().Meta.ProgramSeed +
                                     kSeedOffset);
      St = B.Service->bind(*B.Program);
      if (!St) {
        R.fail("bind " + Name + ": " + St.Error);
        SetupOk = false;
        continue;
      }
      Tenants.push_back(std::move(B));
    }
    return static_cast<double>(nowNs() - T0) / 1e9;
  });
  if (!SetupOk)
    return;

  support::Rng Rng(R.Opt.Seed);
  for (Bound &B : Tenants)
    B.Stream = halfRepeatStream(B.Program->numInputs(), kStreamLength, Rng);

  // Decide passes until the time is up; every batch call is timed.
  uint64_t BatchCalls = 0;
  uint64_t Decisions = 0;
  std::vector<std::vector<std::pair<size_t, unsigned>>> Sample(Tenants.size());
  int64_t End = nowNs() + static_cast<int64_t>(R.Opt.Seconds * 1e9);
  std::vector<size_t> Batch(kBatch);
  std::vector<double> PassRate, PassCpuNs, PassP50, PassP90, PassP99;
  PinToCpu Pin(benchCpu());
  Calibrator Cal;
  double UnitNs = 0;
  std::vector<double> PassNorm, Units;
  for (unsigned Pass = 0; nowNs() < End; ++Pass) {
    // A unit sweeps the caches, so it runs only every kCalibrateEvery
    // passes (about every 0.1 s), not before every one.
    if (Pass % kCalibrateEvery == 0) {
      UnitNs = Cal.unitNs(benchCpu());
      Units.push_back(UnitNs);
    }
    double PassNs = 0, Cpu0 = threadCpuNs();
    std::vector<double> PassUs;
    for (size_t T = 0; T != Tenants.size(); ++T) {
      Bound &B = Tenants[T];
      B.Service->clearMemo();
      Tracer::Scope S(R.Trace, "runtime.decideBatch.pass");
      for (size_t At = 0; At + kBatch <= B.Stream.size(); At += kBatch) {
        std::copy(B.Stream.begin() + At, B.Stream.begin() + At + kBatch,
                  Batch.begin());
        int64_t T0 = nowNs();
        std::vector<runtime::PredictionService::Decision> Out =
            B.Service->decideBatch(Batch, nullptr);
        int64_t Ns = nowNs() - T0;
        PassNs += static_cast<double>(Ns);
        PassUs.push_back(static_cast<double>(Ns) / 1e3);
        Decisions += Out.size();
        if (Pass == 0 && At / kBatch < kInterpretedSample) {
          size_t P = Rng.index(kBatch);
          Sample[T].emplace_back(Batch[P], Out[P].Landmark);
        }
      }
    }
    BatchCalls += PassUs.size();
    PassCpuNs.push_back((threadCpuNs() - Cpu0) /
                        static_cast<double>(PassUs.size() * kBatch));
    PassNorm.push_back(PassCpuNs.back() * kReferenceUnitNs / UnitNs);
    PassRate.push_back(static_cast<double>(PassUs.size() * kBatch) /
                       (PassNs / 1e9));
    PassP50.push_back(quantile(PassUs, 0.5));
    PassP90.push_back(quantile(PassUs, 0.9));
    PassP99.push_back(quantile(PassUs, 0.99));
  }
  R.Attempted += Decisions;

  // Parity: a sample against the interpreted reference path.
  uint64_t Checked = 0;
  for (size_t T = 0; T != Tenants.size(); ++T) {
    runtime::PredictionService Ref;
    if (!Ref.loadFile(R.goldenPath(Tenants[T].Name)) ||
        !Ref.bind(*Tenants[T].Program)) {
      R.fail("reference load " + Tenants[T].Name);
      continue;
    }
    for (const auto &[In, Landmark] : Sample[T]) {
      ++Checked;
      if (Ref.decideInterpreted(In).Landmark != Landmark)
        R.fail("interpreted parity: " + Tenants[T].Name + " input " +
               std::to_string(In));
    }
  }

  // Golden choices on the golden universes, and the answers' quality.
  Quality Q;
  std::vector<GoldenTenant> Goldens = loadGoldens(R);
  for (size_t T = 0; T != Goldens.size(); ++T) {
    const GoldenTenant &G = Goldens[T];
    runtime::PredictionService S;
    if (!S.loadFile(R.goldenPath(G.Name)) || !S.bind(*G.Program)) {
      R.fail("golden load " + G.Name);
      continue;
    }
    auto Choices = readChoices(R.Opt.Root + "/tests/golden/" + G.Name +
                               ".choices.csv");
    if (Choices.empty())
      R.fail("no golden choices for " + G.Name);
    std::vector<size_t> Inputs;
    for (const auto &C : Choices)
      Inputs.push_back(C.first);
    std::vector<runtime::PredictionService::Decision> Out =
        S.decideBatch(Inputs, nullptr);
    for (size_t I = 0; I != Choices.size(); ++I) {
      ++Checked;
      size_t In = Choices[I].first;
      unsigned L = Out[I].Landmark;
      if (L != Choices[I].second)
        R.fail("golden choice: " + G.Name + " input " + std::to_string(In));
      Q.add(static_cast<unsigned>(T), G.Costs.Static[In],
            G.Costs.Time[In][L] + G.Costs.FeatureCost[In], G.Costs.Oracle[In]);
    }
  }
  R.Attempted += Checked;

  runtime::PredictionService::Stats Totals;
  for (const Bound &B : Tenants) {
    Totals.Calls += B.Service->stats().Calls;
    Totals.MemoizedCalls += B.Service->stats().MemoizedCalls;
    Totals.FeaturesExtracted += B.Service->stats().FeaturesExtracted;
  }

  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", selfPeakRssMb(), "MB");
  // Medians over passes: a pass is one replay of every tenant's stream
  // from a cleared memo, so each pass does the same work.
  R.e2e("cpu_us_per_op", median(PassCpuNs) / 1e3, "us");
  R.e2e("norm_cpu_us_per_op", median(PassNorm) / 1e3, "us");
  R.e2e("p50_us", median(PassP50), "us");
  R.e2e("ops_per_s", median(PassRate), "1/s");
  R.e2e("speedup_vs_static", Q.speedupVsStatic(), "x");
  R.e2e("regret", Q.regret(), "ratio");
  R.record("decisions_per_s", jnum(median(PassRate)));
  R.record("passes", std::to_string(PassRate.size()));
  R.record("unit_ns", jnum(median(Units)));
  R.record("p90_us", jnum(median(PassP90)));
  R.record("p99_us", jnum(median(PassP99)));
  R.record("batch", std::to_string(kBatch));
  R.record("repeat_share", jnum(kRepeatShare));
  R.record("batch_calls", std::to_string(BatchCalls));
  R.record("memo_hit_frac",
           jnum(static_cast<double>(Totals.MemoizedCalls) /
                static_cast<double>(std::max<uint64_t>(1, Totals.Calls))));
  R.record("features_per_decision",
           jnum(static_cast<double>(Totals.FeaturesExtracted) /
                static_cast<double>(std::max<uint64_t>(1, Totals.Calls))));
  R.record("checks", std::to_string(Checked));
}

} // namespace perfbench
