//===- perfbench/src/TrainSuite.cpp - The train_suite workload ------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// train_suite: core::trainSystem plus serialize::serializeModel for every
/// registered family at scale 1 on a pool of at most nproc threads. Each
/// timed pass trains freshly generated programs, so every pass starts from
/// the same sort-run-memo state (the memo is keyed by program instance).
/// evaluateSystem runs outside the timed region. Every model's bytes are
/// fingerprinted with store::fnv1a64 and compared against
/// perfbench/fingerprints.json.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/FeatureProbe.h"
#include "core/Labeling.h"
#include "registry/BenchmarkRegistry.h"
#include "store/ModelStore.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pbt;

namespace perfbench {

std::map<std::string, uint64_t> expectedFingerprints(const Run &R) {
  std::map<std::string, uint64_t> Out;
  std::ifstream F(R.Opt.Root + "/perfbench/fingerprints.json");
  std::stringstream SS;
  SS << F.rdbuf();
  std::string Text = SS.str();
  // {"family": "0x0123...", ...}: a flat object of hex strings.
  size_t At = 0;
  while ((At = Text.find('"', At)) != std::string::npos) {
    size_t KeyEnd = Text.find('"', At + 1);
    size_t ValBeg = Text.find('"', KeyEnd + 1);
    size_t ValEnd = ValBeg == std::string::npos ? ValBeg
                                                : Text.find('"', ValBeg + 1);
    if (KeyEnd == std::string::npos || ValEnd == std::string::npos)
      break;
    Out[Text.substr(At + 1, KeyEnd - At - 1)] = std::strtoull(
        Text.substr(ValBeg + 1, ValEnd - ValBeg - 1).c_str(), nullptr, 16);
    At = ValEnd + 1;
  }
  return Out;
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

void checkFingerprint(Run &R, const std::map<std::string, uint64_t> &Expected,
                      const std::string &Family, const std::string &Bytes) {
  ++R.Attempted;
  auto It = Expected.find(Family);
  uint64_t Got = store::fnv1a64(Bytes.data(), Bytes.size());
  if (It == Expected.end())
    R.fail("no recorded fingerprint for " + Family);
  else if (It->second != Got)
    R.fail("fingerprint " + Family + ": " + hex64(Got) + " != recorded " +
           hex64(It->second));
}

void addTestRowQuality(Quality &Q, unsigned Family,
                       const runtime::TunableProgram &Program,
                       const core::TrainedSystem &S) {
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  const core::LevelOneResult &L1 = S.L1;
  for (size_t Row : S.TestRows) {
    core::FeatureProbe Probe =
        core::probeFromTable(L1.Features, L1.ExtractCosts, Row);
    unsigned Pred = S.L2.Production->classify(Probe);
    Q.add(Family, L1.Time.at(Row, S.StaticOracleLandmark),
          L1.Time.at(Row, Pred) + Probe.totalCost(),
          L1.Time.at(Row, core::bestLandmark(L1.Time, L1.Acc, Row, Spec)));
  }
}

void runTrainSuite(Run &R) {
  support::ThreadPool Pool(R.Opt.Threads);
  std::vector<registry::SuiteEntry> Suite;
  double SetupS = medianSetup(5, [&] {
    Tracer::Scope S(R.Trace, "setup");
    int64_t T0 = nowNs();
    Suite = registry::makeSuite(1.0, &Pool);
    return static_cast<double>(nowNs() - T0) / 1e9;
  });
  std::map<std::string, uint64_t> Expected = expectedFingerprints(R);

  std::vector<double> PassS, PassCpuS, PassNormS, Units;
  Calibrator Cal;
  std::string Prints = "{";
  std::string PerFamily = "{";
  double EvalS = 0;
  std::vector<double> Speedups;
  Quality Q;
  int64_t End = nowNs() + static_cast<int64_t>(R.Opt.Seconds * 1e9);
  for (unsigned Pass = 0;; ++Pass) {
    if (Pass > 0)
      Suite = registry::makeSuite(1.0, &Pool); // fresh programs, fresh memo
    // Units on every processor before and after the pass: the pool's
    // threads run on all of them.
    double UnitBefore = Cal.unitNsOn(allCpus());
    double Train = 0, Cpu0 = processCpuNs();
    for (size_t F = 0; F != Suite.size(); ++F) {
      registry::SuiteEntry &E = Suite[F];
      int64_t T0 = nowNs();
      core::TrainedSystem Sys;
      std::string Bytes;
      {
        Tracer::Scope S(R.Trace, "core.trainSystem");
        Sys = core::trainSystem(*E.Program, E.Options);
      }
      const registry::BenchmarkFactory &Fac =
          registry::BenchmarkRegistry::instance().get(E.Name);
      serialize::TrainedModel Model;
      {
        Tracer::Scope S(R.Trace, "serialize.serializeModel");
        Model = serialize::makeModel(E.Name, 1.0, Fac.defaultProgramSeed(),
                                     *E.Program, std::move(Sys));
        Bytes = serialize::serializeModel(Model);
      }
      double Secs = static_cast<double>(nowNs() - T0) / 1e9;
      Train += Secs;
      checkFingerprint(R, Expected, E.Name, Bytes);
      if (Pass == 0) {
        Prints += std::string(F ? ", " : "") + jstr(E.Name) + ": " +
                  jstr(hex64(store::fnv1a64(Bytes.data(), Bytes.size())));
        PerFamily += std::string(F ? ", " : "") + jstr(E.Name) + ": " +
                     jnum(Secs);
        int64_t E0 = nowNs();
        double EvalCpu0 = processCpuNs();
        core::EvaluationResult Ev;
        {
          Tracer::Scope S(R.Trace, "core.evaluateSystem");
          Ev = core::evaluateSystem(*E.Program, Model.System, &Pool);
        }
        EvalS += static_cast<double>(nowNs() - E0) / 1e9;
        Speedups.push_back(Ev.TwoLevelWithFeat);
        addTestRowQuality(Q, static_cast<unsigned>(F), *E.Program,
                          Model.System);
        Cpu0 += processCpuNs() - EvalCpu0; // evaluation is not training
      }
    }
    PassS.push_back(Train);
    PassCpuS.push_back((processCpuNs() - Cpu0) / 1e9);
    Units.push_back((UnitBefore + Cal.unitNsOn(allCpus())) / 2);
    PassNormS.push_back(PassCpuS.back() * kReferenceUnitNs / Units.back());
    // Another pass only if it fits in the time left.
    if (nowNs() + static_cast<int64_t>(Train * 1e9) > End)
      break;
  }

  double LogSum = 0;
  for (double S : Speedups)
    LogSum += std::log(S);
  double TrainS = median(PassS);
  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", selfPeakRssMb(), "MB");
  R.e2e("cpu_us_per_op",
        median(PassCpuS) * 1e6 / static_cast<double>(Suite.size()), "us");
  R.e2e("norm_cpu_us_per_op",
        median(PassNormS) * 1e6 / static_cast<double>(Suite.size()), "us");
  R.e2e("p50_us", TrainS * 1e6, "us");
  R.e2e("ops_per_s", static_cast<double>(Suite.size()) / TrainS, "1/s");
  R.e2e("speedup_vs_static",
        std::exp(LogSum / static_cast<double>(Speedups.size())), "x");
  R.e2e("regret", Q.regret(), "ratio");
  R.record("train_s", jnum(TrainS));
  R.record("p90_us", jnum(quantile(PassS, 0.9) * 1e6));
  R.record("passes", std::to_string(PassS.size()));
  R.record("unit_ns", jnum(median(Units)));
  R.record("evaluate_s", jnum(EvalS));
  R.record("family_train_s", PerFamily + "}");
  R.record("fingerprints", Prints + "}");
}

} // namespace perfbench
