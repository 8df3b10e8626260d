//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload fills the run's end-to-end metrics (the same seven names
/// on every workload; see perfbench/README.md for what each means there),
/// counts attempted and failed operations, and records its own detail.
/// runLayers is the traced run's layer sweep.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include "runtime/AdaptiveService.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <atomic>
#include <memory>

namespace perfbench {

void runRpcSmall(Run &R);
void runInprocDecide(Run &R);
void runTrainSuite(Run &R);
void runLiveUpdate(Run &R);

/// The traced run's per-layer metrics: spans and counters around the
/// benchmark's own calls into daemon, protocol, runtime, benchmarks, core,
/// serialize, store and the adaptive runtime.
void runLayers(Run &R);

/// A decide stream over a universe of \p Universe inputs: \p Length draws,
/// half of them repeats of one of the previous 64, half uniform.
std::vector<size_t> halfRepeatStream(size_t Universe, size_t Length,
                                     pbt::support::Rng &Rng);

/// The AdaptiveService options pbt-serve gives each tenant (ModelRegistry's
/// defaults: window 64, reservoir 48, no retrain pool), so an in-process
/// replica adapts exactly as the daemon does.
pbt::runtime::AdaptiveServiceOptions
daemonAdaptOptions(const std::string &Benchmark, double Scale);

/// fnv1a64 of every family's scale-1 model bytes, as recorded in
/// perfbench/fingerprints.json.
std::map<std::string, uint64_t> expectedFingerprints(const Run &R);
std::string hex64(uint64_t V);
/// Counts one check of \p Bytes against the recorded fingerprint.
void checkFingerprint(Run &R, const std::map<std::string, uint64_t> &Expected,
                      const std::string &Family, const std::string &Bytes);

/// A TunableProgram that forwards to another and counts and times its
/// extractFeature and run calls (busy time summed over threads). Its
/// answers are the inner program's, so training through it produces the
/// same bytes.
class TimedProgram : public pbt::runtime::TunableProgram {
public:
  explicit TimedProgram(const pbt::runtime::TunableProgram &Inner)
      : Inner(Inner) {}
  std::string name() const override { return Inner.name(); }
  const pbt::runtime::ConfigSpace &space() const override {
    return Inner.space();
  }
  std::vector<pbt::runtime::FeatureInfo> features() const override {
    return Inner.features();
  }
  std::optional<pbt::runtime::AccuracySpec> accuracy() const override {
    return Inner.accuracy();
  }
  size_t numInputs() const override { return Inner.numInputs(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        pbt::support::CostCounter &Cost) const override;
  pbt::runtime::RunResult run(size_t Input,
                              const pbt::runtime::Configuration &Config,
                              pbt::support::CostCounter &Cost) const override;
  std::string describeInput(size_t Input) const override {
    return Inner.describeInput(Input);
  }
  std::string
  describeConfiguration(const pbt::runtime::Configuration &C) const override {
    return Inner.describeConfiguration(C);
  }

  mutable std::atomic<uint64_t> ExtractCalls{0}, ExtractNs{0}, RunCalls{0},
      RunNs{0};

private:
  const pbt::runtime::TunableProgram &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
