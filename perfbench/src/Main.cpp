//===- perfbench/src/Main.cpp - The repo benchmark runner -----------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pbt-perfbench runs one workload of the repo benchmark and prints, as
/// its last stdout line, one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. Untraced, the metrics are the bounded end-to-end
/// ones; traced, they are the per-layer ones plus every end-to-end value
/// measured with tracing on (traced.*). The line before it is the full
/// run record, with every end-to-end metric:
/// provenance, every metric under the names perfbench/README.md uses, and
/// per-phase detail.
///
///   pbt-perfbench --workload=rpc_small --seed=1 --seconds=30 --trace=0
///       --root=. --work-dir=.bench_build/run --serve=.../pbt-serve
///
/// perfbench/run.py builds it and passes these flags.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "support/ParseNumber.h"
#include "support/SimdDispatch.h"

#include <sys/prctl.h>
#include <sys/stat.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pbt-perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --root=DIR --work-dir=DIR --serve=EXE "
               "[--source=ID]\n"
               "workloads: rpc_small inproc_decide train_suite live_update\n");
  return 2;
}

/// The end-to-end metrics BENCHMARK.json bounds. The wall-clock ones
/// (p50_us, ops_per_s) and raw CPU time (cpu_us_per_op) are measured and
/// recorded on every run too, but on a shared virtual machine they moved
/// between identical runs by more than the largest bound a metric may
/// have, 0.25; norm_cpu_us_per_op is CPU time with the host's drift
/// calibrated out (see perfbench/README.md).
bool gated(const std::string &Name) {
  return Name == "setup_s" || Name == "peak_rss_mb" ||
         Name == "norm_cpu_us_per_op" || Name == "speedup_vs_static" ||
         Name == "regret";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string J = "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      J += ", ";
    J += jstr(Ms[I].Name) + ": {\"value\": " + jnum(Ms[I].Value) +
         ", \"unit\": " + jstr(Ms[I].Unit) + "}";
  }
  return J + "}";
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string Source = "unknown";
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&](const char *P) -> const char * {
      size_t N = std::strlen(P);
      return A.compare(0, N, P) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Val("--workload=")) {
      O.Workload = V;
      HaveWorkload = true;
    } else if (const char *V = Val("--seed=")) {
      if (!pbt::support::parseUint64(V, O.Seed))
        return usage();
      HaveSeed = true;
    } else if (const char *V = Val("--seconds=")) {
      if (!pbt::support::parseDouble(V, O.Seconds) || O.Seconds <= 0)
        return usage();
    } else if (const char *V = Val("--trace=")) {
      O.Trace = std::strcmp(V, "1") == 0;
    } else if (const char *V = Val("--root=")) {
      O.Root = V;
    } else if (const char *V = Val("--work-dir=")) {
      O.WorkDir = V;
    } else if (const char *V = Val("--serve=")) {
      O.ServeExe = V;
    } else if (const char *V = Val("--source=")) {
      Source = V;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || !HaveSeed || O.WorkDir.empty() || O.ServeExe.empty())
    return usage();
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "pbt-perfbench: refusing to measure a '%s' build "
                         "(Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  ::mkdir(O.WorkDir.c_str(), 0755);
  // Open-loop sends wake from ppoll; the default 50us timer slack would
  // show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // A helper that died shows as a failed write, not as SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  O.Threads = std::max(1u, std::thread::hardware_concurrency());

  using WorkloadFn = void (*)(Run &);
  WorkloadFn Fn = nullptr;
  if (O.Workload == "rpc_small")
    Fn = runRpcSmall;
  else if (O.Workload == "inproc_decide")
    Fn = runInprocDecide;
  else if (O.Workload == "train_suite")
    Fn = runTrainSuite;
  else if (O.Workload == "live_update")
    Fn = runLiveUpdate;
  else
    return usage();

  Run R(O);
  if (O.Trace)
    R.Trace.enable(1u << 20);
  Fn(R);
  if (O.Trace) {
    for (const Metric &M : R.E2E)
      R.layer("traced." + M.Name, M.Value, M.Unit);
    runLayers(R);
    std::string SpanFile = O.WorkDir + "/spans-" + O.Workload + "-" +
                           std::to_string(O.Seed) + ".tsv";
    R.Trace.write(SpanFile);
    R.record("span_file", jstr(SpanFile));
    R.record("spans", std::to_string(R.Trace.recorded()));
    R.record("spans_dropped", std::to_string(R.Trace.dropped()));
  }

  for (const Metric &M : R.E2E)
    if (gated(M.Name) && !std::isfinite(M.Value))
      R.fail("no value for " + M.Name);

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::string Failures = "[";
  for (size_t I = 0; I != R.failures().size(); ++I)
    Failures += (I ? ", " : "") + jstr(R.failures()[I]);
  Failures += "]";

  std::string Rec = "{\"workload\": " + jstr(O.Workload) +
                    ", \"seed\": " + std::to_string(O.Seed) +
                    ", \"seconds\": " + jnum(O.Seconds) +
                    ", \"trace\": " + (O.Trace ? "true" : "false") +
                    ", \"source\": " + jstr(Source) +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"threads\": " + std::to_string(O.Threads) +
                    ", \"simd_tier\": " +
                    jstr(pbt::support::simdTierName(
                        pbt::support::activeSimdTier())) +
                    ", \"build_type\": " + jstr(PERFBENCH_BUILD_TYPE) +
                    ", \"failures\": " + Failures;
  for (const auto &[K, V] : R.Record)
    Rec += ", " + jstr(K) + ": " + V;
  Rec += ", \"end_to_end\": " + metricsJson(R.E2E);
  if (O.Trace)
    Rec += ", \"per_layer\": " + metricsJson(R.Layer);
  Rec += "}";
  std::printf("%s\n", Rec.c_str());

  std::vector<Metric> Gated;
  for (const Metric &M : R.E2E)
    if (gated(M.Name))
      Gated.push_back(M);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              metricsJson(O.Trace ? R.Layer : Gated).c_str());
  std::fflush(stdout);
  return 0;
}
