//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repo benchmark shares: the run context
/// (options, metric sinks, failure accounting), the preallocated span
/// buffer of the traced run, a spawned pbt-serve process, the open-loop
/// request generator, and the answer-quality accumulator behind
/// speedup_vs_static and regret.
///
/// The benchmark is an outside caller: everything here goes through the
/// library's public headers and the daemon's wire protocol.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "daemon/Client.h"
#include "runtime/TunableProgram.h"
#include "serialize/ModelIO.h"

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (Q in [0,1]); NaN on an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// JSON number with all its digits (never "nan": null instead).
std::string jnum(double V);
std::string jstr(const std::string &S);

//===----------------------------------------------------------------------===//
// Spans of the traced run
//===----------------------------------------------------------------------===//

/// A fixed-capacity span buffer for the benchmark's main thread. Spans are
/// recorded around the benchmark's own calls into each layer; nothing is
/// written until the run ends. When disabled, begin/end cost one branch.
class Tracer {
public:
  struct Span {
    const char *Name = nullptr;
    int64_t Start = 0, End = 0;
    int32_t Parent = -1;
  };

  void enable(size_t Capacity);
  bool enabled() const { return On; }

  /// Opens a span under the innermost open one; -1 when disabled or full.
  int32_t begin(const char *Name);
  void end(int32_t Idx);

  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Idx(T.begin(Name)) {}
    ~Scope() { T.end(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Idx;
  };

  size_t recorded() const { return Used; }
  size_t dropped() const { return Dropped; }
  /// Writes one tab-separated line per span (index, parent, name, start,
  /// end): a span's self time is its duration minus its children's.
  bool write(const std::string &Path) const;

private:
  bool On = false;
  std::vector<Span> Spans;
  size_t Used = 0, Dropped = 0;
  int32_t Open = -1;
};

//===----------------------------------------------------------------------===//
// Run context
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Repository root (the parent of the benchmark directory).
  std::string Root = ".";
  /// Scratch directory for sockets, stores and span files.
  std::string WorkDir;
  std::string ServeExe;
  /// Thread and connection cap: the host's processor count.
  unsigned Threads = 4;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

class Run {
public:
  explicit Run(Options O) : Opt(std::move(O)) {}

  Options Opt;
  Tracer Trace;
  /// End-to-end metrics (printed when untraced, mirrored as traced.* in
  /// the traced run).
  std::vector<Metric> E2E;
  /// Per-layer metrics (traced run only).
  std::vector<Metric> Layer;
  /// Extra fields of the run record (key -> JSON value).
  std::vector<std::pair<std::string, std::string>> Record;
  uint64_t Attempted = 0, Failed = 0;
  /// The Stats reply of the workload's own daemon, taken after its load
  /// (empty when the workload runs no daemon).
  std::string DaemonStats;

  void e2e(const std::string &Name, double V, const std::string &Unit) {
    E2E.push_back({Name, V, Unit});
  }
  void layer(const std::string &Name, double V, const std::string &Unit) {
    Layer.push_back({Name, V, Unit});
  }
  void record(const std::string &Key, const std::string &Json) {
    Record.emplace_back(Key, Json);
  }
  /// Counts \p N failed operations and keeps the first few reasons.
  void fail(const std::string &Why, uint64_t N = 1);
  const std::vector<std::string> &failures() const { return Reasons; }

  std::string goldenPath(const std::string &Name) const {
    return Opt.Root + "/tests/golden/" + Name + ".pbt";
  }

private:
  std::vector<std::string> Reasons;
};

/// The seven committed golden models, in the order the suite lists them.
const std::vector<std::string> &goldenNames();

/// Peak resident set (VmHWM) of this process / of \p Pid, in MB.
double selfPeakRssMb();
double pidPeakRssMb(pid_t Pid);

/// CPU time (ns) every thread of process \p Pid has run so far.
double pidCpuNs(pid_t Pid);
/// CPU time (ns) of the calling thread / of this whole process so far.
double threadCpuNs();
double processCpuNs();

/// Median of \p Reps set-ups, each timed by \p Once (seconds). The last
/// set-up's state is the one the workload keeps.
double medianSetup(unsigned Reps, const std::function<double()> &Once);

/// The processor the benchmark's own timing-critical thread keeps to
/// itself -- the open-loop generator, the single-threaded decide loop --
/// while a spawned daemon runs on the others: the generator's polling
/// never queues a server thread, server threads never delay a send, and a
/// timed loop does not migrate. -1 (no pinning) on a one-processor host.
int benchCpu();

/// Pins the calling thread to \p Cpu (no-op when negative) until scope
/// exit, then restores its affinity.
class PinToCpu {
public:
  explicit PinToCpu(int Cpu);
  ~PinToCpu();
  PinToCpu(const PinToCpu &) = delete;
  PinToCpu &operator=(const PinToCpu &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

/// The processors a spawned daemon runs on (every one but benchCpu()),
/// and all of them.
std::vector<int> daemonCpus();
std::vector<int> allCpus();

//===----------------------------------------------------------------------===//
// Host-speed calibration
//===----------------------------------------------------------------------===//

/// About the CPU time one Calibrator unit took on the reference host (an
/// Intel Xeon virtual machine with four processors) when the host was
/// least loaded: the scale of norm_cpu_us_per_op.
constexpr double kReferenceUnitNs = 480000.0;

/// Times a fixed unit of reference work -- 50000 random read-modify-writes
/// over a 32 MiB table, after an untimed unit that refills the caches --
/// in a helper process pinned to a given processor. On a shared host the
/// other tenants' cache and memory-bandwidth pressure slows the unit as
/// it slows the workloads, by a share that drifts from second to second.
/// Each workload times units beside its own timed work, on the
/// processors that work runs on, and reports
///   norm_cpu_us_per_op = cpu_us_per_op * kReferenceUnitNs / unit ns,
/// an estimate of its CPU time per operation on the reference host when
/// least loaded. A program change moves the operation and not the unit.
/// The table lives in the helper, so it adds nothing to the benchmark's
/// peak RSS.
class Calibrator {
public:
  /// Forks the helper; it dies with the benchmark.
  Calibrator();
  /// Closes the helper's pipe and waits for it to exit.
  ~Calibrator();
  Calibrator(const Calibrator &) = delete;
  Calibrator &operator=(const Calibrator &) = delete;

  /// CPU ns of one unit on processor \p Cpu (-1: without pinning); NaN
  /// if the helper is gone.
  double unitNs(int Cpu);
  /// Mean CPU ns of one unit on each processor of \p Cpus.
  double unitNsOn(const std::vector<int> &Cpus);

private:
  pid_t Pid = -1;
  int ToHelper = -1, FromHelper = -1;
};

//===----------------------------------------------------------------------===//
// A spawned pbt-serve
//===----------------------------------------------------------------------===//

class DaemonProcess {
public:
  DaemonProcess() = default;
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Forks and execs \p Exe with \p Args plus --socket=\p Socket and
  /// waits until it accepts connections.
  bool start(const std::string &Exe, const std::vector<std::string> &Args,
             const std::string &Socket, std::string &Err);
  const std::string &endpoint() const { return Socket; }
  pid_t pid() const { return Pid; }
  double peakRssMb() const { return Pid > 0 ? pidPeakRssMb(Pid) : 0.0; }
  /// Shutdown RPC, then waits; SIGKILL if it does not exit in time.
  void stop();

private:
  pid_t Pid = -1;
  std::string Socket;
};

/// Connects and attaches one session; false with \p Err on failure.
bool connectAttach(pbt::daemon::DaemonClient &C, const std::string &Endpoint,
                   const std::string &Tenant,
                   pbt::daemon::DaemonClient::AttachInfo &Info,
                   std::string &Err);

/// Parses one unsigned field ("name": 123) out of a Stats reply.
uint64_t statsField(const std::string &Json, const std::string &Name);

//===----------------------------------------------------------------------===//
// Open-loop generator
//===----------------------------------------------------------------------===//

/// One scheduled request: due time, connection, optional tenant switch
/// (a Hello pipelined ahead of the Predict), and the input ids.
struct Scheduled {
  int64_t DueNs = 0;
  unsigned Conn = 0;
  int Hello = -1; ///< tenant index to attach first, -1 = none
  unsigned Tenant = 0;
  std::vector<uint64_t> Inputs;
};

struct OpenLoopResult {
  uint64_t Sent = 0, Ok = 0, Failed = 0;
  /// Latency from due time to reply, microseconds, per answered request.
  std::vector<double> LatencyUs;
  /// How late each send was against its due time, microseconds.
  std::vector<double> LateUs;
  /// Requests still unanswered when the last send was made.
  size_t BacklogAtEnd = 0;
};

/// Drives \p Fds open loop: \p Next yields the next scheduled request
/// (false when the schedule is done); each reply is passed to \p OnReply
/// with its request and completion time. At most \p MaxInFlight requests
/// wait per connection; past that the generator falls behind (and its
/// lateness shows). Replies missing \p DrainSeconds after the last send
/// count as failed.
OpenLoopResult
runOpenLoop(const std::vector<int> &Fds, const std::vector<std::string> &Tenants,
            const std::function<bool(Scheduled &)> &Next,
            const std::function<bool(const Scheduled &,
                                     const pbt::daemon::Message &, int64_t)>
                &OnReply,
            size_t MaxInFlight, double DrainSeconds);

//===----------------------------------------------------------------------===//
// Answer quality
//===----------------------------------------------------------------------===//

/// speedup_vs_static: geometric mean over tenants of the mean per-answer
/// speedup over the tenant's static oracle (feature cost included).
/// regret: mean over answers of chosen cost / per-input oracle cost - 1.
class Quality {
public:
  void add(unsigned Tenant, double StaticCost, double ChosenCost,
           double OracleCost);
  double speedupVsStatic() const;
  double regret() const;
  uint64_t answers() const { return N; }

private:
  std::map<unsigned, std::pair<double, uint64_t>> PerTenant;
  double RegretSum = 0;
  uint64_t N = 0;
};

/// Per-input costs of one frozen model on its own universe, from the
/// model's Level-1 tables: what a choice of each landmark would cost,
/// what the static and per-input oracles cost, and the feature cost a
/// cold decision pays.
struct CostTable {
  std::vector<std::vector<double>> Time; ///< [input][landmark]
  std::vector<double> Static, Oracle, FeatureCost;
};
CostTable costTable(const pbt::serialize::TrainedModel &Model,
                    const pbt::runtime::TunableProgram &Program);

/// One committed golden model with its own universe and the in-process
/// answers a frozen server must give for every input.
struct GoldenTenant {
  std::string Name;
  pbt::serialize::TrainedModel Model;
  std::unique_ptr<pbt::runtime::TunableProgram> Program;
  std::vector<unsigned> Expected; ///< landmark per input
  CostTable Costs;
};

/// Loads the seven goldens; a model that fails to load counts as a
/// failure on \p R and is skipped.
std::vector<GoldenTenant> loadGoldens(Run &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
