//===- perfbench/src/RpcSmall.cpp - The rpc_small workload ----------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rpc_small: one spawned pbt-serve with the seven goldens as tenants and
/// default workers, queue and batch-max, driven open loop with seeded
/// Poisson arrivals of single-input Predicts. Every golden universe is
/// small, so after first touch a decision is a memo load: the daemon
/// (transport, framing, session threads, queue, workers) does nearly all
/// the work.
///
/// Phases: a rate ladder (each step reports sent / succeeded / failed, the
/// generator's lateness and the latency percentiles; ops_per_s is the
/// highest valid step meeting the limit), then a fixed-rate phase whose
/// latency gives p50_us (p90 and p99 are recorded) and whose daemon CPU
/// time per request, window by window, gives cpu_us_per_op and
/// norm_cpu_us_per_op.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "streams/WorkloadStream.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>

using namespace pbt;

namespace perfbench {

namespace {

/// Four connections (no more than the reference host's processors). Tenant
/// t is served on connection t % kConns; a connection switching tenants
/// pipelines a Hello ahead of the Predict.
constexpr unsigned kConns = 4;
/// The latency limit of a ladder step. It is held on p90: on a shared
/// virtual machine, host stalls of milliseconds reach 1% of requests in a
/// window often enough that a p99 limit measures the host, not the server.
constexpr double kLimitUs = 1000.0;
/// A step whose generator ran later than this at p99 is invalid: the
/// generator, not the server, missed the schedule.
constexpr double kMaxLateUs = 500.0;
/// The fixed rate of the latency phase, about a fifth of the seed's max
/// rate: at half of it the tail swung several-fold between runs with the
/// host's load.
constexpr double kFixedRate = 8000.0;
/// Ladder: 0.4 s steps of 2000 req/s from 20000 req/s, well below the
/// seed's saturation, until three valid steps in a row miss the limit.
constexpr double kLadderStep = 2000.0;
constexpr double kLadderFirst = 20000.0;
constexpr double kStepSeconds = 0.4;

struct Traffic {
  std::vector<GoldenTenant> &Tenants;
  std::vector<std::vector<size_t>> Streams; ///< per tenant, cycled
  std::vector<size_t> Cursor;
  std::vector<int> Attached; ///< per connection, at schedule time
  support::Rng Rng;

  Traffic(std::vector<GoldenTenant> &T, uint64_t Seed)
      : Tenants(T), Cursor(T.size(), 0), Attached(kConns, -1), Rng(Seed) {
    for (size_t I = 0; I != T.size(); ++I) {
      streams::WorkloadStreamOptions SO;
      SO.Requests = 4096;
      // Fixed per tenant: the seed draws arrivals and the tenant mix.
      SO.Seed = 7919 + I;
      SO.SwitchFraction = 1.0; // never shifts: the stationary stream
      Streams.push_back(
          streams::WorkloadStream(*T[I].Program, SO).sequence());
    }
  }

  /// Fills \p S with the next request of a Poisson stream at \p Rate.
  void next(Scheduled &S, int64_t &ClockNs, double Rate) {
    ClockNs += static_cast<int64_t>(Rng.exponential(Rate) * 1e9);
    unsigned T = static_cast<unsigned>(Rng.index(Tenants.size()));
    S.DueNs = ClockNs;
    S.Tenant = T;
    S.Conn = T % kConns;
    S.Hello = Attached[S.Conn] == static_cast<int>(T) ? -1 : static_cast<int>(T);
    Attached[S.Conn] = static_cast<int>(T);
    S.Inputs.assign(1, Streams[T][Cursor[T]++ % Streams[T].size()]);
  }
};

/// One rate held for a few windows. Each window is one open-loop run and
/// counts only when the generator kept to the schedule in it; the phase's
/// percentiles are medians over the valid windows, so one host stall
/// moves one window, not the phase.
struct Phase {
  double Rate = 0;
  uint64_t Sent = 0, Ok = 0, Failed = 0;
  size_t MaxBacklog = 0, Samples = 0;
  unsigned Windows = 0;
  std::vector<double> P50, P90, P99; ///< per valid window
  /// Daemon CPU per answer, per window: as measured, and normalised by a
  /// Calibrator unit on the daemon's processors right after the window.
  std::vector<double> CpuUs, NormCpuUs, UnitNs;
  double MaxLateP99 = 0;
  bool Valid = false, Pass = false;

  double p50() const { return Valid ? median(P50) : std::nan(""); }
  double p90() const { return Valid ? median(P90) : std::nan(""); }
  double p99() const { return Valid ? median(P99) : std::nan(""); }
};

std::string phaseJson(const Phase &P) {
  return "{\"rate_rps\": " + jnum(P.Rate) +
         ", \"sent\": " + std::to_string(P.Sent) +
         ", \"succeeded\": " + std::to_string(P.Ok) +
         ", \"failed\": " + std::to_string(P.Failed) +
         ", \"gen.late_us\": " + jnum(P.MaxLateP99) +
         ", \"max_backlog\": " + std::to_string(P.MaxBacklog) +
         ", \"windows\": " + std::to_string(P.Windows) +
         ", \"valid_windows\": " + std::to_string(P.P50.size()) +
         ", \"valid\": " + (P.Valid ? "true" : "false") +
         ", \"p50_us\": " + jnum(P.p50()) + ", \"p90_us\": " +
         jnum(P.p90()) + ", \"p99_us\": " + jnum(P.p99()) +
         ", \"meets_limit\": " + (P.Pass ? "true" : "false") + "}";
}

} // namespace

void runRpcSmall(Run &R) {
  std::vector<GoldenTenant> Tenants = loadGoldens(R);
  if (Tenants.size() != goldenNames().size())
    return;
  std::vector<std::string> Names;
  std::string ModelSpec;
  for (const GoldenTenant &T : Tenants) {
    Names.push_back(T.Name);
    ModelSpec += (ModelSpec.empty() ? "" : ",") + R.goldenPath(T.Name);
  }

  // Set-up: spawn, load and compile every tenant, connect and attach.
  DaemonProcess D;
  std::vector<std::unique_ptr<daemon::DaemonClient>> Conns;
  std::string Socket = R.Opt.WorkDir + "/rpc.sock";
  bool SetupOk = true;
  double SetupS = medianSetup(5, [&] {
    Tracer::Scope S(R.Trace, "setup");
    int64_t T0 = nowNs();
    Conns.clear();
    D.stop();
    std::string Err;
    if (!D.start(R.Opt.ServeExe, {"--model=" + ModelSpec}, Socket, Err)) {
      R.fail("spawn pbt-serve: " + Err);
      SetupOk = false;
      return 0.0;
    }
    for (unsigned C = 0; C != kConns; ++C) {
      auto Client = std::make_unique<daemon::DaemonClient>();
      daemon::DaemonClient::AttachInfo Info;
      if (!connectAttach(*Client, Socket, Names[C], Info, Err)) {
        R.fail("attach: " + Err);
        SetupOk = false;
      }
      Conns.push_back(std::move(Client));
    }
    return static_cast<double>(nowNs() - T0) / 1e9;
  });
  if (!SetupOk)
    return;
  std::vector<int> Fds;
  for (auto &C : Conns)
    Fds.push_back(C->fd());

  Traffic Gen(Tenants, R.Opt.Seed);
  for (unsigned C = 0; C != kConns; ++C)
    Gen.Attached[C] = static_cast<int>(C);
  Quality Q;
  auto OnReply = [&](const Scheduled &S, const daemon::Message &M, int64_t) {
    if (M.Type == daemon::MsgType::Shed) {
      R.fail("shed");
      return false;
    }
    if (M.Type != daemon::MsgType::Predictions || M.Choices.size() != 1) {
      R.fail("error reply: " + M.Text);
      return false;
    }
    const GoldenTenant &T = Tenants[S.Tenant];
    size_t In = S.Inputs[0];
    unsigned L = M.Choices[0].Landmark;
    if (L != T.Expected[In] || M.Choices[0].Epoch != 0) {
      R.fail("parity: " + T.Name + " input " + std::to_string(In));
      return false;
    }
    Q.add(S.Tenant, T.Costs.Static[In], T.Costs.Time[In][L] +
                                            T.Costs.FeatureCost[In],
          T.Costs.Oracle[In]);
    return true;
  };
  Calibrator Cal;
  std::vector<int> DaemonCpus = daemonCpus();
  auto RunPhase = [&](double Rate, double Seconds, unsigned Windows,
                      bool Calibrate) {
    Phase P;
    P.Rate = Rate;
    P.Windows = Windows;
    for (unsigned W = 0; W != Windows; ++W) {
      int64_t Clock = nowNs() + 1000000;
      double Cpu0 = Calibrate ? pidCpuNs(D.pid()) : 0.0;
      int64_t End = Clock + static_cast<int64_t>(Seconds / Windows * 1e9);
      OpenLoopResult Res = runOpenLoop(
          Fds, Names,
          [&](Scheduled &S) {
            Gen.next(S, Clock, Rate);
            return S.DueNs < End;
          },
          OnReply, 256, 5.0);
      // The request drawn past the end was never sent: force a Hello on
      // every connection's next request.
      for (unsigned C = 0; C != kConns; ++C)
        Gen.Attached[C] = -2;
      if (Calibrate && Res.Ok) {
        P.CpuUs.push_back((pidCpuNs(D.pid()) - Cpu0) / 1e3 /
                          static_cast<double>(Res.Ok));
        P.UnitNs.push_back(Cal.unitNsOn(DaemonCpus));
        P.NormCpuUs.push_back(P.CpuUs.back() * kReferenceUnitNs /
                              P.UnitNs.back());
      }
      P.Sent += Res.Sent;
      P.Ok += Res.Ok;
      P.Failed += Res.Failed;
      P.Samples += Res.LatencyUs.size();
      P.MaxBacklog = std::max(P.MaxBacklog, Res.BacklogAtEnd);
      double Late = quantile(Res.LateUs, 0.99);
      P.MaxLateP99 = std::max(P.MaxLateP99, Late);
      if (Late <= kMaxLateUs) {
        P.P50.push_back(quantile(Res.LatencyUs, 0.5));
        P.P90.push_back(quantile(Res.LatencyUs, 0.9));
        P.P99.push_back(quantile(Res.LatencyUs, 0.99));
      }
    }
    R.Attempted += P.Sent;
    P.Valid = 2 * P.P50.size() > P.Windows;
    // A growing backlog: more requests outstanding at a window's last
    // send than arrive within one latency limit.
    double BacklogLimit = std::max<double>(2 * kConns, Rate * kLimitUs / 1e6);
    P.Pass = P.Valid && P.Failed == 0 && P.p90() <= kLimitUs &&
             static_cast<double>(P.MaxBacklog) <= BacklogLimit;
    return P;
  };

  // Warm every memo entry so the ladder measures steady state.
  RunPhase(kFixedRate / 4, 0.2, 1, false);

  std::vector<Phase> Ladder;
  double MaxRate = 0;
  {
    Tracer::Scope S(R.Trace, "rpc.ladder");
    double Budget = 0.35 * R.Opt.Seconds;
    // Stops after three valid misses in a row above the first passing
    // step: a host stall can fail one step below saturation, not three.
    unsigned Misses = 0;
    for (unsigned K = 0; Budget >= kStepSeconds && Misses < 3; ++K) {
      Tracer::Scope Step(R.Trace, "rpc.step");
      Ladder.push_back(
          RunPhase(kLadderFirst + kLadderStep * K, kStepSeconds, 4, false));
      Budget -= kStepSeconds;
      if (Ladder.back().Pass) {
        MaxRate = Ladder.back().Rate;
        Misses = 0;
      } else if (MaxRate > 0 && Ladder.back().Valid) {
        ++Misses;
      }
    }
  }

  // The daemon's CPU time per answered request at the fixed rate, per
  // window, and normalised by a Calibrator unit timed on the daemon's
  // processors after each window: the server's cost, as free as can be
  // of the host's scheduling delays and of its other tenants' load.
  Phase Fixed;
  {
    Tracer::Scope S(R.Trace, "rpc.fixed");
    Fixed = RunPhase(kFixedRate, 0.6 * R.Opt.Seconds, 32, true);
  }

  {
    std::string Err;
    daemon::DaemonClient Ctl;
    if (Ctl.connect(Socket, Err))
      Ctl.stats(R.DaemonStats, Err);
  }
  if (!R.DaemonStats.empty())
    R.record("daemon_stats", R.DaemonStats);
  double Rss = selfPeakRssMb() + D.peakRssMb();
  Conns.clear();
  D.stop();

  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", Rss, "MB");
  R.e2e("cpu_us_per_op", median(Fixed.CpuUs), "us");
  R.e2e("norm_cpu_us_per_op", median(Fixed.NormCpuUs), "us");
  R.e2e("p50_us", Fixed.p50(), "us");
  R.e2e("ops_per_s", MaxRate, "1/s");
  R.e2e("speedup_vs_static", Q.speedupVsStatic(), "x");
  R.e2e("regret", Q.regret(), "ratio");

  std::string Steps = "[";
  for (size_t I = 0; I != Ladder.size(); ++I)
    Steps += (I ? ", " : "") + phaseJson(Ladder[I]);
  Steps += "]";
  R.record("ladder", Steps);
  R.record("fixed_rate_rps", jnum(kFixedRate));
  R.record("fixed", phaseJson(Fixed));
  R.record("unit_ns", jnum(median(Fixed.UnitNs)));
  R.record("latency_samples", std::to_string(Fixed.Samples));
  R.record("p90_us", jnum(Fixed.p90()));
  R.record("p99_us", jnum(Fixed.p99()));
  R.record("gen.late_us", jnum(Fixed.MaxLateP99));
  R.record("max_rate_rps", jnum(MaxRate));
  R.record("answers_checked", std::to_string(Q.answers()));
}

} // namespace perfbench
