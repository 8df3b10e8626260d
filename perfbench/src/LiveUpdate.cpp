//===- perfbench/src/LiveUpdate.cpp - The live_update workload ------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// live_update: one spawned `pbt-serve --adapt` serving drifting traffic
/// to three adaptive tenants -- sort1 (abrupt shift), clustering1 (ramp)
/// and binpacking (periodic) -- plus one --store tenant (clustering2,
/// stationary traffic) whose CURRENT the benchmark advances every second
/// by publishing and promoting clone epochs through store::ModelStore.
/// The per-tenant streams and request counts are fixed; the seed draws
/// arrival times and the order in which tenants send.
/// Multi-input Predicts arrive open loop at a fixed rate below
/// saturation, one connection per tenant, so each tenant's server-side
/// order is its send order.
///
/// Reads and writes share the daemon: inline retrains under a tenant's
/// serve mutex, hot swaps, and the store's poll, verify, load and compile.
///
/// Checks: every answer against an in-process AdaptiveService replaying
/// the same tenant's requests in the same order (same landmark, same
/// epoch); the store tenant's replica takes each promoted clone where the
/// daemon's epoch shows it landed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "runtime/PredictionService.h"
#include "store/ModelStore.h"
#include "streams/WorkloadStream.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace pbt;

namespace perfbench {

namespace {

/// Inputs per Predict.
constexpr size_t kBatch = 8;
/// Requests per second per tenant (four tenants).
constexpr double kTenantRate = 50.0;
/// Seconds between store publishes.
constexpr double kPublishEvery = 1.0;

struct LiveTenant {
  std::string Name, Model;
  streams::Schedule Kind = streams::Schedule::Abrupt;
  bool Store = false;
};

const std::vector<LiveTenant> &liveTenants() {
  static const std::vector<LiveTenant> T = {
      {"sort1", "sort1", streams::Schedule::Abrupt, false},
      {"clustering1", "clustering1", streams::Schedule::Ramp, false},
      {"binpacking", "binpacking", streams::Schedule::Periodic, false},
      {"store", "clustering2", streams::Schedule::Abrupt, true}};
  return T;
}

struct Answer {
  unsigned Tenant = 0;
  std::vector<uint64_t> Inputs;
  std::vector<daemon::PredictedChoice> Choices;
  int64_t DueNs = 0, DoneNs = 0;
};

std::string readFile(const std::string &Path) {
  std::ifstream F(Path);
  std::stringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

} // namespace

runtime::AdaptiveServiceOptions daemonAdaptOptions(const std::string &Benchmark,
                                                   double Scale) {
  runtime::AdaptiveServiceOptions AO;
  AO.Monitor.Window = 64;
  AO.Monitor.MinSamples = AO.Monitor.Window / 2;
  AO.Monitor.Cooldown = AO.Monitor.Window;
  AO.ReservoirSize = 48;
  AO.MinRetrainInputs = 16;
  AO.Retrain = registry::reservoirRetrainOptions(
      registry::BenchmarkRegistry::instance().get(Benchmark), Scale,
      AO.ReservoirSize, nullptr);
  AO.AutoAdapt = true;
  return AO;
}

void runLiveUpdate(Run &R) {
  const std::vector<LiveTenant> &Tenants = liveTenants();
  const size_t NT = Tenants.size();
  std::vector<serialize::TrainedModel> Models(NT);
  std::vector<registry::ProgramPtr> Programs(NT);
  for (size_t T = 0; T != NT; ++T) {
    serialize::LoadStatus St =
        serialize::loadModelFile(R.goldenPath(Tenants[T].Model), Models[T]);
    if (!St) {
      R.fail("load " + Tenants[T].Model + ": " + St.Error);
      return;
    }
    Programs[T] = registry::BenchmarkRegistry::instance()
                      .get(Models[T].Meta.Benchmark)
                      .makeProgram(Models[T].Meta.Scale,
                                   Models[T].Meta.ProgramSeed);
  }
  const size_t StoreT = NT - 1;
  std::string StoreText = readFile(R.goldenPath(Tenants[StoreT].Model));

  // Traffic: per tenant, one run's worth of stream, so each drift
  // schedule plays out within the run (a longer run wraps around).
  size_t PerTenantRequests =
      static_cast<size_t>(std::ceil(kTenantRate * R.Opt.Seconds));
  std::vector<std::vector<size_t>> Streams(NT);
  std::vector<size_t> ShiftTick(NT, 0);
  for (size_t T = 0; T != NT; ++T) {
    streams::WorkloadStreamOptions SO;
    SO.Kind = Tenants[T].Kind;
    SO.Requests = PerTenantRequests * kBatch;
    // The streams are fixed, so every seed replays the same drift and
    // the same retrains; the seed draws arrival times and tenant order.
    SO.Seed = 104729 + T;
    if (Tenants[T].Store)
      SO.SwitchFraction = 1.0; // stationary
    streams::WorkloadStream S(*Programs[T], SO);
    Streams[T] = S.sequence();
    ShiftTick[T] = S.firstShiftTick();
  }

  // Set-up: a fresh store with the base epoch promoted, the daemon, and
  // one attached session per tenant.
  DaemonProcess D;
  std::vector<std::unique_ptr<daemon::DaemonClient>> Conns;
  std::string Socket = R.Opt.WorkDir + "/live.sock";
  std::string StoreDir;
  std::unique_ptr<store::ModelStore> Store;
  bool SetupOk = true;
  unsigned SetupRep = 0;
  double SetupS = medianSetup(5, [&] {
    Tracer::Scope S(R.Trace, "setup");
    int64_t T0 = nowNs();
    Conns.clear();
    D.stop();
    StoreDir = R.Opt.WorkDir + "/store" + std::to_string(SetupRep++);
    Store = std::make_unique<store::ModelStore>(StoreDir);
    uint64_t Epoch = 0;
    serialize::LoadStatus St = Store->open();
    if (St)
      St = Store->publish(StoreText, Epoch);
    if (St)
      St = Store->promote(Epoch);
    if (!St) {
      R.fail("store: " + St.Error);
      SetupOk = false;
      return 0.0;
    }
    std::string Models;
    for (size_t T = 0; T != StoreT; ++T)
      Models += (T ? "," : "") + R.goldenPath(Tenants[T].Model);
    std::string Err;
    if (!D.start(R.Opt.ServeExe,
                 {"--adapt", "--model=" + Models,
                  "--store=" + Tenants[StoreT].Name + "=" + StoreDir},
                 Socket, Err)) {
      R.fail("spawn pbt-serve --adapt: " + Err);
      SetupOk = false;
      return 0.0;
    }
    for (size_t T = 0; T != NT; ++T) {
      auto C = std::make_unique<daemon::DaemonClient>();
      daemon::DaemonClient::AttachInfo Info;
      if (!connectAttach(*C, Socket, Tenants[T].Name, Info, Err)) {
        R.fail("attach " + Tenants[T].Name + ": " + Err);
        SetupOk = false;
      }
      Conns.push_back(std::move(C));
    }
    return static_cast<double>(nowNs() - T0) / 1e9;
  });
  if (!SetupOk)
    return;
  std::vector<int> Fds;
  std::vector<std::string> Names;
  for (size_t T = 0; T != NT; ++T) {
    Fds.push_back(Conns[T]->fd());
    Names.push_back(Tenants[T].Name);
  }

  // Open loop in one-second segments; a clone epoch is published and
  // promoted at every segment boundary.
  support::Rng Rng(R.Opt.Seed);
  std::vector<size_t> Cursor(NT, 0);
  std::vector<Answer> Answers;
  std::vector<double> SegmentP50, SegmentP90, SegmentP99, PublishMs,
      PromoteMs;
  std::vector<int64_t> Promotes; // when each promote returned
  std::vector<double> Late;
  size_t Samples = 0;
  uint64_t Decisions = 0;
  int64_t LoopStart = nowNs();
  double DaemonCpu0 = pidCpuNs(D.pid());
  // The daemon's CPU time of each segment, scaled by a Calibrator unit
  // timed on its processors as the segment ends.
  Calibrator Cal;
  std::vector<double> Units;
  double SegCpu0 = DaemonCpu0, NormCpuNs = 0;
  unsigned Segments =
      std::max(1u, static_cast<unsigned>(R.Opt.Seconds / kPublishEvery));
  for (unsigned Seg = 0; Seg != Segments; ++Seg) {
    if (Seg > 0) {
      uint64_t Epoch = 0;
      int64_t P0 = nowNs();
      serialize::LoadStatus St;
      {
        Tracer::Scope S(R.Trace, "store.publish");
        St = Store->publish(StoreText, Epoch);
      }
      int64_t P1 = nowNs();
      if (St) {
        Tracer::Scope S(R.Trace, "store.promote");
        St = Store->promote(Epoch);
      }
      int64_t P2 = nowNs();
      ++R.Attempted;
      if (!St)
        R.fail("publish/promote: " + St.Error);
      else
        Promotes.push_back(P2);
      PublishMs.push_back(static_cast<double>(P1 - P0) / 1e6);
      PromoteMs.push_back(static_cast<double>(P2 - P1) / 1e6);
    }
    // Every tenant sends exactly kTenantRate * kPublishEvery requests per
    // segment, in a seeded order at seeded uniform times (a Poisson
    // process conditioned on its count). Every seed thus sends each
    // tenant the same requests, so the daemon's work and its retrains
    // repeat; the seed moves only the timing and the interleaving.
    int64_t Start = nowNs() + 1000000;
    std::vector<unsigned> Order;
    for (unsigned T = 0; T != NT; ++T)
      Order.insert(Order.end(),
                   static_cast<size_t>(kTenantRate * kPublishEvery), T);
    Rng.shuffle(Order);
    std::vector<int64_t> Due;
    for (size_t I = 0; I != Order.size(); ++I)
      Due.push_back(Start + static_cast<int64_t>(Rng.uniform() *
                                                 kPublishEvery * 1e9));
    std::sort(Due.begin(), Due.end());
    size_t Next = 0;
    size_t First = Answers.size();
    OpenLoopResult Res = runOpenLoop(
        Fds, Names,
        [&](Scheduled &S) {
          if (Next == Order.size())
            return false;
          unsigned T = Order[Next];
          if (Cursor[T] + kBatch > Streams[T].size())
            Cursor[T] = 0;
          S.DueNs = Due[Next++];
          S.Conn = T;
          S.Tenant = T;
          S.Hello = -1;
          S.Inputs.assign(Streams[T].begin() + Cursor[T],
                          Streams[T].begin() + Cursor[T] + kBatch);
          Cursor[T] += kBatch;
          return true;
        },
        [&](const Scheduled &S, const daemon::Message &M, int64_t Done) {
          if (M.Type != daemon::MsgType::Predictions ||
              M.Choices.size() != S.Inputs.size()) {
            R.fail(M.Type == daemon::MsgType::Shed ? "shed"
                                                    : "error: " + M.Text);
            return false;
          }
          Answers.push_back({S.Tenant, S.Inputs, M.Choices, S.DueNs, Done});
          Decisions += M.Choices.size();
          return true;
        },
        64, 30.0);
    double SegCpu1 = pidCpuNs(D.pid());
    Units.push_back(Cal.unitNsOn(daemonCpus()));
    NormCpuNs += (SegCpu1 - SegCpu0) * kReferenceUnitNs / Units.back();
    SegCpu0 = SegCpu1;
    R.Attempted += Res.Sent;
    Samples += Res.LatencyUs.size();
    Late.insert(Late.end(), Res.LateUs.begin(), Res.LateUs.end());
    if (Answers.size() > First) {
      SegmentP50.push_back(quantile(Res.LatencyUs, 0.5));
      SegmentP90.push_back(quantile(Res.LatencyUs, 0.9));
      SegmentP99.push_back(quantile(Res.LatencyUs, 0.99));
    }
  }
  double LoopS = static_cast<double>(nowNs() - LoopStart) / 1e9;
  double DaemonCpuNs = pidCpuNs(D.pid()) - DaemonCpu0;

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

  // Replay: every tenant through an in-process AdaptiveService fed the
  // same requests in the same order (per connection, reply order is send
  // order). A daemon retrain shows in the replica at the same input. A
  // store swap is the only other way the daemon's epoch can move: when an
  // answer's epoch is ahead of the replica before the replica serves that
  // input, the replica takes the promoted clone first.
  std::sort(Answers.begin(), Answers.end(),
            [](const Answer &A, const Answer &B) { return A.DueNs < B.DueNs; });
  Quality Q;
  std::vector<std::unique_ptr<runtime::AdaptiveService>> Replica(NT);
  std::vector<uint64_t> InitialEpoch(NT, 0);
  auto Clone = [](const std::string &Text) {
    serialize::TrainedModel M;
    serialize::loadModel(Text, M);
    return M;
  };
  for (size_t T = 0; T != NT; ++T) {
    Replica[T] = std::make_unique<runtime::AdaptiveService>(
        *Programs[T], Clone(serialize::serializeModel(Models[T])),
        daemonAdaptOptions(Models[T].Meta.Benchmark, Models[T].Meta.Scale));
    InitialEpoch[T] = Replica[T]->epoch();
  }
  std::map<std::tuple<size_t, uint64_t, size_t, unsigned>, double> CostCache;
  auto Cost = [&](size_t T, const runtime::AdaptiveService::ModelEpoch &Ep,
                  size_t In, unsigned L) {
    auto Key = std::make_tuple(T, Ep.Id, In, L);
    auto It = CostCache.find(Key);
    if (It != CostCache.end())
      return It->second;
    double C = Programs[T]
                   ->runOnce(In, Ep.Model.System.L1.Landmarks.at(L))
                   .TimeUnits;
    CostCache[Key] = C;
    return C;
  };
  std::vector<size_t> TicksSeen(NT, 0);
  std::vector<double> ShiftSendNs(NT, -1), SwapDoneNs(NT, -1);
  std::vector<uint64_t> LastEpoch = InitialEpoch, ShiftEpoch(NT, 0);
  std::vector<double> PublishToServe;
  size_t StoreSwaps = 0, Matched = 0;
  uint64_t Checked = 0;
  for (const Answer &A : Answers) {
    size_t T = A.Tenant;
    runtime::AdaptiveService &Rep = *Replica[T];
    bool PostShift = false;
    for (size_t K = 0; K != A.Inputs.size(); ++K) {
      const daemon::PredictedChoice &C = A.Choices[K];
      if (T == StoreT && C.Epoch > Rep.epoch()) {
        while (C.Epoch > Rep.epoch() && StoreSwaps < Promotes.size()) {
          ++StoreSwaps;
          Rep.swapModel(Clone(StoreText));
        }
        // Served under a new promoted epoch: time it from the latest
        // promote that returned before this answer.
        size_t Latest = Matched;
        while (Latest < Promotes.size() && Promotes[Latest] <= A.DoneNs)
          ++Latest;
        if (Latest > Matched) {
          PublishToServe.push_back(
              static_cast<double>(A.DoneNs - Promotes[Latest - 1]) /
              1e9);
          Matched = Latest;
        }
      }
      ++Checked;
      runtime::AdaptiveService::Decision Dn = Rep.serve(A.Inputs[K]);
      if (C.Landmark != Dn.Landmark || C.Epoch != Dn.Epoch) {
        R.fail("replica parity: " + Tenants[T].Name + " input " +
               std::to_string(A.Inputs[K]) + " epoch " +
               std::to_string(C.Epoch) + " vs " + std::to_string(Dn.Epoch));
        continue;
      }
      if (T == StoreT)
        continue;
      if (TicksSeen[T]++ >= ShiftTick[T])
        PostShift = true;
      if (ShiftSendNs[T] >= 0 && SwapDoneNs[T] < 0 && C.Epoch != ShiftEpoch[T])
        SwapDoneNs[T] = static_cast<double>(A.DoneNs);
      LastEpoch[T] = C.Epoch;
      const runtime::AdaptiveService::ModelEpoch &Ep = *Dn.Hold;
      size_t In = A.Inputs[K];
      double Oracle = 0;
      for (unsigned L = 0; L != Ep.Model.System.L1.Landmarks.size(); ++L) {
        double Ci = Cost(T, Ep, In, L);
        Oracle = L == 0 ? Ci : std::min(Oracle, Ci);
      }
      double Static = Programs[T]
                          ->runOnce(In, Models[T].System.L1.Landmarks.at(
                                            Models[T]
                                                .System.StaticOracleLandmark))
                          .TimeUnits;
      Q.add(static_cast<unsigned>(T), Static,
            Cost(T, Ep, In, Dn.Landmark) + Dn.FeatureCost, Oracle);
    }
    if (PostShift && ShiftSendNs[T] < 0) {
      ShiftSendNs[T] = static_cast<double>(A.DueNs);
      ShiftEpoch[T] = LastEpoch[T];
    }
  }
  R.Attempted += Checked;

  std::vector<double> ShiftToSwap;
  std::string PerTenant = "{";
  runtime::AdaptiveService::StatsSnapshot Sum;
  for (size_t T = 0; T != StoreT; ++T) {
    double S = (ShiftSendNs[T] >= 0 && SwapDoneNs[T] >= 0)
                   ? (SwapDoneNs[T] - ShiftSendNs[T]) / 1e9
                   : std::nan("");
    if (std::isfinite(S))
      ShiftToSwap.push_back(S);
    runtime::AdaptiveService::StatsSnapshot St = Replica[T]->stats();
    Sum.Retrains += St.Retrains;
    Sum.Swaps += St.Swaps;
    PerTenant += std::string(T ? ", " : "") + jstr(Tenants[T].Name) +
                 ": {\"shift_to_swap_s\": " + jnum(S) +
                 ", \"retrains\": " + std::to_string(St.Retrains) +
                 ", \"swaps\": " + std::to_string(St.Swaps) + "}";
  }

  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", Rss, "MB");
  double CpuUs =
      DaemonCpuNs / 1e3 / static_cast<double>(std::max<uint64_t>(1, Decisions));
  R.e2e("cpu_us_per_op", CpuUs, "us");
  R.e2e("norm_cpu_us_per_op",
        NormCpuNs / 1e3 /
            static_cast<double>(std::max<uint64_t>(1, Decisions)),
        "us");
  R.e2e("p50_us", median(SegmentP50), "us");
  R.e2e("ops_per_s", static_cast<double>(Decisions) / LoopS, "1/s");
  R.e2e("speedup_vs_static", Q.speedupVsStatic(), "x");
  R.e2e("regret", Q.regret(), "ratio");
  R.record("p90_us", jnum(median(SegmentP90)));
  R.record("p99_us", jnum(median(SegmentP99)));
  R.record("shift_to_swap_s", jnum(median(ShiftToSwap)));
  R.record("publish_to_serve_s", jnum(median(PublishToServe)));
  R.record("publishes", std::to_string(Promotes.size()));
  R.record("unit_ns", jnum(median(Units)));
  R.record("store.publish_ms", jnum(median(PublishMs)));
  R.record("store.promote_ms", jnum(median(PromoteMs)));
  R.record("gen.late_us", jnum(quantile(Late, 0.99)));
  R.record("rate_rps", jnum(kTenantRate * static_cast<double>(NT)));
  R.record("request_inputs", std::to_string(kBatch));
  R.record("latency_samples", std::to_string(Samples));
  R.record("adaptive", PerTenant + "}");
  R.record("retrains", std::to_string(Sum.Retrains));
  R.record("swaps", std::to_string(Sum.Swaps));
}

} // namespace perfbench
