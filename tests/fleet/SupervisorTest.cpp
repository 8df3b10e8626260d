//===- tests/fleet/SupervisorTest.cpp ----------------------------------------=//
//
// The fleet supervisor against real fork/exec'd pbt-serve replicas
// (located via PBT_SERVE_BIN): health-probe convergence, SIGKILL ->
// restart with a changed pid, crash-loop quarantine (exec failure and
// deliberate kill-looping), TCP port pinning across respawns, a
// FailoverClient riding through a kill without a single lost request,
// and a FailoverClient telling a busy replica (session cap) from a dead
// one.
// Integration-labelled, so the whole file runs under the sanitizer CI
// matrix.
//
//===----------------------------------------------------------------------===//

#include "fleet/Supervisor.h"

#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Server.h"
#include "registry/BenchmarkRegistry.h"
#include "serialize/ModelIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pbt;
using namespace pbt::fleet;

#ifndef PBT_SERVE_BIN
#error "PBT_SERVE_BIN must point at the pbt-serve binary"
#endif

namespace {

constexpr double kScale = 0.1;

/// Trains the sort1 model once per process; replicas serve it from a
/// temp file.
const std::string &modelPath() {
  static const std::string Path = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    std::string Out =
        "/tmp/pbt-ft-model-" + std::to_string(::getpid()) + ".pbt";
    EXPECT_TRUE(
        serialize::writeModelText(Out, serialize::serializeModel(M)).Ok);
    return Out;
  }();
  return Path;
}

std::string freshRuntimeDir() {
  static std::atomic<int> Counter{0};
  return "/tmp/pbt-ft-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

SupervisorOptions baseOptions(size_t Replicas) {
  SupervisorOptions O;
  O.ServerExe = PBT_SERVE_BIN;
  O.ServerArgs = {"--model=" + modelPath()};
  O.Replicas = Replicas;
  O.RuntimeDir = freshRuntimeDir();
  O.HealthIntervalSeconds = 0.05;
  O.BackoffSeconds = 0.02;
  O.BackoffCapSeconds = 0.2;
  return O;
}

/// An in-process pbt-serve replica over the sort1 model on an ephemeral
/// TCP port, for tests that need per-replica server options.
struct InProcessReplica {
  daemon::ModelRegistry Registry;
  std::unique_ptr<daemon::Server> Srv;

  explicit InProcessReplica(unsigned MaxSessions)
      : Registry(daemon::ModelRegistryOptions{}) {
    serialize::LoadStatus St = Registry.addTenant("", modelPath());
    EXPECT_TRUE(St.Ok) << St.Error;
    daemon::ServerOptions SO;
    SO.Listen = {"127.0.0.1:0"};
    SO.MaxSessions = MaxSessions;
    Srv = std::make_unique<daemon::Server>(Registry, SO);
    std::string Err;
    EXPECT_TRUE(Srv->start(Err)) << Err;
  }
  ~InProcessReplica() { Srv->stop(); }

  std::string endpoint() const { return Srv->boundEndpoints().front(); }
};

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

TEST(SupervisorTest, FleetComesUpHealthyAndServes) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  EXPECT_EQ(Sup.healthyCount(), 2u);
  EXPECT_EQ(Sup.totalRestarts(), 0u);

  // Every replica endpoint answers the framed protocol.
  for (const std::string &Endpoint : Sup.endpoints()) {
    daemon::DaemonClient C;
    daemon::DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.connect(Endpoint, Err)) << Endpoint << ": " << Err;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    std::vector<daemon::PredictedChoice> Choices;
    EXPECT_EQ(C.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
  }
  Sup.stop();
}

TEST(SupervisorTest, SigkilledReplicaIsRestartedWithNewPid) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  pid_t Old = Sup.pid(0);
  ASSERT_GT(Old, 0);
  ASSERT_TRUE(Sup.killReplica(0, SIGKILL));
  ASSERT_TRUE(Sup.waitAllHealthy(60.0)) << "victim never came back";
  EXPECT_NE(Sup.pid(0), Old);
  EXPECT_GE(Sup.totalRestarts(), 1u);
  EXPECT_EQ(Sup.quarantinedCount(), 0u);

  // The restarted replica serves again on its original endpoint.
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Sup.endpoints()[0], Err)) << Err;
  EXPECT_TRUE(C.attach("sort1", Info, Err)) << Err;
  Sup.stop();
}

TEST(SupervisorTest, ExecFailureCrashLoopIsQuarantined) {
  SupervisorOptions O = baseOptions(2);
  O.ServerExe = "/nonexistent/pbt-serve-missing"; // execv fails, _exit(127)
  O.QuarantineRestarts = 2;
  O.QuarantineWindowSeconds = 30.0;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;

  double Deadline = nowSeconds() + 60.0;
  while (nowSeconds() < Deadline && Sup.quarantinedCount() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Sup.quarantinedCount(), 2u)
      << "crash-looping replicas were never quarantined";
  for (const ReplicaStatus &S : Sup.statuses()) {
    EXPECT_EQ(S.State, ReplicaState::Quarantined);
    EXPECT_GE(S.Restarts, 2u);
  }
  Sup.stop();
}

TEST(SupervisorTest, KillLoopedReplicaQuarantinesWhileSurvivorServes) {
  SupervisorOptions O = baseOptions(2);
  O.QuarantineRestarts = 3;
  O.QuarantineWindowSeconds = 30.0;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  // Crash-loop replica 0 by SIGKILLing it every time it comes back.
  double Deadline = nowSeconds() + 120.0;
  while (nowSeconds() < Deadline && Sup.quarantinedCount() == 0) {
    ReplicaStatus S = Sup.statuses()[0];
    if (S.Pid > 0 && (S.State == ReplicaState::Starting ||
                      S.State == ReplicaState::Healthy ||
                      S.State == ReplicaState::Degraded))
      Sup.killReplica(0, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(Sup.quarantinedCount(), 1u);
  EXPECT_EQ(Sup.statuses()[0].State, ReplicaState::Quarantined);

  // The fleet keeps serving on the survivor.
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Sup.endpoints()[1], Err)) << Err;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  std::vector<daemon::PredictedChoice> Choices;
  EXPECT_EQ(C.predict({0, 1}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  EXPECT_EQ(Sup.healthyCount(), 1u);
  Sup.stop();
}

TEST(SupervisorTest, TcpEndpointIsPinnedAcrossRestart) {
  SupervisorOptions O = baseOptions(1);
  O.Tcp = true;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  std::string Endpoint = Sup.endpoints()[0];
  ASSERT_EQ(Endpoint.rfind("tcp:", 0), 0u) << Endpoint;

  ASSERT_TRUE(Sup.killReplica(0, SIGKILL));
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  // The respawn bound the pinned port: the endpoint a client holds
  // stays valid across the restart.
  EXPECT_EQ(Sup.endpoints()[0], Endpoint);
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Endpoint, Err)) << Err;
  EXPECT_TRUE(C.attach("sort1", Info, Err)) << Err;
  Sup.stop();
}

TEST(SupervisorTest, FailoverClientRidesThroughAKill) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  daemon::FailoverOptions FO;
  FO.Client.ConnectTimeout = 1.0;
  FO.Client.MaxConnectAttempts = 1;
  FO.CooldownSeconds = 0.1;
  FO.PassesPerCall = 3;
  std::vector<std::string> Endpoints = Sup.endpoints();
  daemon::FailoverClient C(Endpoints, "sort1", FO);

  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;

  // Kill the replica that just answered; the next predicts must fail
  // over to the survivor, never surfacing an error.
  size_t Victim = C.lastEndpoint() == Endpoints[0] ? 0 : 1;
  ASSERT_TRUE(Sup.killReplica(Victim, SIGKILL));
  unsigned Failovers = 0;
  for (int I = 0; I < 50; ++I) {
    ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << "request lost during failover: " << Err;
    Failovers += C.lastFailovers();
  }
  EXPECT_GE(Failovers, 1u) << "the kill was never even noticed";
  EXPECT_EQ(C.stats().Exhausted, 0u);
  EXPECT_EQ(C.lastEndpoint(), Endpoints[1 - Victim]);

  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  C.close();
  Sup.stop();
}

TEST(SupervisorTest, FailoverClientSkipsBusyReplicaWithoutMarkingItDown) {
  // Replica 0 is at its session cap: its only session is held, so it
  // sheds every further Hello. It is busy, not dead.
  InProcessReplica Busy(/*MaxSessions=*/1), Live(/*MaxSessions=*/256);
  daemon::DaemonClient Holder;
  daemon::DaemonClient::AttachInfo Info;
  std::string Err;
  ASSERT_TRUE(Holder.connect(Busy.endpoint(), Err) &&
              Holder.attach("sort1", Info, Err))
      << Err;

  daemon::FailoverOptions FO;
  FO.Client.ConnectTimeout = 1.0;
  FO.Client.MaxConnectAttempts = 1;
  FO.CooldownSeconds = 60.0; // a wrong mark-down would stick
  daemon::FailoverClient C({Busy.endpoint(), Live.endpoint()}, "sort1", FO);
  std::vector<daemon::PredictedChoice> Choices;
  for (int I = 0; I < 3; ++I) {
    ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
    EXPECT_EQ(C.lastEndpoint(), Live.endpoint());
  }
  EXPECT_EQ(C.stats().MarkDowns, 0u);
  EXPECT_EQ(C.stats().Failovers, 0u);
  EXPECT_GE(C.stats().Busy, 1u);
  EXPECT_EQ(C.stats().Exhausted, 0u);

  // Once the held session ends, the busy replica serves again at once:
  // no cooldown was started.
  Holder.close();
  daemon::FailoverClient Only({Busy.endpoint()}, "sort1", FO);
  bool Served = false;
  for (int I = 0; I < 200 && !Served; ++I) {
    Served = Only.predict({0, 1, 2}, Choices, Err) ==
             daemon::DaemonClient::PredictOutcome::Ok;
    if (!Served)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Served) << Err;
  EXPECT_EQ(Only.stats().MarkDowns, 0u);
}

TEST(SupervisorTest, FailoverClientReportsShedWhenEveryReplicaIsBusy) {
  InProcessReplica Busy(/*MaxSessions=*/1);
  daemon::DaemonClient Holder;
  daemon::DaemonClient::AttachInfo Info;
  std::string Err;
  ASSERT_TRUE(Holder.connect(Busy.endpoint(), Err) &&
              Holder.attach("sort1", Info, Err))
      << Err;

  daemon::FailoverOptions FO;
  FO.Client.ConnectTimeout = 1.0;
  FO.Client.MaxConnectAttempts = 1;
  daemon::FailoverClient C({Busy.endpoint()}, "sort1", FO);
  std::vector<daemon::PredictedChoice> Choices;
  EXPECT_EQ(C.predict({0, 1, 2}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Shed)
      << Err;
  EXPECT_EQ(C.stats().MarkDowns, 0u);
  EXPECT_EQ(C.stats().Exhausted, 0u);
  EXPECT_GE(C.stats().Busy, 1u);
}
