//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Labeling.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/PredictionService.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pbt;

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

std::string jnum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jstr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

void Tracer::enable(size_t Capacity) {
  Spans.assign(Capacity, Span());
  Used = Dropped = 0;
  Open = -1;
  On = true;
}

int32_t Tracer::begin(const char *Name) {
  if (!On)
    return -1;
  if (Used == Spans.size()) {
    ++Dropped;
    return -1;
  }
  Span &S = Spans[Used];
  S.Name = Name;
  S.Parent = Open;
  S.End = 0;
  Open = static_cast<int32_t>(Used++);
  S.Start = nowNs();
  return Open;
}

void Tracer::end(int32_t Idx) {
  if (Idx < 0)
    return;
  Span &S = Spans[static_cast<size_t>(Idx)];
  S.End = nowNs();
  Open = S.Parent;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "index\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t I = 0; I != Used; ++I)
    F << I << '\t' << Spans[I].Parent << '\t' << Spans[I].Name << '\t'
      << Spans[I].Start << '\t' << Spans[I].End << '\n';
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Run context helpers
//===----------------------------------------------------------------------===//

void Run::fail(const std::string &Why, uint64_t N) {
  Failed += N;
  if (Reasons.size() < 8)
    Reasons.push_back(Why);
}

const std::vector<std::string> &goldenNames() {
  static const std::vector<std::string> Names = {
      "sort1", "binpacking", "clustering1", "clustering2",
      "svd",   "poisson2d",  "helmholtz3d"};
  return Names;
}

static double vmHwmMb(const std::string &StatusPath) {
  std::ifstream F(StatusPath);
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB -> MB
  return 0.0;
}

double selfPeakRssMb() { return vmHwmMb("/proc/self/status"); }

double pidPeakRssMb(pid_t Pid) {
  return vmHwmMb("/proc/" + std::to_string(Pid) + "/status");
}

double pidCpuNs(pid_t Pid) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/task";
  double Sum = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      std::ifstream F(Dir + "/" + E->d_name + "/schedstat");
      double Ns = 0;
      if (F >> Ns)
        Sum += Ns;
    }
    ::closedir(D);
  }
  return Sum;
}

static double clockNs(clockid_t Clock) {
  timespec TS;
  ::clock_gettime(Clock, &TS);
  return static_cast<double>(TS.tv_sec) * 1e9 + static_cast<double>(TS.tv_nsec);
}

double threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
double processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

double medianSetup(unsigned Reps, const std::function<double()> &Once) {
  std::vector<double> T;
  for (unsigned I = 0; I != Reps; ++I)
    T.push_back(Once());
  return median(T);
}

//===----------------------------------------------------------------------===//
// DaemonProcess
//===----------------------------------------------------------------------===//

int benchCpu() {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return N >= 2 ? static_cast<int>(N - 1) : -1;
}

static std::vector<int> firstCpus(long N) {
  std::vector<int> Cpus;
  for (int C = 0; C < N; ++C)
    Cpus.push_back(C);
  return Cpus;
}

std::vector<int> daemonCpus() { return firstCpus(benchCpu()); }
std::vector<int> allCpus() { return firstCpus(::sysconf(_SC_NPROCESSORS_ONLN)); }

namespace {

constexpr size_t kUnitTableWords = (32u << 20) / sizeof(uint64_t);

void unitSweep(uint64_t *Table, uint64_t &X) {
  for (unsigned I = 0; I != 50000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Table[X % kUnitTableWords] += X;
  }
}

/// The helper's loop: reads a processor number, answers with the unit's
/// CPU ns there. Runs in a child forked from a possibly multi-threaded
/// process, so it calls only system calls: no allocator, no locks.
[[noreturn]] void calibratorMain(int In, int Out) {
  // Holding the benchmark's sockets open would keep the daemon's
  // sessions alive after the benchmark closes them.
  rlimit Lim;
  int MaxFd = ::getrlimit(RLIMIT_NOFILE, &Lim) == 0 && Lim.rlim_cur < 65536
                  ? static_cast<int>(Lim.rlim_cur)
                  : 65536;
  for (int Fd = 3; Fd < MaxFd; ++Fd)
    if (Fd != In && Fd != Out)
      ::close(Fd);
  void *Mem = ::mmap(nullptr, kUnitTableWords * sizeof(uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (Mem == MAP_FAILED)
    ::_exit(1);
  uint64_t *Table = static_cast<uint64_t *>(Mem);
  for (size_t I = 0; I != kUnitTableWords; ++I)
    Table[I] = I * 0x9E3779B97F4A7C15ull;
  uint64_t X = 0x9E3779B97F4A7C15ull;
  int32_t Cpu = 0;
  while (::read(In, &Cpu, sizeof(Cpu)) == sizeof(Cpu)) {
    if (Cpu >= 0) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      ::sched_setaffinity(0, sizeof(One), &One);
    }
    unitSweep(Table, X);
    double T0 = threadCpuNs();
    unitSweep(Table, X);
    double Ns = threadCpuNs() - T0;
    if (::write(Out, &Ns, sizeof(Ns)) != sizeof(Ns))
      break;
  }
  ::_exit(0);
}

} // namespace

Calibrator::Calibrator() {
  int Down[2], Up[2];
  if (::pipe2(Down, O_CLOEXEC) != 0)
    return;
  if (::pipe2(Up, O_CLOEXEC) != 0) {
    ::close(Down[0]);
    ::close(Down[1]);
    return;
  }
  Pid = ::fork();
  if (Pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    calibratorMain(Down[0], Up[1]);
  }
  ::close(Down[0]);
  ::close(Up[1]);
  if (Pid < 0) {
    ::close(Down[1]);
    ::close(Up[0]);
    return;
  }
  ToHelper = Down[1];
  FromHelper = Up[0];
}

Calibrator::~Calibrator() {
  if (ToHelper >= 0)
    ::close(ToHelper); // EOF: the helper exits
  if (FromHelper >= 0)
    ::close(FromHelper);
  if (Pid > 0) {
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
}

double Calibrator::unitNs(int Cpu) {
  int32_t C = Cpu;
  double Ns = std::nan("");
  if (ToHelper < 0 || ::write(ToHelper, &C, sizeof(C)) != sizeof(C) ||
      ::read(FromHelper, &Ns, sizeof(Ns)) != sizeof(Ns))
    return std::nan("");
  return Ns;
}

double Calibrator::unitNsOn(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return unitNs(-1);
  double Sum = 0;
  for (int C : Cpus)
    Sum += unitNs(C);
  return Sum / static_cast<double>(Cpus.size());
}

PinToCpu::PinToCpu(int Cpu) {
  if (Cpu < 0 || ::sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  Pinned = ::sched_setaffinity(0, sizeof(One), &One) == 0;
}

PinToCpu::~PinToCpu() {
  if (Pinned)
    ::sched_setaffinity(0, sizeof(Saved), &Saved);
}

bool DaemonProcess::start(const std::string &Exe,
                          const std::vector<std::string> &Args,
                          const std::string &Sock, std::string &Err) {
  stop();
  Socket = Sock;
  ::unlink(Socket.c_str());
  std::vector<std::string> Full = {Exe, "--socket=" + Socket};
  Full.insert(Full.end(), Args.begin(), Args.end());
  Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    // The daemon never outlives the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (int Gen = benchCpu(); Gen >= 0) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      for (int C = 0; C != Gen; ++C)
        CPU_SET(C, &Set);
      ::sched_setaffinity(0, sizeof(Set), &Set);
    }
    // The daemon's stdout must not interleave with the result line.
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDOUT_FILENO);
    std::vector<char *> Argv;
    for (std::string &A : Full)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    std::fprintf(stderr, "perfbench: execv('%s'): %s\n", Exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  // Poll for the listening socket every millisecond: a backoff schedule
  // would quantise the measured set-up time.
  daemon::DaemonClient Probe;
  for (int64_t Deadline = nowNs() + 60000000000; nowNs() < Deadline;) {
    if (Probe.connect(Socket, Err))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
  return false;
}

void DaemonProcess::stop() {
  if (Pid <= 0)
    return;
  {
    daemon::DaemonClient C;
    std::string E;
    if (C.connect(Socket, E))
      C.shutdownServer(E);
  }
  int Status = 0;
  for (int I = 0; I != 500; ++I) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }
  ::unlink(Socket.c_str());
}

bool connectAttach(daemon::DaemonClient &C, const std::string &Endpoint,
                   const std::string &Tenant,
                   daemon::DaemonClient::AttachInfo &Info, std::string &Err) {
  return C.connect(Endpoint, Err) && C.attach(Tenant, Info, Err);
}

uint64_t statsField(const std::string &Json, const std::string &Name) {
  std::string Key = "\"" + Name + "\": ";
  size_t At = Json.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Key.size(), nullptr, 10);
}

//===----------------------------------------------------------------------===//
// Open loop
//===----------------------------------------------------------------------===//

namespace {
struct InFlight {
  Scheduled Req;
  bool IsHello = false;
};

/// Timed sleeps on this class of host overshoot by milliseconds at p99,
/// so the generator sleeps only until kSpinNs before a send is due and
/// polls without blocking from there.
constexpr int64_t kSpinNs = 2000000;

void sleepUntilOrReadable(std::vector<pollfd> &P, int64_t UntilNs) {
  int64_t Wait = UntilNs - nowNs();
  Wait = Wait > kSpinNs ? Wait - kSpinNs : 0;
  timespec TS;
  TS.tv_sec = Wait / 1000000000;
  TS.tv_nsec = Wait % 1000000000;
  ::ppoll(P.data(), P.size(), &TS, nullptr);
}

OpenLoopResult
openLoop(const std::vector<int> &Fds, const std::vector<std::string> &Tenants,
         const std::function<bool(Scheduled &)> &Next,
         const std::function<bool(const Scheduled &, const daemon::Message &,
                                  int64_t)> &OnReply,
         size_t MaxInFlight, double DrainSeconds) {
  OpenLoopResult R;
  std::vector<std::deque<InFlight>> Q(Fds.size());
  std::vector<pollfd> P(Fds.size());
  for (size_t I = 0; I != Fds.size(); ++I)
    P[I] = {Fds[I], POLLIN, 0};
  std::vector<bool> Dead(Fds.size(), false);

  Scheduled Pending;
  bool Have = Next(Pending);
  int64_t DrainDeadline = 0;
  std::string Payload;
  auto Outstanding = [&] {
    size_t N = 0;
    for (const auto &D : Q)
      for (const InFlight &F : D)
        N += F.IsHello ? 0 : 1;
    return N;
  };

  while (true) {
    // Send everything that is due.
    while (Have && Pending.DueNs <= nowNs()) {
      unsigned C = Pending.Conn;
      if (Dead[C]) {
        ++R.Sent;
        ++R.Failed;
        Have = Next(Pending);
        continue;
      }
      if (Q[C].size() >= MaxInFlight)
        break; // this connection is saturated: the generator falls behind
      int64_t Sent = nowNs();
      bool Ok = true;
      if (Pending.Hello >= 0) {
        Ok = daemon::writeFrame(Fds[C], daemon::makeHello(
                                            Tenants[Pending.Hello])) ==
             daemon::FrameStatus::Ok;
        if (Ok)
          Q[C].push_back({Scheduled(), true});
      }
      Ok = Ok && daemon::writeFrame(Fds[C], daemon::makePredict(
                                                Pending.Inputs)) ==
                     daemon::FrameStatus::Ok;
      ++R.Sent;
      R.LateUs.push_back(static_cast<double>(Sent - Pending.DueNs) / 1e3);
      if (!Ok) {
        Dead[C] = true;
        ++R.Failed;
      } else {
        Q[C].push_back({std::move(Pending), false});
      }
      Have = Next(Pending);
      if (!Have) {
        R.BacklogAtEnd = Outstanding();
        DrainDeadline =
            nowNs() + static_cast<int64_t>(DrainSeconds * 1e9);
      }
    }
    size_t Open = 0;
    for (size_t C = 0; C != Q.size(); ++C)
      Open += Dead[C] ? 0 : Q[C].size();
    if (!Have && Open == 0)
      break;
    if (!Have && nowNs() > DrainDeadline)
      break;

    // Wait for replies until the next send is due.
    int64_t Until = Have ? Pending.DueNs : nowNs() + 20000000;
    for (size_t I = 0; I != P.size(); ++I)
      P[I].events = (Dead[I] || Q[I].empty()) ? 0 : POLLIN;
    sleepUntilOrReadable(P, Until);
    for (size_t C = 0; C != P.size(); ++C) {
      if (!(P[C].revents & (POLLIN | POLLHUP | POLLERR)) || Q[C].empty())
        continue;
      daemon::Message M;
      if (daemon::readFrame(Fds[C], Payload) != daemon::FrameStatus::Ok ||
          !daemon::decodeMessage(Payload, M)) {
        Dead[C] = true;
        continue;
      }
      int64_t Done = nowNs();
      InFlight F = std::move(Q[C].front());
      Q[C].pop_front();
      if (F.IsHello) {
        if (M.Type != daemon::MsgType::TenantOk)
          Dead[C] = true;
        continue;
      }
      if (OnReply(F.Req, M, Done)) {
        ++R.Ok;
        R.LatencyUs.push_back(static_cast<double>(Done - F.Req.DueNs) / 1e3);
      } else {
        ++R.Failed;
      }
    }
  }
  // Whatever is still waiting (dead connection or drain timeout) failed.
  for (const auto &D : Q)
    for (const InFlight &F : D)
      R.Failed += F.IsHello ? 0 : 1;
  return R;
}
} // namespace

OpenLoopResult
runOpenLoop(const std::vector<int> &Fds, const std::vector<std::string> &Tenants,
            const std::function<bool(Scheduled &)> &Next,
            const std::function<bool(const Scheduled &, const daemon::Message &,
                                     int64_t)> &OnReply,
            size_t MaxInFlight, double DrainSeconds) {
  PinToCpu Pin(benchCpu());
  return openLoop(Fds, Tenants, Next, OnReply, MaxInFlight, DrainSeconds);
}

//===----------------------------------------------------------------------===//
// Quality
//===----------------------------------------------------------------------===//

void Quality::add(unsigned Tenant, double StaticCost, double ChosenCost,
                  double OracleCost) {
  auto &T = PerTenant[Tenant];
  T.first += StaticCost / ChosenCost;
  ++T.second;
  RegretSum += ChosenCost / OracleCost - 1.0;
  ++N;
}

double Quality::speedupVsStatic() const {
  if (PerTenant.empty())
    return std::nan("");
  double LogSum = 0;
  for (const auto &[Tenant, Acc] : PerTenant)
    LogSum += std::log(Acc.first / static_cast<double>(Acc.second));
  return std::exp(LogSum / static_cast<double>(PerTenant.size()));
}

double Quality::regret() const {
  return N ? RegretSum / static_cast<double>(N) : std::nan("");
}

CostTable costTable(const serialize::TrainedModel &Model,
                    const runtime::TunableProgram &Program) {
  const core::LevelOneResult &L1 = Model.System.L1;
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  CostTable T;
  size_t N = L1.Time.rows();
  T.Time.resize(N);
  for (size_t In = 0; In != N; ++In) {
    for (size_t L = 0; L != L1.Time.cols(); ++L)
      T.Time[In].push_back(L1.Time.at(In, L));
    T.Static.push_back(L1.Time.at(In, Model.System.StaticOracleLandmark));
    T.Oracle.push_back(
        L1.Time.at(In, core::bestLandmark(L1.Time, L1.Acc, In, Spec)));
  }
  // The feature cost a cold decision pays: a fresh service decides each
  // input once, so nothing is memoized yet.
  serialize::TrainedModel Copy;
  serialize::loadModel(serialize::serializeModel(Model), Copy);
  runtime::PredictionService Fresh(std::move(Copy));
  Fresh.bind(Program);
  for (size_t In = 0; In != N; ++In)
    T.FeatureCost.push_back(Fresh.decide(In).FeatureCost);
  return T;
}

std::vector<GoldenTenant> loadGoldens(Run &R) {
  std::vector<GoldenTenant> Out;
  for (const std::string &Name : goldenNames()) {
    GoldenTenant G;
    G.Name = Name;
    serialize::LoadStatus St =
        serialize::loadModelFile(R.goldenPath(Name), G.Model);
    const registry::BenchmarkFactory *F =
        St ? registry::BenchmarkRegistry::instance().lookup(
                 G.Model.Meta.Benchmark)
           : nullptr;
    if (!F) {
      R.fail("golden " + Name + ": " + (St ? "unregistered" : St.Error));
      continue;
    }
    G.Program = F->makeProgram(G.Model.Meta.Scale, G.Model.Meta.ProgramSeed);
    runtime::PredictionService S;
    St = S.loadFile(R.goldenPath(Name));
    if (St)
      St = S.bind(*G.Program);
    if (!St) {
      R.fail("golden " + Name + ": " + St.Error);
      continue;
    }
    std::vector<size_t> All(G.Program->numInputs());
    for (size_t I = 0; I != All.size(); ++I)
      All[I] = I;
    for (const runtime::PredictionService::Decision &D : S.decideBatch(All))
      G.Expected.push_back(D.Landmark);
    G.Costs = costTable(G.Model, *G.Program);
    Out.push_back(std::move(G));
  }
  return Out;
}

} // namespace perfbench
