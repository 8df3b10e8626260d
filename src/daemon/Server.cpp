//===- daemon/Server.cpp - pbt-serve daemon core ---------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

/// Minimal JSON string escape (the daemon does not link the bench
/// harness's helpers).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

Server::Server(ModelRegistry &Registry, ServerOptions Options)
    : Registry(Registry), Opts(std::move(Options)),
      Queue(Opts.QueueCapacity) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.BatchMax == 0)
    Opts.BatchMax = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (Opts.SocketPath.empty() && Opts.Listen.empty()) {
    Err = "no listen endpoint: set SocketPath and/or Listen";
    return false;
  }
  Listeners.clear();
  auto Fail = [&](const std::string &Msg) {
    Err = Msg;
    Listeners.clear();
    return false;
  };
  if (!Opts.SocketPath.empty()) {
    Endpoint E;
    E.K = Endpoint::Kind::Unix;
    E.Path = Opts.SocketPath;
    Listeners.emplace_back();
    if (!Listeners.back().open(E, Err))
      return Fail(Err);
  }
  for (const std::string &Spec : Opts.Listen) {
    // A bare HOST:PORT here is TCP; "tcp:" prefixed specs also work.
    std::string Full = Spec.rfind("tcp:", 0) == 0 ? Spec : "tcp:" + Spec;
    Endpoint E;
    if (!parseEndpoint(Full, E, Err) || E.K != Endpoint::Kind::Tcp)
      return Fail("bad --listen endpoint '" + Spec + "': " + Err);
    Listeners.emplace_back();
    if (!Listeners.back().open(E, Err))
      return Fail(Err);
  }

  Started = true;
  StopFlag.store(false);
  Acceptor = std::thread([this] { acceptLoop(); });
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::requestStop() {
  StopFlag.store(true);
  StopCv.notify_all();
}

void Server::waitForStop() {
  std::unique_lock<std::mutex> Lock(StopMutex);
  StopCv.wait(Lock, [&] { return StopFlag.load(); });
}

void Server::stop() {
  if (!Started)
    return;
  requestStop();
  if (Acceptor.joinable())
    Acceptor.join();
  Listeners.clear(); // closes fds, unlinks Unix paths

  // Unblock every session read; their admitted requests are still served
  // because the workers only exit after the queue drains below.
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for (auto &S : Sessions)
      if (S->Fd >= 0)
        ::shutdown(S->Fd, SHUT_RDWR);
  }
  for (;;) {
    std::unique_ptr<Session> S;
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      if (Sessions.empty())
        break;
      S = std::move(Sessions.back());
      Sessions.pop_back();
    }
    if (S->Thread.joinable())
      S->Thread.join();
    if (S->Fd >= 0)
      ::close(S->Fd);
  }

  Queue.close();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();

  Started = false;
}

std::vector<std::string> Server::boundEndpoints() const {
  std::vector<std::string> Out;
  Out.reserve(Listeners.size());
  for (const Listener &L : Listeners)
    if (L.valid())
      Out.push_back(endpointString(L.bound()));
  return Out;
}

//===----------------------------------------------------------------------===//
// Accept + session threads
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  std::vector<pollfd> Polls(Listeners.size());
  while (!StopFlag.load()) {
    for (size_t I = 0; I < Listeners.size(); ++I) {
      Polls[I].fd = Listeners[I].fd();
      Polls[I].events = POLLIN;
      Polls[I].revents = 0;
    }
    int R = ::poll(Polls.data(), Polls.size(), 100);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }

    // Reap sessions that ended on their own (client went away).
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      for (size_t I = 0; I < Sessions.size();) {
        if (Sessions[I]->Finished.load()) {
          if (Sessions[I]->Thread.joinable())
            Sessions[I]->Thread.join();
          if (Sessions[I]->Fd >= 0)
            ::close(Sessions[I]->Fd);
          Sessions.erase(Sessions.begin() + static_cast<long>(I));
        } else {
          ++I;
        }
      }
    }

    if (R == 0)
      continue;
    for (size_t I = 0; I < Listeners.size(); ++I) {
      if (!(Polls[I].revents & POLLIN))
        continue;
      int Fd = Listeners[I].acceptConnection();
      if (Fd < 0)
        continue;
      ConnCount.fetch_add(1, std::memory_order_relaxed);

      // Session cap: over the limit, answer one Shed frame and close
      // rather than spawning a thread -- a connection storm degrades to
      // refusals the client can see, not to unbounded thread growth.
      size_t Live;
      {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        Live = Sessions.size();
      }
      size_t Cap = Opts.MaxSessions > 0 ? Opts.MaxSessions : 1;
      if (Live >= Cap) {
        ShedSessionCount.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Fd, makeShed(static_cast<uint32_t>(Live),
                                "session limit reached"));
        ::close(Fd);
        continue;
      }

      auto S = std::make_unique<Session>();
      S->Fd = Fd;
      Session *Raw = S.get();
      {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        Sessions.push_back(std::move(S));
      }
      Raw->Thread = std::thread([this, Raw] { sessionLoop(Raw); });
    }
  }
}

void Server::sessionLoop(Session *S) {
  Tenant *Attached = nullptr;
  std::string Payload;
  while (!StopFlag.load()) {
    FrameStatus FS = readFrameDeadline(S->Fd, Payload, Opts.ReadDeadline);
    if (FS == FrameStatus::Closed)
      break;
    if (FS == FrameStatus::TimedOut) {
      // The peer started a frame and stalled: drop it so it cannot pin
      // this session thread. One Error frame explains why, best-effort.
      StalledCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("read deadline exceeded mid-frame"));
      break;
    }
    if (FS == FrameStatus::TooLarge) {
      // The one malformed case we can still answer: the length prefix
      // itself was bad, so the stream position is lost -- reply, drop.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("frame length invalid (cap " +
                                  std::to_string(kMaxFrameBytes) + ")"));
      break;
    }
    if (FS != FrameStatus::Ok) {
      // Truncated mid-frame or errno: the peer is gone or hostile.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    Message M;
    if (!decodeMessage(Payload, M)) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("malformed message payload"));
      break;
    }
    if (!handleMessage(S, M, Attached))
      break;
  }
  S->Finished.store(true);
}

bool Server::handleMessage(Session *S, const Message &M, Tenant *&Attached) {
  switch (M.Type) {
  case MsgType::Hello: {
    Tenant *T = Registry.find(M.Text);
    if (!T)
      return writeFrame(S->Fd, makeError("unknown tenant '" + M.Text +
                                         "'")) == FrameStatus::Ok;
    Attached = T;
    return writeFrame(S->Fd,
                      makeTenantOk(T->Service->epoch(), T->Landmarks,
                                   T->Program->numInputs())) ==
           FrameStatus::Ok;
  }

  case MsgType::Predict: {
    if (!Attached)
      return writeFrame(S->Fd, makeError(
                                   "no tenant attached (send Hello first)")) ==
             FrameStatus::Ok;
    const size_t Universe = Attached->Program->numInputs();
    for (uint64_t In : M.Inputs)
      if (In >= Universe) {
        Attached->Errors.fetch_add(1, std::memory_order_relaxed);
        return writeFrame(S->Fd,
                          makeError("input id " + std::to_string(In) +
                                    " out of range (tenant has " +
                                    std::to_string(Universe) + " inputs)")) ==
               FrameStatus::Ok;
      }

    auto R = std::make_unique<Request>();
    R->T = Attached;
    R->Inputs.assign(M.Inputs.begin(), M.Inputs.end());
    std::future<std::vector<PredictedChoice>> Reply = R->Reply.get_future();

    if (!Queue.tryPush(std::move(R))) {
      // Admission control: the bounded queue is full (or shutting
      // down); refuse now rather than queue without limit.
      ShedCount.fetch_add(1, std::memory_order_relaxed);
      Attached->Shed.fetch_add(1, std::memory_order_relaxed);
      return writeFrame(S->Fd, makeShed(static_cast<uint32_t>(Queue.depth()),
                                        "request queue full")) ==
             FrameStatus::Ok;
    }
    // Recorded after the push so the high-water mark never exceeds the
    // configured capacity (a shed is not a depth).
    noteQueueDepth(Queue.depth());
    RequestCount.fetch_add(1, std::memory_order_relaxed);
    Attached->Requests.fetch_add(1, std::memory_order_relaxed);
    try {
      std::vector<PredictedChoice> Choices = Reply.get();
      return writeFrame(S->Fd, makePredictions(Choices)) == FrameStatus::Ok;
    } catch (const std::exception &E) {
      Attached->Errors.fetch_add(1, std::memory_order_relaxed);
      return writeFrame(S->Fd, makeError(std::string("serving failed: ") +
                                         E.what())) == FrameStatus::Ok;
    }
  }

  case MsgType::Stats:
    return writeFrame(S->Fd, makeStatsReply(statsJson())) == FrameStatus::Ok;

  case MsgType::Ping: {
    // Liveness + convergence probe: which process is this, how loaded,
    // and which store epoch each tenant is actually serving.
    std::vector<TenantHealth> Tenants;
    for (size_t I = 0;; ++I) {
      Tenant *T = Registry.at(I);
      if (!T)
        break;
      TenantHealth H;
      H.Name = T->Name;
      H.ServiceEpoch = T->Service->epoch();
      H.StoreEpoch = T->Follower ? T->Follower->epoch() : 0;
      Tenants.push_back(std::move(H));
    }
    uint32_t Live;
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      Live = static_cast<uint32_t>(Sessions.size());
    }
    return writeFrame(S->Fd,
                      makeHealth(static_cast<uint64_t>(::getpid()), Live,
                                 Tenants)) == FrameStatus::Ok;
  }

  case MsgType::ListTenants:
    return writeFrame(S->Fd, makeTenantList(Registry.names())) ==
           FrameStatus::Ok;

  case MsgType::Shutdown:
    writeFrame(S->Fd, makeBye());
    requestStop();
    return false;

  default:
    // A server->client tag (or anything else) from a client is a
    // protocol violation.
    MalformedCount.fetch_add(1, std::memory_order_relaxed);
    writeFrame(S->Fd, makeError("unexpected message type"));
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Batch workers
//===----------------------------------------------------------------------===//

void Server::noteQueueDepth(size_t Depth) {
  uint64_t Cur = MaxDepth.load(std::memory_order_relaxed);
  while (Depth > Cur &&
         !MaxDepth.compare_exchange_weak(Cur, Depth,
                                         std::memory_order_relaxed)) {
  }
}

void Server::workerLoop() {
  std::vector<RequestPtr> Batch;
  RequestPtr First;
  while (Queue.pop(First)) {
    Batch.clear();
    Batch.push_back(std::move(First));

    // Adaptive micro-batching: the deeper the backlog, the longer this
    // worker lingers to gather a bigger batch; an idle queue costs no
    // added latency at all.
    size_t Depth = Queue.depth();
    noteQueueDepth(Depth);
    uint64_t WindowUs =
        std::min<uint64_t>(Opts.WindowMaxUs,
                           static_cast<uint64_t>(Depth) * Opts.WindowPerDepthUs);
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(WindowUs);
    while (Batch.size() < Opts.BatchMax) {
      RequestPtr Next;
      if (WindowUs == 0) {
        if (!Queue.tryPop(Next))
          break;
      } else {
        auto Left = Deadline - std::chrono::steady_clock::now();
        if (Left.count() <= 0 || !Queue.tryPopFor(Next, Left))
          break;
      }
      Batch.push_back(std::move(Next));
    }

    BatchCount.fetch_add(1, std::memory_order_relaxed);
    BatchedRequestCount.fetch_add(Batch.size(), std::memory_order_relaxed);
    serveBatch(Batch);
  }
}

void Server::serveBatch(std::vector<RequestPtr> &Batch) {
  // Group by tenant, order-preserving: decisions are per-input
  // deterministic, so grouping never changes an answer, only batching
  // efficiency.
  for (size_t I = 0; I < Batch.size(); ++I) {
    if (!Batch[I])
      continue;
    Tenant *T = Batch[I]->T;
    std::vector<Request *> Group;
    std::vector<size_t> AllInputs;
    for (size_t J = I; J < Batch.size(); ++J) {
      if (!Batch[J] || Batch[J]->T != T)
        continue;
      Group.push_back(Batch[J].get());
      AllInputs.insert(AllInputs.end(), Batch[J]->Inputs.begin(),
                       Batch[J]->Inputs.end());
    }

    try {
      std::vector<runtime::AdaptiveService::Decision> Decisions;
      Decisions.reserve(AllInputs.size());
      {
        std::lock_guard<std::mutex> Lock(T->ServeMutex);
        if (Opts.Adapt) {
          // Observing mode: feed the tenant's drift monitor and
          // reservoir; serve() runs the adaptation loop inline.
          for (size_t In : AllInputs)
            Decisions.push_back(T->Service->serve(In));
        } else {
          Decisions = T->Service->decideBatch(AllInputs);
        }
      }
      size_t Cursor = 0;
      for (Request *R : Group) {
        std::vector<PredictedChoice> Choices;
        Choices.reserve(R->Inputs.size());
        for (size_t K = 0; K < R->Inputs.size(); ++K, ++Cursor)
          Choices.push_back({Decisions[Cursor].Landmark,
                             Decisions[Cursor].Epoch});
        R->Reply.set_value(std::move(Choices));
      }
      DecisionCount.fetch_add(AllInputs.size(), std::memory_order_relaxed);
      T->Decisions.fetch_add(AllInputs.size(), std::memory_order_relaxed);
      T->Batches.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      std::exception_ptr E = std::current_exception();
      for (Request *R : Group)
        R->Reply.set_exception(E);
    }

    // Consume the group (including Batch[I] itself).
    for (size_t J = I; J < Batch.size(); ++J)
      if (Batch[J] && Batch[J]->T == T)
        Batch[J].reset();
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats Server::stats() const {
  ServerStats S;
  S.Connections = ConnCount.load(std::memory_order_relaxed);
  S.Requests = RequestCount.load(std::memory_order_relaxed);
  S.Decisions = DecisionCount.load(std::memory_order_relaxed);
  S.Shed = ShedCount.load(std::memory_order_relaxed);
  S.Malformed = MalformedCount.load(std::memory_order_relaxed);
  S.Batches = BatchCount.load(std::memory_order_relaxed);
  S.BatchedRequests = BatchedRequestCount.load(std::memory_order_relaxed);
  S.MaxQueueDepth = MaxDepth.load(std::memory_order_relaxed);
  S.ShedSessions = ShedSessionCount.load(std::memory_order_relaxed);
  S.Stalled = StalledCount.load(std::memory_order_relaxed);
  return S;
}

std::string Server::statsJson() const {
  ServerStats S = stats();
  std::string J = "{";
  J += "\"connections\": " + std::to_string(S.Connections);
  J += ", \"requests\": " + std::to_string(S.Requests);
  J += ", \"decisions\": " + std::to_string(S.Decisions);
  J += ", \"shed\": " + std::to_string(S.Shed);
  J += ", \"malformed\": " + std::to_string(S.Malformed);
  J += ", \"batches\": " + std::to_string(S.Batches);
  J += ", \"batched_requests\": " + std::to_string(S.BatchedRequests);
  J += ", \"max_queue_depth\": " + std::to_string(S.MaxQueueDepth);
  J += ", \"shed_sessions\": " + std::to_string(S.ShedSessions);
  J += ", \"stalled\": " + std::to_string(S.Stalled);
  J += ", \"max_sessions\": " + std::to_string(Opts.MaxSessions);
  J += ", \"queue_capacity\": " + std::to_string(Queue.capacity());
  J += ", \"workers\": " + std::to_string(Opts.Workers);
  J += ", \"batch_max\": " + std::to_string(Opts.BatchMax);
  J += std::string(", \"adapt\": ") + (Opts.Adapt ? "true" : "false");
  J += ", \"tenants\": [";
  for (size_t I = 0;; ++I) {
    Tenant *T = Registry.at(I);
    if (!T)
      break;
    runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
    if (I)
      J += ", ";
    J += "{\"name\": \"" + jsonEscape(T->Name) + "\"";
    J += ", \"benchmark\": \"" + jsonEscape(T->Benchmark) + "\"";
    J += ", \"model\": \"" + jsonEscape(T->ModelPath) + "\"";
    J += ", \"epoch\": " + std::to_string(T->Service->epoch());
    J += ", \"landmarks\": " + std::to_string(T->Landmarks);
    J += ", \"inputs\": " + std::to_string(T->Program->numInputs());
    J += ", \"requests\": " +
         std::to_string(T->Requests.load(std::memory_order_relaxed));
    J += ", \"decisions\": " +
         std::to_string(T->Decisions.load(std::memory_order_relaxed));
    J += ", \"batches\": " +
         std::to_string(T->Batches.load(std::memory_order_relaxed));
    J += ", \"shed\": " +
         std::to_string(T->Shed.load(std::memory_order_relaxed));
    J += ", \"errors\": " +
         std::to_string(T->Errors.load(std::memory_order_relaxed));
    J += ", \"service_decisions\": " + std::to_string(A.Decisions);
    J += ", \"memoized\": " + std::to_string(A.MemoizedDecisions);
    J += ", \"drift_detections\": " + std::to_string(A.DriftDetections);
    J += ", \"retrains\": " + std::to_string(A.Retrains);
    J += ", \"swaps\": " + std::to_string(A.Swaps);
    J += ", \"skipped_retrains\": " + std::to_string(A.SkippedRetrains);
    J += ", \"last_skip_reason\": \"" + jsonEscape(A.LastSkipReason) + "\"";
    const store::StoreFollower *F = T->Follower.get();
    J += ", \"store_epoch\": " + std::to_string(F ? F->epoch() : 0);
    J += ", \"store_swaps\": " + std::to_string(F ? F->swaps() : 0);
    J += ", \"store_rejects\": " + std::to_string(F ? F->rejected() : 0);
    J += "}";
  }
  J += "]}";
  return J;
}

} // namespace daemon
} // namespace pbt
