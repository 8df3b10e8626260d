//===- daemon/Server.h - pbt-serve daemon core -----------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pbt-serve daemon: a stream-socket server (Unix-domain and/or TCP,
/// see daemon/Transport.h) answering framed prediction requests
/// (daemon/Protocol.h) for the tenants of a ModelRegistry.
///
/// Thread shape: one accept thread (poll-based, so it can stop), one
/// session thread per connection, and a fixed pool of batch workers
/// behind one BoundedQueue. A session validates and enqueues each
/// Predict and waits for its future; admission control is the queue
/// bound -- when it is full the session answers Shed immediately, so
/// backlog never grows without limit and a client always learns its
/// fate. Workers gather adaptive micro-batches: the gather window
/// widens in proportion to queue depth (amortising per-batch cost under
/// backlog) and collapses to zero when idle (no added latency), capped
/// at BatchMax requests. A gathered batch is grouped by tenant and each
/// group is served under that tenant's ServeMutex with
/// AdaptiveService::decideBatch -- the same compiled arena walk as
/// PredictionService::decideBatch, so daemon answers are
/// choice-identical to an in-process replay (the loadgen harness and
/// the daemon tests assert exactly that).
///
/// Shutdown (requestStop(), a Shutdown frame, or a signal) is clean by
/// construction: the accept loop notices the flag at its next poll
/// tick, session sockets are shut down to unblock their reads, and the
/// queue drains before workers exit, so every admitted request is
/// answered.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_SERVER_H
#define PBT_DAEMON_SERVER_H

#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "daemon/RequestQueue.h"
#include "daemon/Transport.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pbt {
namespace daemon {

struct ServerOptions {
  /// Filesystem path of the listening Unix socket (sun_path caps it at
  /// ~107 bytes; keep it short). Unlinked on stop. May be empty when
  /// Listen supplies a TCP endpoint instead; at least one of the two
  /// must be present.
  std::string SocketPath;
  /// Additional TCP listen endpoints, each "HOST:PORT" (port 0 binds an
  /// ephemeral port -- read it back via boundEndpoints()). The same
  /// framed protocol is spoken on every transport.
  std::vector<std::string> Listen;
  /// Cap on concurrent session threads. A connection over the cap is
  /// answered with one Shed frame and closed instead of getting a
  /// thread -- a connection storm degrades to refusals, not to
  /// unbounded thread growth. 0 = 1.
  unsigned MaxSessions = 256;
  /// Once a frame has started arriving on a session, the rest of it
  /// must land within this many seconds or the connection is dropped
  /// (FrameStatus::TimedOut): a stalled or malicious peer cannot pin a
  /// session thread mid-frame. Idle sessions are unaffected. 0 = no
  /// deadline (the pre-TCP behavior).
  double ReadDeadline = 30.0;
  /// Batch worker threads.
  unsigned Workers = 2;
  /// Request-queue bound: the admission-control knob.
  size_t QueueCapacity = 64;
  /// Micro-batch cap per worker gather.
  unsigned BatchMax = 64;
  /// Gather window added per queued request (adaptive micro-batching);
  /// depth * this, capped below, is how long a worker waits for more.
  unsigned WindowPerDepthUs = 25;
  unsigned WindowMaxUs = 2000;
  /// Serve through AdaptiveService::serve() (drift observation + online
  /// adaptation) instead of frozen decideBatch.
  bool Adapt = false;
};

struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Decisions = 0;
  uint64_t Shed = 0;
  uint64_t Malformed = 0;
  uint64_t Batches = 0;
  uint64_t BatchedRequests = 0;
  uint64_t MaxQueueDepth = 0;
  /// Connections refused with Shed because MaxSessions was reached.
  uint64_t ShedSessions = 0;
  /// Sessions dropped for stalling mid-frame past ReadDeadline.
  uint64_t Stalled = 0;
};

class Server {
public:
  Server(ModelRegistry &Registry, ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the accept + worker threads. False with
  /// \p Err set on any socket failure (stale path, path too long, ...).
  bool start(std::string &Err);

  /// Flags the server to stop; safe from any thread (and from the
  /// Shutdown-frame path). Returns immediately.
  void requestStop();

  /// Blocks until requestStop() (e.g. a client's Shutdown frame, or a
  /// signal handler). The pbt-serve main parks here.
  void waitForStop();

  /// Full teardown: stops accepting, unblocks and joins sessions,
  /// drains the queue, joins workers, unlinks the socket. Idempotent.
  void stop();

  bool running() const { return Started && !StopFlag.load(); }
  const ServerOptions &options() const { return Opts; }
  /// The endpoints actually listening, as specs a DaemonClient can
  /// connect to ("unix:/path", "tcp:host:port" with ephemeral ports
  /// resolved). Valid after start().
  std::vector<std::string> boundEndpoints() const;
  ServerStats stats() const;
  /// The StatsReply body: server counters plus per-tenant serving and
  /// adaptation stats as one JSON object.
  std::string statsJson() const;

private:
  struct Request {
    Tenant *T = nullptr;
    std::vector<size_t> Inputs;
    std::promise<std::vector<PredictedChoice>> Reply;
  };
  using RequestPtr = std::unique_ptr<Request>;

  struct Session {
    int Fd = -1;
    std::thread Thread;
    std::atomic<bool> Finished{false};
  };

  void acceptLoop();
  void sessionLoop(Session *S);
  void workerLoop();
  /// One decoded client frame -> exactly one response frame. False ends
  /// the session (Shutdown, or a response write failure).
  bool handleMessage(Session *S, const Message &M, Tenant *&Attached);
  void serveBatch(std::vector<RequestPtr> &Batch);
  void noteQueueDepth(size_t Depth);

  ModelRegistry &Registry;
  ServerOptions Opts;
  BoundedQueue<RequestPtr> Queue;

  std::vector<Listener> Listeners;
  bool Started = false;
  std::atomic<bool> StopFlag{false};
  std::mutex StopMutex;
  std::condition_variable StopCv;

  std::thread Acceptor;
  std::vector<std::thread> Workers;
  std::mutex SessionsMutex;
  std::vector<std::unique_ptr<Session>> Sessions;

  std::atomic<uint64_t> ConnCount{0}, RequestCount{0}, DecisionCount{0},
      ShedCount{0}, MalformedCount{0}, BatchCount{0}, BatchedRequestCount{0},
      MaxDepth{0}, ShedSessionCount{0}, StalledCount{0};
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_SERVER_H
