//===- daemon/ModelRegistry.h - Multi-tenant hot model registry ------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's tenant table: many trained models kept hot in one
/// pbt-serve process, each compiled into its own AdaptiveService with a
/// private DriftMonitor, reservoir, and epoch counter. A tenant is built
/// from a persisted model file -- the model's provenance (benchmark key,
/// scale, program seed) rebuilds the exact program it was trained on,
/// like `pbt-bench predict`/`stream` do -- and is addressed by name on
/// the wire (Hello).
///
/// AdaptiveService's contract is one serving thread; in the daemon any
/// batch worker may pick up any tenant's requests, so each tenant
/// carries a ServeMutex that makes "the serving thread" a role the
/// workers pass around rather than a fixed thread. Registration happens
/// at startup, before the server accepts connections; lookups afterwards
/// are read-only and lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_MODELREGISTRY_H
#define PBT_DAEMON_MODELREGISTRY_H

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace daemon {

/// One hot model: the rebuilt program, its adaptive serving loop, and
/// the mutex that serializes serving across batch workers.
struct Tenant {
  std::string Name;
  std::string ModelPath;
  std::string Benchmark;
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Service;
  /// Serializes serve()/decideBatch()/adaptNow() across batch workers
  /// (AdaptiveService expects a single serving thread).
  std::mutex ServeMutex;
  /// Atomic: store hot-swaps update it while Hello handlers read it.
  std::atomic<unsigned> Landmarks{0};
  /// Store tenants only (null for file tenants): follows CURRENT and
  /// counts store swaps and rejects.
  std::unique_ptr<store::StoreFollower> Follower;
  // Daemon-side accounting (the service keeps its own decision totals).
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Decisions{0};
  std::atomic<uint64_t> Batches{0};
  /// Per-tenant admission refusals and error replies, so dashboards and
  /// quarantine decisions can tell tenants apart (the server also keeps
  /// global totals).
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> Errors{0};
};

struct ModelRegistryOptions {
  /// Drift-monitor window per tenant (mirrors `pbt-bench stream`
  /// --window).
  unsigned Window = 64;
  /// Shadow-retrain reservoir capacity per tenant (--reservoir).
  unsigned Reservoir = 48;
  /// serve()-driven drift adaptation; off = frozen decideBatch serving.
  bool AutoAdapt = false;
  /// Parallelises per-tenant shadow retraining; may be null.
  support::ThreadPool *Pool = nullptr;
};

class ModelRegistry {
public:
  explicit ModelRegistry(ModelRegistryOptions Options = {})
      : Opts(Options) {}

  /// Loads \p ModelPath, rebuilds its program from provenance, and
  /// publishes it as \p Name (empty = the model's benchmark key).
  /// Duplicate names and unregistered benchmarks fail.
  serialize::LoadStatus addTenant(const std::string &Name,
                                  const std::string &ModelPath);

  /// Like addTenant, but the tenant follows a crash-safe model store
  /// directory (store::StoreFollower): it serves the CURRENT epoch, and
  /// pollStores() hot-swaps it whenever a rollout promotes a new one.
  serialize::LoadStatus addStoreTenant(const std::string &Name,
                                       const std::string &StoreDir);

  /// Syncs every store tenant's follower; a promoted epoch is swapped in
  /// through AdaptiveService::swapModel, a refused one leaves the tenant
  /// on its held epoch. Returns the number of tenants swapped. Safe to
  /// call from the daemon's park loop while workers serve.
  size_t pollStores();

  /// Name lookup (wire path); nullptr when unknown.
  Tenant *find(const std::string &Name);
  Tenant *at(size_t Idx);
  size_t size() const;
  std::vector<std::string> names() const;
  const ModelRegistryOptions &options() const { return Opts; }

private:
  /// Fills \p T's name, program and service from \p Model's provenance.
  serialize::LoadStatus buildTenant(Tenant &T, const std::string &Name,
                                    serialize::TrainedModel Model);
  serialize::LoadStatus publishTenant(std::unique_ptr<Tenant> T);

  ModelRegistryOptions Opts;
  mutable std::mutex Mutex;
  /// Append-only; unique_ptr keeps Tenant addresses stable across
  /// growth, so find() results stay valid for the process lifetime.
  std::vector<std::unique_ptr<Tenant>> Tenants;
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_MODELREGISTRY_H
