//===- daemon/ModelRegistry.cpp - Multi-tenant hot model registry ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include <algorithm>
#include <utility>

namespace pbt {
namespace daemon {

namespace {

/// Builds the AdaptiveService for \p Model under \p Opts; shared by the
/// file path and the store path.
std::unique_ptr<runtime::AdaptiveService>
buildService(const registry::BenchmarkFactory &Factory,
             runtime::TunableProgram &Program, serialize::TrainedModel Model,
             const ModelRegistryOptions &Opts) {
  runtime::AdaptiveServiceOptions AO;
  AO.Monitor.Window = std::max(8u, Opts.Window);
  AO.Monitor.MinSamples = AO.Monitor.Window / 2;
  AO.Monitor.Cooldown = AO.Monitor.Window;
  AO.ReservoirSize = std::max(8u, Opts.Reservoir);
  AO.MinRetrainInputs = std::min<size_t>(16, AO.ReservoirSize);
  AO.Retrain = registry::reservoirRetrainOptions(
      Factory, Model.Meta.Scale, AO.ReservoirSize, Opts.Pool);
  AO.AutoAdapt = Opts.AutoAdapt;
  AO.Pool = Opts.Pool;
  return std::make_unique<runtime::AdaptiveService>(Program, std::move(Model),
                                                    AO);
}

} // namespace

serialize::LoadStatus ModelRegistry::buildTenant(Tenant &T,
                                                const std::string &Name,
                                                serialize::TrainedModel Model) {
  const registry::BenchmarkFactory *Factory =
      registry::BenchmarkRegistry::instance().lookup(Model.Meta.Benchmark);
  if (!Factory)
    return serialize::LoadStatus::failure("model benchmark '" +
                                          Model.Meta.Benchmark +
                                          "' is not registered");

  T.Name = Name.empty() ? Model.Meta.Benchmark : Name;
  T.Benchmark = Model.Meta.Benchmark;
  T.Program = Factory->makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
  T.Landmarks = static_cast<unsigned>(Model.System.L1.Landmarks.size());
  auto Service = buildService(*Factory, *T.Program, std::move(Model), Opts);
  if (!Service->ready())
    return Service->status();
  T.Service = std::move(Service);
  return serialize::LoadStatus::success();
}

serialize::LoadStatus ModelRegistry::publishTenant(std::unique_ptr<Tenant> T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &Existing : Tenants)
    if (Existing->Name == T->Name)
      return serialize::LoadStatus::failure(
          "duplicate tenant name '" + T->Name +
          "' (use --model=NAME=FILE to disambiguate)");
  Tenants.push_back(std::move(T));
  return serialize::LoadStatus::success();
}

serialize::LoadStatus ModelRegistry::addTenant(const std::string &Name,
                                               const std::string &ModelPath) {
  serialize::TrainedModel Model;
  serialize::LoadStatus Loaded = serialize::loadModelFile(ModelPath, Model);
  if (!Loaded)
    return Loaded;
  auto T = std::make_unique<Tenant>();
  T->ModelPath = ModelPath;
  serialize::LoadStatus Built = buildTenant(*T, Name, std::move(Model));
  if (!Built)
    return Built;
  return publishTenant(std::move(T));
}

serialize::LoadStatus
ModelRegistry::addStoreTenant(const std::string &Name,
                              const std::string &StoreDir) {
  auto T = std::make_unique<Tenant>();
  T->ModelPath = StoreDir;
  Tenant *Raw = T.get();
  // The first install builds the tenant; every later one is a hot swap.
  T->Follower = std::make_unique<store::StoreFollower>(
      StoreDir, [this, Raw, Name](serialize::TrainedModel Model) {
        if (!Raw->Service)
          return buildTenant(*Raw, Name, std::move(Model));
        unsigned Landmarks =
            static_cast<unsigned>(Model.System.L1.Landmarks.size());
        // swapModel is the operator-push path: validated against the
        // bound program, thread-safe against serving workers, no shadow
        // gate (the store's canary already gated this epoch).
        serialize::LoadStatus St = Raw->Service->swapModel(std::move(Model));
        if (St)
          Raw->Landmarks = Landmarks;
        return St;
      });
  serialize::LoadStatus St = T->Follower->sync();
  if (!St)
    return St;
  if (!T->Service)
    return serialize::LoadStatus::failure("store '" + StoreDir +
                                          "' has no promoted epoch yet");
  return publishTenant(std::move(T));
}

size_t ModelRegistry::pollStores() {
  // Snapshot the tenant pointers (append-only table; addresses stable).
  std::vector<Tenant *> Watched;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &T : Tenants)
      if (T->Follower)
        Watched.push_back(T.get());
  }

  size_t Swapped = 0;
  for (Tenant *T : Watched) {
    uint64_t Before = T->Follower->swaps();
    // A refusal is counted by the follower; the tenant keeps its epoch.
    (void)T->Follower->sync();
    Swapped += T->Follower->swaps() != Before;
  }
  return Swapped;
}

Tenant *ModelRegistry::find(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &T : Tenants)
    if (T->Name == Name)
      return T.get();
  return nullptr;
}

Tenant *ModelRegistry::at(size_t Idx) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Idx < Tenants.size() ? Tenants[Idx].get() : nullptr;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Tenants.size();
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Out;
  Out.reserve(Tenants.size());
  for (const auto &T : Tenants)
    Out.push_back(T->Name);
  return Out;
}

} // namespace daemon
} // namespace pbt
