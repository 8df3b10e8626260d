//===- tests/daemon/StoreTenantTest.cpp --------------------------------------=//
//
// Store-backed tenants in the daemon registry: addStoreTenant loads the
// CURRENT epoch checksum-verified, pollStores() hot-swaps the tenant
// when a rollout promotes a new epoch, and the provenance wall keeps a
// store that suddenly serves a different benchmark from ever reaching
// the tenant. This is the daemon end of the trainer/server split; the
// trainer end (RolloutController publishing into the same directory) is
// tested in tests/rollout/.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"
#include "daemon/Server.h"

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include <unistd.h>

using namespace pbt;
using daemon::ModelRegistry;
using daemon::Tenant;

namespace {

constexpr double kScale = 0.1;

const std::string &modelBytes(const char *Benchmark) {
  auto Train = [](const char *Name) {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get(Name);
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        Name, kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    M.System.Data.reset();
    return serialize::serializeModel(M);
  };
  static const std::string Sort = Train("sort1");
  static const std::string Packing = Train("binpacking");
  return std::string(Benchmark) == "sort1" ? Sort : Packing;
}

class StoreTenantTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    Dir = ::testing::TempDir() + "pbt-store-tenant-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
    Store = std::make_unique<store::ModelStore>(Dir);
    ASSERT_TRUE(Store->open().Ok);
  }
  void TearDown() override {
    Store.reset();
    std::filesystem::remove_all(Dir);
    support::FaultInjector::instance().reset();
  }

  uint64_t publishAndPromote(const std::string &Image) {
    uint64_t E = 0;
    EXPECT_TRUE(Store->publish(Image, E).Ok);
    EXPECT_TRUE(Store->promote(E).Ok);
    return E;
  }

  std::string Dir;
  std::unique_ptr<store::ModelStore> Store;
};

TEST_F(StoreTenantTest, AddStoreTenantServesTheCurrentEpoch) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);

  Tenant *T = Reg.find("sorter");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Benchmark, "sort1");
  ASSERT_NE(T->Follower, nullptr);
  EXPECT_EQ(T->ModelPath, Dir);
  EXPECT_EQ(T->Follower->epoch(), 1u);
  ASSERT_TRUE(T->Service->ready());
  EXPECT_GT(T->Landmarks.load(), 0u);
}

TEST_F(StoreTenantTest, AddStoreTenantRefusesAnEmptyStore) {
  ModelRegistry Reg;
  EXPECT_FALSE(Reg.addStoreTenant("sorter", Dir).Ok); // nothing promoted
  EXPECT_EQ(Reg.size(), 0u);
}

TEST_F(StoreTenantTest, PollSwapsOnPromotionAndIsOtherwiseIdle) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  Tenant *T = Reg.find("sorter");

  // No promotion since the tenant loaded: nothing to do.
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->Follower->swaps(), 0u);
  uint64_t EpochBefore = T->Service->epoch();

  // The trainer side promotes epoch 2; the next poll hot-swaps.
  publishAndPromote(modelBytes("sort1"));
  EXPECT_EQ(Reg.pollStores(), 1u);
  EXPECT_EQ(T->Follower->epoch(), 2u);
  EXPECT_EQ(T->Follower->swaps(), 1u);
  EXPECT_GT(T->Service->epoch(), EpochBefore); // service epoch bumped
  EXPECT_TRUE(T->Service->ready());

  // Idempotent again after convergence.
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->Follower->swaps(), 1u);
}

TEST_F(StoreTenantTest, ProvenanceWallRejectsAForeignModel) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  Tenant *T = Reg.find("sorter");

  // The store suddenly serves binpacking (a misconfigured trainer
  // pointed at the wrong directory). The tenant must keep its epoch.
  publishAndPromote(modelBytes("binpacking"));
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->Follower->epoch(), 1u);
  EXPECT_EQ(T->Follower->rejected(), 1u);
  EXPECT_EQ(T->Benchmark, "sort1");
  EXPECT_TRUE(T->Service->ready());
}

TEST_F(StoreTenantTest, StoreCountersSurfaceInStatsJson) {
  publishAndPromote(modelBytes("sort1"));
  std::string FilePath = Dir + "-model.pbt";
  {
    std::ofstream Out(FilePath, std::ios::binary);
    Out << modelBytes("binpacking");
  }
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  ASSERT_TRUE(Reg.addTenant("packer", FilePath).Ok);

  // One promotion the tenant takes, then one it refuses (foreign
  // provenance): epoch 2, one swap, one reject.
  publishAndPromote(modelBytes("sort1"));
  EXPECT_EQ(Reg.pollStores(), 1u);
  publishAndPromote(modelBytes("binpacking"));
  EXPECT_EQ(Reg.pollStores(), 0u);

  daemon::ServerOptions SO;
  SO.SocketPath = Dir + ".sock";
  daemon::Server Srv(Reg, SO); // never started: statsJson reads counters
  std::string Json = Srv.statsJson();
  size_t Sorter = Json.find("\"name\": \"sorter\"");
  size_t Packer = Json.find("\"name\": \"packer\"");
  ASSERT_NE(Sorter, std::string::npos) << Json;
  ASSERT_NE(Packer, std::string::npos) << Json;
  ASSERT_LT(Sorter, Packer) << Json; // tenants in registration order
  std::string SorterJson = Json.substr(Sorter, Packer - Sorter);
  std::string PackerJson = Json.substr(Packer);
  EXPECT_NE(SorterJson.find("\"store_epoch\": 2,"), std::string::npos)
      << SorterJson;
  EXPECT_NE(SorterJson.find("\"store_swaps\": 1,"), std::string::npos)
      << SorterJson;
  EXPECT_NE(SorterJson.find("\"store_rejects\": 1}"), std::string::npos)
      << SorterJson;
  // File tenants report zeros.
  EXPECT_NE(PackerJson.find("\"store_epoch\": 0, \"store_swaps\": 0, "
                            "\"store_rejects\": 0}"),
            std::string::npos)
      << PackerJson;
  std::filesystem::remove(FilePath);
}

TEST_F(StoreTenantTest, FileAndStoreTenantsCoexist) {
  publishAndPromote(modelBytes("sort1"));
  std::string FilePath = Dir + "-model.pbt";
  {
    std::ofstream Out(FilePath, std::ios::binary);
    Out << modelBytes("binpacking");
  }
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addTenant("packer", FilePath).Ok);
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  EXPECT_EQ(Reg.size(), 2u);

  // pollStores leaves file tenants alone.
  publishAndPromote(modelBytes("sort1"));
  EXPECT_EQ(Reg.pollStores(), 1u);
  EXPECT_EQ(Reg.find("packer")->Follower, nullptr);
  EXPECT_EQ(Reg.find("sorter")->Follower->epoch(), 2u);
  std::filesystem::remove(FilePath);
}

} // namespace
