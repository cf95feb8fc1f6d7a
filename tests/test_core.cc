#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "apps/workloads.h"
#include "backend/codegen.h"
#include "core/service.h"
#include "util/strings.h"

namespace clickinc::core {
namespace {

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture() : svc_(topo::Topology::paperEmulation()) {}

  topo::TrafficSpec trafficFor(std::vector<std::string> srcs,
                               const std::string& dst) {
    topo::TrafficSpec spec;
    for (const auto& s : srcs) {
      spec.sources.push_back({svc_.topology().findNode(s), 10.0});
    }
    spec.dst_host = svc_.topology().findNode(dst);
    return spec;
  }

  ClickIncService svc_;
};

TEST_F(ServiceFixture, SubmitTemplateEndToEnd) {
  const auto r = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_GT(r.user_id, 0);
  EXPECT_FALSE(r.impact.affected_devices.empty());
  EXPECT_FALSE(r.impact.affected_pods.empty());
}

TEST_F(ServiceFixture, DistributedExecutionMatchesSingleDeviceSemantics) {
  const auto r = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  const int src = svc_.topology().findNode("pod0a");
  const int dst = svc_.topology().findNode("pod2b");

  // Reference single-device execution.
  const auto& prog = *svc_.deployments().at(r.user_id).prog;
  ir::StateStore ref_store;
  Rng ref_rng(1);
  ir::Interpreter ref(&ref_store, &ref_rng);

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t value = (i * 13) % 37;
    ir::PacketView ref_view;
    ref_view.setField("hdr.value", value);
    ref.runAll(prog, ref_view);

    ir::PacketView net_view;
    net_view.user_id = r.user_id;
    net_view.setField("hdr._uid", static_cast<std::uint64_t>(r.user_id));
    net_view.setField("hdr.value", value);
    const auto pkt = svc_.emulator().send(src, dst, std::move(net_view), 64, 4);
    const bool net_dropped = pkt.dropped;
    const bool ref_dropped = ref_view.verdict == ir::Verdict::kDrop;
    ASSERT_EQ(net_dropped, ref_dropped) << "packet " << i;
  }
}

TEST_F(ServiceFixture, ExecPlanCacheThreadedThroughEmulator) {
  // The service's plan cache IS the emulator's cache (threaded the way
  // the placement arena is), and deploying a program compiles its
  // segments through it. Replicated segments (multi-path common prefix,
  // §6 replicas) are content-identical and must hit instead of
  // recompiling. Note cross-user sharing is deliberately absent here:
  // exec-plan fingerprints are name-sensitive (state/Param names key the
  // runtime stores), unlike the placement memo's name-blind segments.
  EXPECT_EQ(&svc_.execPlanCache(), &svc_.emulator().planCache());

  const auto r = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  const auto stats = svc_.execPlanCache().stats();
  EXPECT_GT(stats.compiles, 0u);
  EXPECT_EQ(stats.probes, stats.hits + stats.compiles);

  // Redeploying the same program's snippets (e.g. a replica on another
  // device) reuses cached plans.
  const auto& deployed = svc_.deployments().at(r.user_id);
  const auto before = svc_.execPlanCache().stats();
  for (const auto& a : deployed.plan.assignments) {
    for (const auto& [dev, p] : a.on_device) {
      if (p.instr_idxs.empty()) continue;
      emu::DeploymentEntry entry;
      entry.user_id = r.user_id;
      entry.prog = deployed.prog;
      entry.instr_idxs = p.instr_idxs;
      entry.step_from = 90;  // parked step range: never executed
      entry.step_to = 91;
      svc_.emulator().deploy(dev, std::move(entry));
    }
  }
  const auto after = svc_.execPlanCache().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.compiles, before.compiles);
}

TEST_F(ServiceFixture, ExecPlanCacheForgetsDepartedTenants) {
  // Plan fingerprints carry user-prefixed state names, so a departed
  // tenant's plans never hit again. Over many admit/remove cycles the
  // cache must track the live population, not the admission count.
  auto liveSegments = [&] {
    std::size_t n = 0;
    for (const auto& [user, dep] : svc_.deployments()) {
      for (const auto& a : dep.plan.assignments) {
        for (const auto& [dev, p] : a.on_device) n += !p.instr_idxs.empty();
        for (const auto& [dev, p] : a.on_bypass) n += !p.instr_idxs.empty();
      }
    }
    return n;
  };
  const std::vector<std::string> srcs = {"pod0a", "pod0b", "pod1a", "pod1b"};
  std::deque<int> live;
  std::size_t max_size = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto r = svc_.submit(SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 64 << (i % 3)}, {"CacheLen", 2}},
        trafficFor({srcs[static_cast<std::size_t>(i) % srcs.size()]},
                   "pod2b")));
    ASSERT_TRUE(r.ok) << "cycle " << i << ": " << r.error.message();
    live.push_back(r.user_id);
    if (live.size() > 4) {
      ASSERT_TRUE(svc_.remove(live.front()).ok);
      live.pop_front();
    }
    const std::size_t size = svc_.execPlanCache().size();
    max_size = std::max(max_size, size);
    ASSERT_LE(size, 2 * liveSegments()) << "cycle " << i;
  }
  EXPECT_GT(svc_.execPlanCache().stats().compiles, max_size);
}

TEST_F(ServiceFixture, MultiUserIsolationOverTheNetwork) {
  const auto a = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  const auto b = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(a.ok) << a.error.message();
  ASSERT_TRUE(b.ok) << b.error.message();
  const int src = svc_.topology().findNode("pod0a");
  const int dst = svc_.topology().findNode("pod2b");
  auto send = [&](int user, std::uint64_t value) {
    ir::PacketView view;
    view.user_id = user;
    view.setField("hdr._uid", static_cast<std::uint64_t>(user));
    view.setField("hdr.value", value);
    return svc_.emulator().send(src, dst, std::move(view), 64, 4);
  };
  EXPECT_TRUE(send(a.user_id, 7).delivered);
  EXPECT_TRUE(send(b.user_id, 7).delivered);  // b's first sight of 7
  EXPECT_TRUE(send(a.user_id, 7).dropped);
  EXPECT_TRUE(send(b.user_id, 7).dropped);
}

TEST_F(ServiceFixture, RemoveFreesResourcesForNextProgram) {
  const auto r1 = svc_.submit(SubmitRequest::fromTemplate(
      "MLAgg",
      {{"NumAgg", 2048}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
      trafficFor({"pod0a", "pod1a"}, "pod2b")));
  ASSERT_TRUE(r1.ok) << r1.error.message();
  const double after_add = svc_.occupancy().remainingRatio();
  const auto removed = svc_.remove(r1.user_id);
  ASSERT_TRUE(removed.ok) << removed.error.message();
  EXPECT_FALSE(removed.impact.affected_devices.empty());
  EXPECT_GT(svc_.occupancy().remainingRatio(), after_add);
}

TEST_F(ServiceFixture, StepGateSkipsFailedReplicaDevice) {
  const auto r = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  const int src = svc_.topology().findNode("pod0a");
  const int dst = svc_.topology().findNode("pod2b");
  auto send = [&](std::uint64_t value) {
    ir::PacketView view;
    view.user_id = r.user_id;
    view.setField("hdr._uid", static_cast<std::uint64_t>(r.user_id));
    view.setField("hdr.value", value);
    return svc_.emulator().send(src, dst, std::move(view), 64, 4);
  };
  // A replicated EC has > 1 device; failing one of a replicated pair must
  // not break the program (the replica executes). Find a replicated
  // assignment.
  int replicated_dev = -1;
  for (const auto& a : r.plan.assignments) {
    if (a.on_device.size() > 1) {
      replicated_dev = a.on_device.begin()->first;
      break;
    }
  }
  send(5);
  if (replicated_dev >= 0) {
    svc_.emulator().setFailed(replicated_dev, true);
    // Traffic still processed: the duplicate is still dropped somewhere
    // (another EC member or the surviving chain).
    const auto pkt = send(5);
    EXPECT_TRUE(pkt.dropped || pkt.delivered);
    svc_.emulator().setFailed(replicated_dev, false);
  }
}

// --- apps over the service ---

TEST(Apps, DqaccFiltersDuplicatesInNetwork) {
  ClickIncService svc(topo::Topology::paperEmulation());
  apps::DqaccConfig cfg;
  cfg.client_host = svc.topology().findNode("pod0a");
  cfg.server_host = svc.topology().findNode("pod2b");
  cfg.stream_len = 1000;
  cfg.distinct_values = 100;
  const auto r = apps::runDqacc(svc, cfg);
  ASSERT_TRUE(r.deployed) << r.failure;
  EXPECT_GT(r.filtered, 0u);
  EXPECT_GT(r.dedup_ratio, 0.8);  // most duplicates are caught
  EXPECT_GE(r.forwarded, cfg.distinct_values);  // all distinct survive
}

TEST(Apps, KvsCachesHotKeys) {
  ClickIncService svc(topo::Topology::paperEmulation());
  apps::KvsConfig cfg;
  cfg.client_hosts = {svc.topology().findNode("pod0a"),
                      svc.topology().findNode("pod1a")};
  cfg.server_host = svc.topology().findNode("pod2b");
  cfg.queries = 1500;
  cfg.keyspace = 512;
  cfg.zipf = 1.2;
  cfg.cache_size = 64;
  const auto r = apps::runKvs(svc, cfg);
  ASSERT_TRUE(r.deployed) << r.failure;
  EXPECT_GT(r.hit_ratio, 0.2);  // hot keys get cached and hit
  EXPECT_GT(r.hits, 0u);
  // Cache hits come back faster than full round trips to the server.
  EXPECT_LT(r.avg_hit_latency_ns, r.avg_miss_latency_ns);
}

TEST(Apps, MlaggAggregatesInNetwork) {
  ClickIncService svc(topo::Topology::paperEmulation());
  apps::MlaggConfig cfg;
  cfg.worker_hosts = {svc.topology().findNode("pod0a"),
                      svc.topology().findNode("pod0b")};
  cfg.server_host = svc.topology().findNode("pod2b");
  cfg.rounds = 40;
  cfg.dim = 8;
  cfg.sparsity = 0.0;
  const auto r = apps::runMlagg(svc, cfg);
  ASSERT_TRUE(r.deployed) << r.failure;
  EXPECT_GT(r.rounds_done, 0u);
  EXPECT_GT(r.inc_aggregated, 0u);  // aggregation happened in the network
}

TEST(Apps, MlaggWithoutIncStillCompletesAtServer) {
  ClickIncService svc(topo::Topology::paperEmulation());
  apps::MlaggConfig cfg;
  cfg.worker_hosts = {svc.topology().findNode("pod0a"),
                      svc.topology().findNode("pod0b")};
  cfg.server_host = svc.topology().findNode("pod2b");
  cfg.rounds = 20;
  cfg.dim = 8;
  cfg.use_mlagg = false;
  cfg.use_sparse = false;
  const auto r = apps::runMlagg(svc, cfg);
  ASSERT_TRUE(r.deployed);
  EXPECT_EQ(r.inc_aggregated, 0u);
  EXPECT_EQ(r.rounds_done, 20u);  // server aggregates everything
}

TEST(Apps, SparseEliminationReducesServerLoad) {
  auto run = [](bool sparse) {
    ClickIncService svc(topo::Topology::paperEmulation());
    apps::MlaggConfig cfg;
    cfg.worker_hosts = {svc.topology().findNode("pod0a"),
                        svc.topology().findNode("pod0b")};
    cfg.server_host = svc.topology().findNode("pod2b");
    cfg.rounds = 30;
    cfg.dim = 16;
    cfg.sparsity = 0.75;
    cfg.use_mlagg = false;
    cfg.use_sparse = sparse;
    return apps::runMlagg(svc, cfg);
  };
  const auto with = run(true);
  const auto without = run(false);
  ASSERT_TRUE(with.deployed) << with.failure;
  ASSERT_TRUE(without.deployed) << without.failure;
  EXPECT_LT(with.server_link_bytes, without.server_link_bytes * 0.8);
}

// --- backend codegen smoke-through-service ---

TEST_F(ServiceFixture, GeneratesTargetCodeForDeployedDevice) {
  const auto r = svc_.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor({"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  const int dev = *r.impact.affected_devices.begin();
  auto& dp = svc_.deviceProgram(dev);
  const auto p4 = backend::generate(backend::Target::kP4_16,
                                    dp.executable(), &dp.parser());
  EXPECT_NE(p4.find("control Ingress"), std::string::npos);
  EXPECT_NE(p4.find("Register"), std::string::npos);
  const auto microc =
      backend::generate(backend::Target::kMicroC, dp.executable(), nullptr);
  EXPECT_NE(microc.find("pif_plugin"), std::string::npos);
  EXPECT_GT(backend::generatedLoc(backend::Target::kP4_16, dp.executable()),
            50);
}

}  // namespace
}  // namespace clickinc::core
