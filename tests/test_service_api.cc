// The tenant-facing submission API: structured errors with the right
// code/stage per failure cause and the request/ticket/commit lifecycle.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "core/service.h"
#include "durable/serialize.h"
#include "modules/templates.h"
#include "place/intradevice.h"
#include "topo/topology.h"
#include "util/strings.h"

namespace clickinc::core {
namespace {

topo::TrafficSpec trafficFor(const ClickIncService& svc,
                             const std::vector<std::string>& srcs,
                             const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) {
    spec.sources.push_back({svc.topology().findNode(s), 10.0});
  }
  spec.dst_host = svc.topology().findNode(dst);
  return spec;
}

SubmitRequest dqaccRequest(const ClickIncService& svc,
                           std::uint64_t depth = 128) {
  return SubmitRequest::fromTemplate("DQAcc",
                                     {{"CacheDepth", depth}, {"CacheLen", 2}},
                                     trafficFor(svc, {"pod0a"}, "pod2b"));
}

// --- error taxonomy -----------------------------------------------------

TEST(ServiceErrors, BadSourceYieldsParseErrorAtCompile) {
  ClickIncService svc(topo::Topology::paperEmulation());
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const auto r = svc.submit(SubmitRequest::fromSource(
      "if hdr.value @@ 3:\n    fwd()\n", hdr, {},
      trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kParseError);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_FALSE(r.error.detail.empty());
  // No resources claimed, no user registered.
  EXPECT_TRUE(svc.deployments().empty());
}

TEST(ServiceErrors, UnknownTemplateYieldsItsOwnCode) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnknownTemplate);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_NE(r.error.detail.find("NoSuchTemplate"), std::string::npos);
}

TEST(ServiceErrors, NonProgrammablePathIsStructurallyInfeasible) {
  // client - plain switch - server: every EC on the path is
  // non-programmable, so no amount of free resources can ever help.
  topo::Topology t;
  topo::Node c;
  c.name = "client";
  c.kind = topo::NodeKind::kHost;
  const int cid = t.addNode(c);
  topo::Node d;
  d.name = "plainswitch";
  d.kind = topo::NodeKind::kSwitch;
  d.programmable = false;
  const int did = t.addNode(d);
  topo::Node s;
  s.name = "server";
  s.kind = topo::NodeKind::kHost;
  const int sid = t.addNode(s);
  t.addLink(cid, did);
  t.addLink(did, sid);

  ClickIncService svc(std::move(t));
  topo::TrafficSpec spec;
  spec.sources = {{cid, 10.0}};
  spec.dst_host = sid;
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}}, spec));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kInfeasible);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_FALSE(r.plan.resource_limited);
}

TEST(ServiceErrors, OccupancyExhaustionYieldsResourceExhausted) {
  // Keep submitting large MLAgg instances until the topology is full: the
  // first failure must be classified as resource exhaustion (the same
  // program placed fine when devices were empty), not as structural
  // infeasibility.
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto req = [&] {
    return SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 100000}, {"Dim", 16}, {"NumWorker", 2}, {"IsConvert", 0}},
        trafficFor(svc, {"pod0a"}, "pod2b"));
  };
  SubmitResult last;
  int placed = 0;
  for (int i = 0; i < 64; ++i) {
    last = svc.submit(req());
    if (!last.ok) break;
    ++placed;
  }
  ASSERT_FALSE(last.ok) << "64 large instances all fit; grow the workload";
  EXPECT_GT(placed, 0);
  EXPECT_EQ(last.error.code, ErrorCode::kResourceExhausted);
  EXPECT_TRUE(last.plan.resource_limited);

  // Removing a tenant frees the resources: the same request fits again.
  const int victim = svc.deployments().begin()->first;
  ASSERT_TRUE(svc.remove(victim).ok);
  const auto retry = svc.submit(req());
  EXPECT_TRUE(retry.ok) << retry.error.message();
}

TEST(ServiceErrors, RemoveUnknownUserIsStructured) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.remove(4242);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnknownUser);
  EXPECT_EQ(r.error.stage, Stage::kRemove);
  EXPECT_TRUE(r.impact.affected_devices.empty());

  // Double-remove: the second call reports the same structured cause.
  const auto ok = svc.submit(dqaccRequest(svc));
  ASSERT_TRUE(ok.ok) << ok.error.message();
  EXPECT_TRUE(svc.remove(ok.user_id).ok);
  const auto again = svc.remove(ok.user_id);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error.code, ErrorCode::kUnknownUser);
}

TEST(ServiceErrors, MessageCarriesStageAndCode) {
  ServiceError e{ErrorCode::kResourceExhausted, Stage::kCommit, "pod full"};
  EXPECT_EQ(e.message(), "[commit] ResourceExhausted: pod full");
  EXPECT_FALSE(e.ok());
  ServiceError none;
  EXPECT_TRUE(none.ok());
  EXPECT_EQ(none.message(), "ok");
}

// --- lifecycle ----------------------------------------------------------

TEST(ServiceLifecycle, SubmitAssignsIdsInCommitOrderSkippingFailures) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto a = svc.submit(dqaccRequest(svc));
  const auto bad = svc.submit(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  const auto b = svc.submit(dqaccRequest(svc));
  ASSERT_TRUE(a.ok);
  ASSERT_FALSE(bad.ok);
  ASSERT_TRUE(b.ok);
  // Failed submissions do not consume ids.
  EXPECT_EQ(b.user_id, a.user_id + 1);
}

TEST(ServiceLifecycle, AsyncTicketJoinsToTheSameResultAsSync) {
  ClickIncService ref(topo::Topology::paperEmulation());
  const auto sync = ref.submit(dqaccRequest(ref));
  ASSERT_TRUE(sync.ok) << sync.error.message();

  ClickIncService svc(topo::Topology::paperEmulation());
  SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc));
  ASSERT_TRUE(ticket.valid());
  ticket.wait();
  EXPECT_EQ(ticket.status(), SubmissionTicket::Status::kReady);
  const auto& r = ticket.get();
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(r.user_id, sync.user_id);
  EXPECT_EQ(r.plan.gain, sync.plan.gain);
  EXPECT_EQ(r.impact.affected_devices, sync.impact.affected_devices);
  // get() is repeatable and copies share the result.
  SubmissionTicket copy = ticket;
  EXPECT_EQ(&copy.get(), &ticket.get());

  EXPECT_EQ(svc.deployments().count(r.user_id), 1u);
}

TEST(ServiceLifecycle, DefaultTicketIsInvalid) {
  SubmissionTicket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_EQ(ticket.status(), SubmissionTicket::Status::kInvalid);
  EXPECT_FALSE(ticket.done());
}

TEST(ServiceLifecycle, ConcurrentAsyncTenantsAllCommit) {
  ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(4);
  std::vector<SubmissionTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submitAsync(dqaccRequest(svc, 64 + 32 * i)));
  }
  std::set<int> users;
  for (auto& t : tickets) {
    const auto& r = t.get();
    ASSERT_TRUE(r.ok) << r.error.message();
    users.insert(r.user_id);
  }
  EXPECT_EQ(users.size(), 4u);  // distinct ids, every tenant deployed
  EXPECT_EQ(svc.deployments().size(), 4u);
}

TEST(ServiceLifecycle, RemoveOfAQueuedSubmissionsIdIsUnknownUser) {
  ClickIncService svc(topo::Topology::paperEmulation());

  // Hold the async worker before it takes the service lock, so the
  // remove() below runs while the submission is still queued.
  std::promise<void> reached, release;
  auto reached_f = reached.get_future();
  auto release_f = release.get_future().share();
  svc.setCompileGate([&reached, release_f]() mutable {
    reached.set_value();
    release_f.wait();
  });

  SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc));
  reached_f.wait();
  svc.setCompileGate(nullptr);

  // Ids are assigned when the worker commits: the queued request has none
  // yet, so the id it will get is unknown to remove().
  const auto rm = svc.remove(1);
  EXPECT_FALSE(rm.ok);
  EXPECT_EQ(rm.error.code, ErrorCode::kUnknownUser);
  EXPECT_EQ(rm.error.stage, Stage::kRemove);

  release.set_value();
  const auto& r = ticket.get();
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(r.user_id, 1);
  EXPECT_EQ(svc.deployments().count(1), 1u);
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

// Occupancy fingerprint of every programmable device, in node order.
std::vector<std::uint64_t> occupancyFingerprints(ClickIncService& svc) {
  std::vector<std::uint64_t> fps;
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable) {
      fps.push_back(place::occupancyFingerprint(svc.occupancy().of(n.id)));
    }
  }
  return fps;
}

// Mixed tenants on paperEmulation with one frontend failure mid-stream.
std::vector<SubmitRequest> orderedBatch(const ClickIncService& svc) {
  std::vector<SubmitRequest> reqs;
  reqs.push_back(dqaccRequest(svc, 64));
  reqs.push_back(dqaccRequest(svc, 256));
  reqs.push_back(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  reqs.push_back(SubmitRequest::fromTemplate(
      "MLAgg",
      {{"NumAgg", 1024}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
      trafficFor(svc, {"pod0a", "pod1a"}, "pod2b")));
  reqs.push_back(dqaccRequest(svc, 128));
  return reqs;
}

TEST(ServiceLifecycle, QueuedTicketsResolveInOrderLikeSequentialSubmits) {
  ClickIncService twin(topo::Topology::paperEmulation());
  std::vector<SubmitResult> want;
  for (auto& req : orderedBatch(twin)) want.push_back(twin.submit(req));

  ClickIncService svc(topo::Topology::paperEmulation());
  // Hold the worker on the first request so the whole batch is queued
  // before any of it runs.
  std::promise<void> reached, release;
  auto reached_f = reached.get_future();
  auto release_f = release.get_future().share();
  bool armed = true;
  svc.setCompileGate([&reached, release_f, &armed]() mutable {
    if (!armed) return;
    armed = false;
    reached.set_value();
    release_f.wait();
  });
  std::vector<SubmissionTicket> tickets;
  for (auto& req : orderedBatch(svc)) {
    tickets.push_back(svc.submitAsync(std::move(req)));
  }
  reached_f.wait();
  for (const auto& t : tickets) EXPECT_FALSE(t.done());
  release.set_value();

  ASSERT_EQ(tickets.size(), want.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    tickets[i].wait();
    // FIFO: once ticket i is ready, every earlier ticket is too.
    for (std::size_t j = 0; j < i; ++j) EXPECT_TRUE(tickets[j].done());
    const auto& r = tickets[i].get();
    EXPECT_EQ(r.ok, want[i].ok) << "request " << i;
    EXPECT_EQ(r.error.code, want[i].error.code) << "request " << i;
    EXPECT_EQ(r.user_id, want[i].user_id) << "request " << i;
    EXPECT_EQ(r.plan.gain, want[i].plan.gain) << "request " << i;
  }
  EXPECT_FALSE(tickets[2].get().ok);  // the mid-stream failure
  EXPECT_EQ(tickets[2].get().error.code, ErrorCode::kUnknownTemplate);
  EXPECT_EQ(occupancyFingerprints(svc), occupancyFingerprints(twin));
  ASSERT_EQ(svc.deployments().size(), twin.deployments().size());
  for (const auto& [user, dep] : twin.deployments()) {
    ASSERT_EQ(svc.deployments().count(user), 1u) << "user " << user;
    EXPECT_EQ(durable::planFingerprint(svc.deployments().at(user).plan),
              durable::planFingerprint(dep.plan))
        << "user " << user;
  }
}

TEST(ServiceLifecycle, WaitForAsyncAndDestructionResolveEveryQueuedTicket) {
  for (const bool destroy : {false, true}) {
    auto svc = std::make_unique<ClickIncService>(
        topo::Topology::paperEmulation());
    std::promise<void> reached, release;
    auto reached_f = reached.get_future();
    auto release_f = release.get_future().share();
    bool armed = true;
    svc->setCompileGate([&reached, release_f, &armed]() mutable {
      if (!armed) return;
      armed = false;
      reached.set_value();
      release_f.wait();
    });
    std::vector<SubmissionTicket> tickets;
    for (auto& req : orderedBatch(*svc)) {
      tickets.push_back(svc->submitAsync(std::move(req)));
    }
    // Release the held worker from another thread once the drain below
    // has had time to start waiting on the queue.
    std::thread releaser([&] {
      reached_f.wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
    if (destroy) {
      svc.reset();
    } else {
      svc->waitForAsync();
    }
    releaser.join();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      EXPECT_TRUE(tickets[i].done()) << "destroy=" << destroy << " i=" << i;
      EXPECT_EQ(tickets[i].get().ok, i != 2) << "destroy=" << destroy;
    }
    if (!destroy) {
      EXPECT_EQ(svc->deployments().size(), tickets.size() - 1);
      // The drained worker was joined; the next request starts a new one.
      const SubmissionTicket more = svc->submitAsync(dqaccRequest(*svc, 32));
      EXPECT_TRUE(more.get().ok) << more.get().error.message();
    }
  }
}

TEST(ServiceLifecycle, SubmitAllFallsBackSequentiallyWithoutPool) {
  ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_EQ(svc.concurrency(), 1);
  std::vector<SubmitRequest> reqs;
  reqs.push_back(dqaccRequest(svc));
  reqs.push_back(dqaccRequest(svc));
  const auto results = svc.submitAll(std::move(reqs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(results[1].user_id, results[0].user_id + 1);
}

TEST(ServiceLifecycle, SubmitProgramPayloadKeepsCallerName) {
  ClickIncService svc(topo::Topology::paperEmulation());
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate("DQAcc", "my_own_name",
                                  {{"CacheDepth", 64}, {"CacheLen", 2}});
  const auto r = svc.submit(SubmitRequest::fromProgram(
      std::move(prog), trafficFor(svc, {"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(svc.deployments().at(r.user_id).prog->name, "my_own_name");
}

}  // namespace
}  // namespace clickinc::core
