#include "verify/fuzz.h"

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/service.h"
#include "device/model.h"
#include "topo/topology.h"
#include "util/crc.h"
#include "util/strings.h"

namespace clickinc::verify {

topo::Topology pickScenarioTopology(Rng* rng) {
  switch (rng->nextBelow(3)) {
    case 0:
      return topo::Topology::paperEmulation();
    case 1:
      return topo::Topology::fatTree(
          4, 1 + static_cast<int>(rng->nextBelow(2)), device::makeTofino(),
          device::makeTrident4(), device::makeTofino2());
    default:
      return topo::Topology::spineLeaf(
          2 + static_cast<int>(rng->nextBelow(2)),
          3 + static_cast<int>(rng->nextBelow(2)), 2, device::makeTofino(),
          device::makeTofino2());
  }
}

core::SubmitRequest pickScenarioRequest(Rng* rng,
                                        const std::vector<int>& hosts) {
  // Distinct source(s) and destination drawn from the host set.
  const int dst = hosts[rng->nextBelow(hosts.size())];
  topo::TrafficSpec traffic;
  traffic.dst_host = dst;
  const int nsrc = 1 + static_cast<int>(rng->nextBelow(2));
  for (int i = 0; i < nsrc && static_cast<int>(traffic.sources.size()) <
                                  static_cast<int>(hosts.size()) - 1;
       ++i) {
    int src = dst;
    while (src == dst) {
      src = hosts[rng->nextBelow(hosts.size())];
    }
    traffic.sources.push_back({src, 1.0 + static_cast<double>(
                                              rng->nextBelow(20))});
  }
  switch (rng->nextBelow(3)) {
    case 0:
      return core::SubmitRequest::fromTemplate(
          "KVS",
          {{"CacheSize", 64 << rng->nextBelow(3)},
           {"ValDim", 4 << rng->nextBelow(2)},
           {"TH", 16 + rng->nextBelow(64)}},
          traffic);
    case 1:
      return core::SubmitRequest::fromTemplate(
          "MLAgg",
          {{"NumAgg", 128 << rng->nextBelow(3)},
           {"Dim", 8 << rng->nextBelow(2)},
           {"NumWorker", 2 + rng->nextBelow(3)},
           {"IsConvert", rng->nextBelow(2)}},
          traffic);
    default:
      return core::SubmitRequest::fromTemplate(
          "DQAcc",
          {{"CacheDepth", 64 << rng->nextBelow(3)},
           {"CacheLen", 2 + rng->nextBelow(3)}},
          traffic);
  }
}

namespace {

// A report's violations as comparable lines, order-insensitive.
std::multiset<std::string> violationSet(const VerifyReport& rep) {
  std::multiset<std::string> out;
  for (const auto& v : rep.violations) out.insert(v.toString());
  return out;
}

// One non-empty placement: user, segment, bypass, instructions, stages.
using Placed =
    std::tuple<int, int, bool, std::vector<int>, std::vector<int>>;

// The placements of a snapshot, per tenant (with their devices) and per
// device.
struct Footprint {
  std::map<int, std::vector<std::pair<int, Placed>>> plan_of;
  std::map<int, std::multiset<Placed>> on_device;
};

Footprint footprint(const Snapshot& snap) {
  Footprint f;
  for (const auto& t : snap.tenants) {
    auto& plan = f.plan_of[t.user_id];
    for (std::size_t ai = 0; ai < t.plan.assignments.size(); ++ai) {
      const auto& a = t.plan.assignments[ai];
      for (const bool bypass : {false, true}) {
        for (const auto& [dev, p] : bypass ? a.on_bypass : a.on_device) {
          if (p.instr_idxs.empty()) continue;
          Placed placed{t.user_id, static_cast<int>(ai), bypass,
                        p.instr_idxs, p.stage_of};
          plan.emplace_back(dev, placed);
          f.on_device[dev].insert(std::move(placed));
        }
      }
    }
  }
  return f;
}

// The first change from `before` to `after` (two snapshots of one
// service) that `scope` leaves unaudited, or "" when it covers them all:
// a tenant whose plan changed or that appeared outside scope_users, or a
// programmable device whose ledger entry or placements changed outside
// scope_devices.
std::string uncoveredChange(const Snapshot& before, const Snapshot& after,
                            const VerifyOptions& scope) {
  const Footprint was = footprint(before);
  const Footprint now = footprint(after);
  for (const auto& [user, plan] : now.plan_of) {
    const auto it = was.plan_of.find(user);
    if ((it == was.plan_of.end() || it->second != plan) &&
        !inScope(scope.scope_users, user)) {
      return cat("user ", user, "'s plan changed outside the audited scope");
    }
  }
  const std::multiset<Placed> none;
  const auto& nodes = after.topo->nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int d = static_cast<int>(i);
    if (!nodes[i].programmable || inScope(scope.scope_devices, d)) continue;
    auto placedOn = [&](const Footprint& f) -> const std::multiset<Placed>& {
      const auto it = f.on_device.find(d);
      return it == f.on_device.end() ? none : it->second;
    };
    const auto& a = before.occ.of(d);
    const auto& b = after.occ.of(d);
    if (a.free_stage != b.free_stage || !(a.free_whole == b.free_whole) ||
        placedOn(was) != placedOn(now)) {
      return cat("device ", d, " changed outside the audited scope");
    }
  }
  return "";
}

// Injects each mutation inside a failover batch's audited scope into a
// copy of `snap`; the scoped audit must trip the target invariant of
// every injector that finds a site.
void injectInScope(const Snapshot& snap, const VerifyOptions& scope,
                   std::uint64_t seed, const std::string& when,
                   FuzzOutcome* out) {
  for (int mi = 0; mi < kNumMutations; ++mi) {
    const auto m = static_cast<Mutation>(mi);
    Snapshot mutated = snap;
    const auto desc = injectMutation(&mutated, m, seed, scope);
    if (!desc.has_value()) continue;
    const VerifyReport rep = mutated.verify(scope);
    out->checks += rep.checks;
    if (!rep.has(targetInvariant(m))) {
      out->ok = false;
      out->failure = cat("false negative in the scoped audit at ", when,
                         ": mutation ", toString(m), " (", *desc,
                         ") did not trip ", toString(targetInvariant(m)));
      return;
    }
    ++out->scoped_fired_by[mi];
  }
}

}  // namespace

FuzzOutcome fuzzOnce(std::uint64_t seed, const FuzzOptions& opts) {
  FuzzOutcome out;
  Rng rng(mix64(seed + 0x5EEDF00DULL));

  core::ClickIncService svc(pickScenarioTopology(&rng), seed);
  if (rng.nextBelow(2) == 1) svc.setConcurrency(2);

  std::vector<int> hosts;
  const auto& nodes = svc.topology().nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == topo::NodeKind::kHost) {
      hosts.push_back(static_cast<int>(i));
    }
  }
  if (hosts.size() < 2) {
    out.ok = false;
    out.failure = "topology has fewer than two hosts";
    return out;
  }

  auto audit = [&](const VerifyReport& rep, std::string when) {
    out.checks += rep.checks;
    if (!rep.ok()) {
      if (out.ok) {
        out.ok = false;
        out.failure = cat("false positive at ", when, ": ", rep.summary());
      }
      return false;
    }
    ++out.checkpoints;
    return true;
  };

  // --- positive phase: real pipeline states must verify clean ----------
  const int tenants =
      opts.tenants_min +
      static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(
          opts.tenants_max - opts.tenants_min + 1)));
  std::vector<core::SubmitRequest> reqs;
  for (int i = 0; i < tenants; ++i) {
    reqs.push_back(pickScenarioRequest(&rng, hosts));
  }

  std::vector<core::SubmitResult> results;
  if (rng.nextBelow(2) == 0) {
    results = svc.submitAll(std::move(reqs));
  } else {
    for (auto& r : reqs) results.push_back(svc.submit(std::move(r)));
  }
  for (const auto& r : results) {
    // Placement failures (exhaustion on small fabrics) are legitimate;
    // a kVerification failure on pipeline output is a false positive.
    if (!r.ok && r.error.code == core::ErrorCode::kVerification) {
      out.ok = false;
      out.failure = cat("false positive at commit: ", r.error.detail);
      return out;
    }
    if (r.ok) ++out.tenants_deployed;
  }
  audit(svc.verifyDeployments(), "post-submit audit");

  // Snapshot at peak deployment for the mutation phase below — the
  // richest tenant/device state of the run, before churn thins it. The
  // verifier never consults element health, so the pre-churn copy stays
  // verifiable after the injector degrades the live topology.
  const Snapshot snap = svc.verifySnapshot();

  // --- fault churn: every failover re-placement must verify clean ------
  // Each batch audits only what it touched. Every plan and device that
  // changed across the batch must lie inside that scope, a full audit of
  // the same state must find exactly the same violations, and corruption
  // injected inside the scope must not slip past the scoped audit.
  svc.armFaultInjector(mix64(seed ^ 0xFA17'1234ULL));
  Snapshot before = svc.verifySnapshot();
  for (int step = 0; step < opts.fault_steps; ++step) {
    const auto report = svc.stepFault();
    const std::string when = cat("fault step ", step);
    audit(report.verify, when);
    const VerifyReport full = svc.verifyDeployments();
    out.checks += full.checks;
    VerifyOptions scope;
    scope.scope_users.emplace();
    for (const auto& t : report.tenants) scope.scope_users->insert(t.user_id);
    scope.scope_devices = report.touched_devices;
    Snapshot batch = svc.verifySnapshot();
    std::string mismatch = uncoveredChange(before, batch, scope);
    if (mismatch.empty() &&
        violationSet(full) != violationSet(report.verify)) {
      mismatch = cat("scoped audit [", report.verify.summary(),
                     "] differs from the full audit [", full.summary(), "]");
    }
    if (!mismatch.empty()) {
      if (out.ok) {
        out.ok = false;
        out.failure = cat(when, ": ", mismatch);
      }
      return out;
    }
    if (out.ok && opts.mutations && !report.tenants.empty()) {
      ++out.scoped_batches;
      injectInScope(batch, scope, seed + static_cast<std::uint64_t>(step),
                    when, &out);
      if (!out.ok) return out;
    }
    before = std::move(batch);
  }


  // --- removal keeps the ledger reconciled -----------------------------
  if (!svc.deployments().empty()) {
    auto it = svc.deployments().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.nextBelow(svc.deployments().size())));
    svc.remove(it->first);
    audit(svc.verifyDeployments(), "post-remove audit");
  }

  if (!out.ok) return out;

  // --- negative phase: injected corruption must be detected ------------
  if (opts.mutations) {
    if (!audit(snap.verify(), "unmutated snapshot")) return out;
    for (int mi = 0; mi < kNumMutations; ++mi) {
      const auto m = static_cast<Mutation>(mi);
      Snapshot mutated = snap;
      const auto desc = injectMutation(&mutated, m, seed);
      if (!desc.has_value()) {
        ++out.mutations_skipped;
        ++out.skipped_by[mi];
        continue;
      }
      const VerifyReport rep = mutated.verify();
      out.checks += rep.checks;
      if (!rep.has(targetInvariant(m))) {
        out.ok = false;
        out.failure =
            cat("false negative: mutation ", toString(m), " (", *desc,
                ") did not trip ", toString(targetInvariant(m)),
                rep.ok() ? " (report clean)"
                         : cat(" (got: ", rep.summary(), ")"));
        return out;
      }
      ++out.mutations_fired;
      ++out.fired_by[mi];
    }
  }
  return out;
}

}  // namespace clickinc::verify
