// failover: a fixed tenant population, admitted synchronously at set-up on
// a k=16 fat tree, then a seeded script of kill / drain / heal events on
// switches and links that carry live placements. Each operation is one
// fault or heal call, timed to its returned FailoverReport: blast radius,
// incremental re-placement, make-before-break swaps and the post-failover
// audit. The frontend and the asynchronous commit path do not run in the
// measured window.
//
// Faults only hit elements with redundancy: aggregation and core switches
// are killed or drained, ToRs only drained (they forward but take no
// placements), and ToR-Agg / Agg-Core links killed. At most kMaxDown
// elements are out at once; the oldest heals first. So every tenant keeps
// a healthy path and none ends kInfeasible.
#include <deque>
#include <memory>

#include "harness.h"
#include "util/strings.h"

namespace perfbench {

namespace {

using namespace clickinc;

constexpr int kFatTreeK = 16;
constexpr int kHostsPerTor = 8;
constexpr int kTenants = 96;  // 192 of the 256 ToR endpoint slots
constexpr int kMaxDown = 2;
constexpr long kMinOps = 1024;  // operations at least; a restart point
constexpr long kRestartEvery = 256;  // events between restart samples
constexpr long kReplayed = 64;       // events each restart replays

struct Stack {
  scale::FatTree ft;
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
};

std::unique_ptr<Stack> buildStack(std::uint64_t seed, Tracer* tracer,
                                  Result* r) {
  auto s = std::make_unique<Stack>();
  scale::FatTreeParams p;
  p.k = kFatTreeK;
  p.hosts_per_tor = kHostsPerTor;
  s->ft = scale::buildFatTree(p);
  s->svc = std::make_unique<core::ClickIncService>(s->ft.topo, seed);
  s->svc->setDomainSharding(true);
  s->svc->attachJournal(&s->sink);
  RequestStream stream(&s->ft, seed);
  for (long i = 0; i < kTenants; ++i) {
    const auto res = tracer != nullptr
                         ? tracedSubmit(*s->svc, stream.next(), i, tracer)
                         : s->svc->submit(stream.next());
    r->check(res.ok, "set-up admission failed: " + res.error.message());
  }
  return s;
}

// One element taken out by the script, healed later.
struct Outage {
  enum class Kind { kNode, kLink } kind = Kind::kNode;
  int a = -1;
  int b = -1;
};

class FaultScript {
 public:
  FaultScript(const scale::FatTree* ft, std::uint64_t seed)
      : ft_(ft), rng_(mix64(seed ^ 0xFA11ULL)) {
    for (const auto& pod : ft->pods) {
      tors_.insert(pod.tors.begin(), pod.tors.end());
    }
  }

  // Applies the next event and returns its report.
  core::FailoverReport step(core::ClickIncService& svc) {
    healed_ = false;
    if (static_cast<int>(down_.size()) >= kMaxDown) return healOldest(svc);
    // A device of a random live plan that is not already out.
    std::vector<int> users;
    for (const auto& [user, dep] : svc.deployments()) {
      if (!planDevices(dep.plan).empty()) users.push_back(user);
    }
    for (int attempt = 0; attempt < 64 && !users.empty(); ++attempt) {
      const int user = users[rng_.nextBelow(users.size())];
      const auto& dep = svc.deployments().at(user);
      const auto devs = planDevices(dep.plan);
      auto it = devs.begin();
      std::advance(it, static_cast<long>(rng_.nextBelow(devs.size())));
      const int dev = *it;
      if (isOut(dev) || svc.topology().nodeHealth(dev) != topo::Health::kUp) {
        continue;
      }
      if (tors_.count(dev) > 0) {
        down_.push_back({Outage::Kind::kNode, dev, -1});
        return svc.drainNode(dev);
      }
      const auto roll = rng_.nextBelow(4);
      if (roll == 0) {
        // The link into the device on the tenant's path.
        const auto path = svc.topology().shortestPathUp(
            dep.traffic.sources.front().host, dep.traffic.dst_host);
        for (std::size_t i = 1; i < path.size(); ++i) {
          if (path[i] != dev) continue;
          const int prev = path[i - 1];
          if (svc.topology().node(prev).kind != topo::NodeKind::kSwitch ||
              isOut(prev)) {
            break;
          }
          down_.push_back({Outage::Kind::kLink, prev, dev});
          return svc.failLink(prev, dev);
        }
      }
      down_.push_back({Outage::Kind::kNode, dev, -1});
      return roll == 1 ? svc.drainNode(dev) : svc.failNode(dev);
    }
    return healOldest(svc);
  }

  // Whether the last step healed an element (a fault otherwise).
  bool healed() const { return healed_; }

 private:
  bool isOut(int node) const {
    for (const auto& o : down_) {
      if (o.a == node || o.b == node) return true;
    }
    return false;
  }

  core::FailoverReport healOldest(core::ClickIncService& svc) {
    healed_ = true;
    const Outage o = down_.front();
    down_.pop_front();
    return o.kind == Outage::Kind::kLink ? svc.healLink(o.a, o.b)
                                         : svc.healNode(o.a);
  }

  const scale::FatTree* ft_;
  Rng rng_;
  std::set<int> tors_;
  std::deque<Outage> down_;
  bool healed_ = false;
};

}  // namespace

Result runFailover(const Args& args) {
  Result r;
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  repeatSetup(&setup_s, [&] {
    stack.reset();
    const double t0 = cpuSeconds();
    stack = buildStack(args.seed, args.trace ? &tracer : nullptr, &r);
    return cpuSecondsSince(t0);
  });
  auto& svc = *stack->svc;
  FaultScript script(&stack->ft, args.seed);

  std::vector<double> event_cpu_ms;
  long touched = 0, tenants = 0, blast = 0, seg_replaced = 0, seg_pinned = 0;
  long on_down = 0, untouched_faults = 0;
  double audit_ms = 0, replace_ms = 0;
  RestartSampler restarts;
  double heap_mb = 0;
  compactJournal(svc, &stack->sink);
  const auto t0 = Clock::now();
  // Whole rounds of kRestartEvery events, each ending at a restart sample.
  while (secondsSince(t0) < args.seconds || r.attempted < kMinOps ||
         r.attempted % kRestartEvery != 0) {
    const double e0 = cpuSeconds();
    const auto rep = script.step(svc);
    const double ms = cpuMsSince(e0);
    event_cpu_ms.push_back(ms);
    ++r.attempted;
    bool infeasible = false;
    for (const auto& t : rep.tenants) {
      seg_replaced += t.segments_replaced;
      seg_pinned += t.segments_pinned;
      if (t.outcome == core::RecoveryOutcome::kInfeasible) infeasible = true;
    }
    if (infeasible) ++r.failed;
    if (!rep.tenants.empty()) {
      ++touched;
    } else if (!script.healed()) {
      ++untouched_faults;  // a fault on a live placement must move it
    }
    tenants += static_cast<long>(rep.tenants.size());
    blast += rep.blast_radius_devices;
    r.check(rep.verify.ok(), "post-failover audit: " + rep.verify.summary());
    if (args.trace) {
      const double a = timedAudit(svc, &r);
      audit_ms += a;
      replace_ms += ms - a;
    }
    // No live plan keeps an instruction on a device that is down.
    for (const auto& [user, dep] : svc.deployments()) {
      (void)user;
      for (int dev : planDevices(dep.plan)) {
        if (svc.topology().nodeHealth(dev) == topo::Health::kDown) ++on_down;
      }
    }
    if (r.attempted % kRestartEvery == 0) {
      restarts.sample(svc, &stack->sink, &r);
      if (r.attempted == kMinOps) heap_mb = heapMb();
    } else if (r.attempted % kRestartEvery == kRestartEvery - kReplayed) {
      restarts.truncate(svc, &stack->sink);
    }
  }
  // The per-event checks and the traced audits are the benchmark's own
  // work: throughput counts only the events' CPU time.
  double events_cpu_ms = 0;
  for (double ms : event_cpu_ms) events_cpu_ms += ms;
  const double window_cpu_s = 1e-3 * events_cpu_ms;
  const long ops = r.attempted;
  r.check(on_down == 0, cat(on_down, " plan placements found on down devices"));
  r.check(untouched_faults == 0,
          cat(untouched_faults, " faults touched no tenant"));

  if (args.trace) {
    const double n = static_cast<double>(ops);
    long devices = 0;
    for (const auto& [user, dep] : svc.deployments()) {
      (void)user;
      devices += static_cast<long>(planDevices(dep.plan).size());
    }
    addAdmissionLayers(&r, tracer);
    r.per_layer.push_back({"spec_kept_ratio", 1.0, "ratio"});
    r.per_layer.push_back({"intra_memo_hit_rate",
                           svc.placementStats().intraMemoHitRate(), "ratio"});
    r.per_layer.push_back(
        {"devices_per_tenant",
         static_cast<double>(devices) /
             static_cast<double>(std::max<std::size_t>(1, svc.deployments().size())),
         "count"});
    r.per_layer.push_back({"audit_ms", audit_ms / n, "ms"});
    r.per_layer.push_back(
        {"tenants_per_event", static_cast<double>(tenants) / n, "count"});
    r.per_layer.push_back(
        {"blast_devices_per_event", static_cast<double>(blast) / n, "count"});
    r.per_layer.push_back({"segments_replaced_per_event",
                           static_cast<double>(seg_replaced) / n, "count"});
    r.per_layer.push_back({"segments_pinned_per_event",
                           static_cast<double>(seg_pinned) / n, "count"});
    r.per_layer.push_back(
        {"replace_ms_per_tenant",
         tenants > 0 ? replace_ms / static_cast<double>(tenants) : 0, "ms"});
    r.per_layer.push_back(
        {"trace_ops_per_cpu_s", n / window_cpu_s, "1/s"});
    if (!args.trace_file.empty() && !tracer.write(args.trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_file.c_str());
    }
  }
  timedAudit(svc, &r);
  if (args.trace) addJournalLayers(&r, restarts.journal);
  // More set-up samples, a window later than the first ones.
  repeatSetup(&setup_s, [&] {
    const double t0 = cpuSeconds();
    const auto extra = buildStack(args.seed, nullptr, &r);
    return cpuSecondsSince(t0);
  });
  addOpMetrics(&r, setup_s, heap_mb, ops, window_cpu_s, event_cpu_ms,
               restarts.seconds);
  std::fprintf(stderr,
               "failover: %ld events in %.2f CPU s, %ld touched a tenant, %ld "
               "tenants re-placed in total, %ld ended infeasible\n",
               ops, window_cpu_s, touched, tenants, r.failed);
  return r;
}

}  // namespace perfbench
