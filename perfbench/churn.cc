// churn: sustained tenant admission on a k=16 fat tree (320 switches,
// 1024 hosts) with per-pod domain sharding and a memory journal, driven
// as a closed loop of submitAsync calls with a window of kWindow. The
// service has no thread pool: each submission runs on the thread
// submitAsync starts for it, so kWindow submissions (plus the loop's own
// thread, which mostly waits) run at once. Tenants live a seeded number of
// cycles and are then removed. Every kRestartEvery admissions the window
// drains and the control plane restarts from its journal: the previous
// sample's checkpoint plus the commit and remove records since
// (RestartSampler).
//
// The live population (about kMeanLife tenants, at most 1.5x that) and
// the traffic (source and destination on different ToRs, at most
// RequestStream::kEndpointsPerTor live endpoints per ToR) keep every ToR
// below exhaustion, so no submission fails: two MLAgg tenants whose state
// sits on one ToR are enough to fill it.
#include <deque>
#include <memory>
#include <queue>

#include "durable/journal.h"
#include "harness.h"
#include "scale/fattree.h"
#include "util/strings.h"

namespace perfbench {

namespace {

using namespace clickinc;

constexpr int kFatTreeK = 16;
constexpr int kHostsPerTor = 8;
constexpr int kWindow = 2;       // submissions in flight, <= nproc
constexpr long kMeanLife = 96;   // cycles; lifetimes uniform in [48, 144]
constexpr long kMinOps = 1024;   // operations at least; a restart point
constexpr long kRestartEvery = 128;  // admissions between restart samples
constexpr long kTracedSyncOps = 300;

// The benchmark's own tally of the live population and its expiries.
struct Population {
  std::set<int> live;
  std::priority_queue<std::pair<long, int>, std::vector<std::pair<long, int>>,
                      std::greater<>>
      expiries;  // (expiry cycle, user)

  void admit(int user, long expiry) {
    live.insert(user);
    expiries.push({expiry, user});
  }

  void retire(core::ClickIncService& svc, RequestStream* stream, long cycle,
              Result* r) {
    while (!expiries.empty() && expiries.top().first <= cycle) {
      const int user = expiries.top().second;
      expiries.pop();
      const auto it = svc.deployments().find(user);
      if (it != svc.deployments().end()) stream->release(it->second.traffic);
      const auto rr = svc.remove(user);
      r->check(rr.ok, cat("remove(", user, ") failed: ", rr.error.message()));
      live.erase(user);
    }
  }
};

struct Stack {
  scale::FatTree ft;
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
  std::unique_ptr<RequestStream> stream;
  Population pop;
  long cycle = 0;
};

// Builds the fabric and the service, then admits the first kMeanLife
// requests of the stream synchronously, so the measured window starts
// from the steady-state population.
std::unique_ptr<Stack> buildStack(std::uint64_t seed, Result* r) {
  auto s = std::make_unique<Stack>();
  scale::FatTreeParams p;
  p.k = kFatTreeK;
  p.hosts_per_tor = kHostsPerTor;
  s->ft = scale::buildFatTree(p);
  s->svc = std::make_unique<core::ClickIncService>(s->ft.topo, seed);
  s->svc->setDomainSharding(true);
  s->svc->attachJournal(&s->sink);
  s->stream = std::make_unique<RequestStream>(&s->ft, seed);
  for (; s->cycle < kMeanLife; ++s->cycle) {
    auto req = s->stream->next();
    const auto traffic = req.traffic;
    const auto res = s->svc->submit(std::move(req));
    r->check(res.ok, "set-up admission failed: " + res.error.message());
    if (!res.ok) {
      s->stream->release(traffic);
      continue;
    }
    s->pop.admit(res.user_id, s->cycle + s->stream->lifetime(kMeanLife));
  }
  return s;
}

// Probe one packet per live tenant along its traffic: it may be dropped
// by the program's own verdict, never for a missing deployment or a dead
// or unroutable path.
void probeTenants(core::ClickIncService& svc, Result* r) {
  long bad = 0;
  std::string first;
  for (const auto& [user, dep] : svc.deployments()) {
    for (const auto& src : dep.traffic.sources) {
      ir::PacketView view;
      view.user_id = user;
      view.setField("hdr._uid", static_cast<std::uint64_t>(user));
      view.setField("hdr.op", 2);  // MLAgg ACK for an idle slot: forwarded
      view.setField("hdr.seq", 7);
      view.setField("hdr.value", 1 + static_cast<std::uint64_t>(user));
      const auto pr = svc.emulator().send(src.host, dep.traffic.dst_host,
                                          std::move(view), 100, 100);
      if (pr.dropped && pr.drop_reason != emu::DropReason::kProgram) {
        if (bad++ == 0) {
          first = cat("tenant ", user, " probe dropped: ",
                      emu::dropReasonName(pr.drop_reason));
        }
      }
    }
  }
  r->check(bad == 0, cat(bad, " probe drops; first: ", first));
}

}  // namespace

Result runChurn(const Args& args) {
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  repeatSetup(&setup_s, [&] {
    stack.reset();  // one stack alive at a time
    const double t0 = cpuSeconds();
    stack = buildStack(args.seed, &r);
    return cpuSecondsSince(t0);
  });
  auto& svc = *stack->svc;
  auto& stream = *stack->stream;
  auto& pop = stack->pop;
  long& cycle = stack->cycle;

  struct InFlight {
    core::SubmissionTicket ticket;
    long cycle = 0;
    topo::TrafficSpec traffic;
  };
  std::deque<InFlight> window;
  // An admission's CPU sample is the process CPU time spent between the
  // previous result and its own: with kWindow in flight the loop returns
  // one result per cycle, so that is one cycle's admission work, its
  // expiries' removals and any re-place included. Submissions overlap, so
  // no single one's CPU time can be told apart from outside.
  std::vector<double> op_cpu_ms;
  double last_result_cpu = 0;
  Tracer tracer;
  long kept = 0;          // committed without a re-place
  long devices = 0;       // summed over admitted tenants
  long admitted = 0;

  const auto stats0 = svc.placementStats();
  auto reapOne = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    const core::SubmitResult& res = f.ticket.get();
    const double now_cpu = cpuSeconds();
    op_cpu_ms.push_back(1e3 * (now_cpu - last_result_cpu));
    last_result_cpu = now_cpu;
    if (args.trace) {
      tracer.record("admit", f.cycle, tracer.now() - op_cpu_ms.back(),
                    tracer.now());
    }
    ++r.attempted;
    if (!res.ok) {
      stream.release(f.traffic);
      if (r.failed++ == 0) {
        std::fprintf(stderr, "perfbench: churn submission failed: %s\n",
                     res.error.message().c_str());
      }
      return;
    }
    if (!res.recompiled) ++kept;
    devices += static_cast<long>(planDevices(res.plan).size());
    ++admitted;
    pop.admit(res.user_id, f.cycle + stream.lifetime(kMeanLife));
  };

  RestartSampler restarts;
  double heap_mb = 0;
  long since_restart = 0;
  compactJournal(svc, &stack->sink);
  const auto t0 = Clock::now();
  const double cpu0 = cpuSeconds();
  last_result_cpu = cpu0;
  // Whole rounds of kRestartEvery admissions: the window ends at a restart
  // sample, with no submission in flight.
  while (secondsSince(t0) < args.seconds || r.attempted < kMinOps ||
         since_restart != 0) {
    pop.retire(svc, &stream, cycle, &r);
    auto req = stream.next();
    auto traffic = req.traffic;
    window.push_back({svc.submitAsync(std::move(req)), cycle,
                      std::move(traffic)});
    ++cycle;
    while (static_cast<int>(window.size()) >= kWindow) reapOne();
    if (++since_restart == kRestartEvery) {
      while (!window.empty()) reapOne();
      restarts.sample(svc, &stack->sink, &r);
      if (heap_mb == 0 && r.attempted >= kMinOps) heap_mb = heapMb();
      last_result_cpu = cpuSeconds();
      since_restart = 0;
    }
  }
  const double window_cpu_s = cpuSecondsSince(cpu0) - restarts.paused_cpu_s;
  const long ops = r.attempted;
  const auto stats = [&] {
    auto s = svc.placementStats();
    s.intra_calls -= stats0.intra_calls;
    s.intra_memo_hits -= stats0.intra_memo_hits;
    return s;
  }();

  if (args.trace) {
    // The same stream continues synchronously, each request timed layer
    // by layer from outside the service around its admission.
    for (long i = 0; i < kTracedSyncOps; ++i, ++cycle) {
      pop.retire(svc, &stream, cycle, &r);
      auto req = stream.next();
      const auto traffic = req.traffic;
      const auto res =
          tracedSubmit(svc, std::move(req), cycle, &tracer);
      ++r.attempted;
      if (!res.ok) {
        stream.release(traffic);
        ++r.failed;
        continue;
      }
      pop.admit(res.user_id, cycle + stream.lifetime(kMeanLife));
    }
    addAdmissionLayers(&r, tracer);
    r.per_layer.push_back(
        {"spec_kept_ratio",
         admitted > 0 ? static_cast<double>(kept) / admitted : 0, "ratio"});
    r.per_layer.push_back(
        {"intra_memo_hit_rate", stats.intraMemoHitRate(), "ratio"});
    r.per_layer.push_back(
        {"devices_per_tenant",
         admitted > 0 ? static_cast<double>(devices) / admitted : 0,
         "count"});
    r.per_layer.push_back(
        {"trace_ops_per_cpu_s", static_cast<double>(ops) / window_cpu_s,
         "1/s"});
    if (!args.trace_file.empty() && !tracer.write(args.trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_file.c_str());
    }
  }

  // Correctness: the service's live set is the benchmark's tally, the
  // full audit is clean, and every live tenant's traffic reaches its
  // program. Each restart sample checks its own plans.
  std::set<int> live;
  for (const auto& [user, dep] : svc.deployments()) {
    (void)dep;
    live.insert(user);
  }
  r.check(live == pop.live,
          cat("service holds ", live.size(), " tenants, tally says ",
              pop.live.size()));
  const double audit_ms = timedAudit(svc, &r);
  probeTenants(svc, &r);
  if (args.trace) {
    r.per_layer.push_back({"audit_ms", audit_ms, "ms"});
    addJournalLayers(&r, restarts.journal);
  }
  // The traced run's synchronous admissions must come back too.
  if (args.trace) restarts.sample(svc, &stack->sink, &r);
  // More set-up samples, a window later than the first ones.
  repeatSetup(&setup_s, [&] {
    const double t0 = cpuSeconds();
    const auto extra = buildStack(args.seed, &r);
    return cpuSecondsSince(t0);
  });
  addOpMetrics(&r, setup_s, heap_mb, ops, window_cpu_s, op_cpu_ms,
               restarts.seconds);
  std::fprintf(stderr,
               "churn: %ld submissions in %.2f CPU s (%ld failed), %zu live, "
               "kept %ld/%ld speculative plans\n",
               ops, window_cpu_s, r.failed, live.size(), kept, admitted);
  return r;
}

}  // namespace perfbench
