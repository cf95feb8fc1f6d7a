#include "harness.h"

#include "durable/serialize.h"
#include "place/blockdag.h"
#include "util/error.h"
#include "util/strings.h"
#include "topo/ec.h"

namespace perfbench {

using namespace clickinc;

std::set<int> planDevices(const place::PlacementPlan& plan) {
  std::set<int> devs;
  for (const auto& a : plan.assignments) {
    for (const auto& [dev, p] : a.on_device) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
    for (const auto& [dev, p] : a.on_bypass) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
  }
  return devs;
}

RequestStream::RequestStream(const scale::FatTree* ft, std::uint64_t seed)
    : ft_(ft), rng_(mix64(seed ^ 0xC4A12ULL)) {
  const auto hpt = static_cast<std::size_t>(ft->params.hosts_per_tor);
  for (const auto& pod : ft->pods) {
    for (std::size_t i = 0; i < pod.hosts.size(); ++i) {
      tor_of_host_[pod.hosts[i]] = pod.tors[i / hpt];  // ToR-major hosts
    }
  }
}

int RequestStream::pickHost(std::size_t pod, int avoid_tor) {
  const auto& p = ft_->pods[pod];
  std::vector<std::size_t> open;
  for (std::size_t t = 0; t < p.tors.size(); ++t) {
    if (p.tors[t] != avoid_tor && load_[p.tors[t]] < kEndpointsPerTor) {
      open.push_back(t);
    }
  }
  if (open.empty()) return -1;
  const auto hpt = static_cast<std::size_t>(ft_->params.hosts_per_tor);
  const std::size_t tor = open[rng_.nextBelow(open.size())];
  return p.hosts[tor * hpt + rng_.nextBelow(hpt)];
}

core::SubmitRequest RequestStream::next() {
  const auto npods = ft_->pods.size();
  const long n = count_++;
  topo::TrafficSpec traffic;
  for (int attempt = 0; traffic.sources.empty(); ++attempt) {
    CLICKINC_CHECK(attempt < 1000, "RequestStream: every ToR is full");
    const auto dst_pod = rng_.nextBelow(npods);
    auto src_pod = dst_pod;
    if (n % kCrossPodEvery == kCrossPodEvery - 1) {
      src_pod = (dst_pod + 1 + rng_.nextBelow(npods - 1)) % npods;
    }
    const int dst = pickHost(dst_pod, -1);
    if (dst < 0) continue;
    const int src = pickHost(src_pod, tor_of_host_.at(dst));
    if (src < 0) continue;
    traffic.dst_host = dst;
    traffic.sources.push_back(
        {src, 1.0 + static_cast<double>(rng_.nextBelow(20))});
  }
  ++load_[tor_of_host_.at(traffic.dst_host)];
  ++load_[tor_of_host_.at(traffic.sources.front().host)];
  if (n % 2 == 0) {
    return core::SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 128},
         {"Dim", 8},
         {"NumWorker", 2 + rng_.nextBelow(2)},
         {"IsConvert", 0}},
        traffic);
  }
  return core::SubmitRequest::fromTemplate(
      "DQAcc",
      {{"CacheDepth", 64u << rng_.nextBelow(2)},
       {"CacheLen", 2 + rng_.nextBelow(2)}},
      traffic);
}

void RequestStream::release(const topo::TrafficSpec& traffic) {
  --load_[tor_of_host_.at(traffic.dst_host)];
  --load_[tor_of_host_.at(traffic.sources.front().host)];
}

long RequestStream::lifetime(long mean) {
  return mean / 2 +
         static_cast<long>(rng_.nextBelow(static_cast<std::uint64_t>(mean) + 1));
}

core::SubmitResult tracedSubmit(core::ClickIncService& svc,
                                core::SubmitRequest req, long id,
                                Tracer* tracer) {
  // Whichever of the two runs second finds the code and the request's
  // data warm, so odd requests admit first: the warm-up bias then cancels
  // in commit_ms = submit - layers. The placement call of a request that
  // was already admitted sees its own claims in the ledger; the other
  // layers do not read the ledger.
  core::SubmitResult result;
  const core::SubmitRequest copy = req;
  const bool submit_first = id % 2 == 1;
  auto admit = [&] {
    tracer->time("submit", id, [&] { result = svc.submit(std::move(req)); });
  };
  if (submit_first) admit();

  const auto& lib = svc.library();
  ir::IrProgram prog;
  tracer->time("frontend", id, [&] {
    prog = copy.kind == core::SubmitRequest::Kind::kTemplate
               ? lib.compileTemplate(copy.template_name, "layer_probe",
                                     copy.params)
               : lib.compileUser(copy.source, "layer_probe", copy.header,
                                 copy.constants);
  });
  place::BlockDag dag;
  tracer->time("blockdag", id, [&] { dag = place::BlockDag::build(prog); });
  topo::EcTree tree;
  tracer->time("ectree", id, [&] {
    tree = topo::buildEcTree(svc.topology(), copy.traffic);
  });
  // Mirror the synchronous submit path: its pool, the request's pod as
  // the adaptive-ratio scope when domain sharding is on, and the service's
  // intra-placement memo.
  place::PlacementOptions opts = copy.options;
  opts.pool = svc.threadPool();
  if (const auto* index = svc.domainIndex(); index != nullptr) {
    const int domain = index->domainOfTraffic(copy.traffic);
    if (domain != scale::kCrossDomain) {
      opts.ratio_devices = &index->domainDevices(domain);
    }
  }
  place::PlacementArena arena(svc.placementArena().memoHandle());
  tracer->time("place", id, [&] {
    const auto plan = place::placeProgram(dag, tree, svc.topology(),
                                          svc.occupancy(), opts, &arena);
    (void)plan;
  });
  if (!submit_first) admit();
  return result;
}

void addAdmissionLayers(Result* r, const Tracer& t) {
  const double frontend = t.meanMs("frontend");
  const double dag = t.meanMs("blockdag");
  const double ec = t.meanMs("ectree");
  const double place = t.meanMs("place");
  r->per_layer.push_back({"frontend_ms", frontend, "ms"});
  r->per_layer.push_back({"blockdag_ms", dag, "ms"});
  r->per_layer.push_back({"ectree_ms", ec, "ms"});
  r->per_layer.push_back({"place_ms", place, "ms"});
  r->per_layer.push_back(
      {"commit_ms", t.meanMs("submit") - (frontend + dag + ec + place),
       "ms"});
}

double timedAudit(core::ClickIncService& svc, Result* r) {
  const double t0 = cpuSeconds();
  const auto rep = svc.verifyDeployments();
  const double ms = cpuMsSince(t0);
  r->check(rep.ok(), "full audit not clean: " + rep.summary());
  return ms;
}

namespace {

std::map<int, std::uint64_t> planFingerprints(core::ClickIncService& svc) {
  std::map<int, std::uint64_t> out;
  for (const auto& [user, dep] : svc.deployments()) {
    out[user] = durable::planFingerprint(dep.plan);
  }
  return out;
}

}  // namespace

void compactJournal(core::ClickIncService& svc, durable::MemJournalSink* sink) {
  const std::uint64_t cut = sink->size();
  svc.checkpoint();
  const auto bytes = sink->readAll();
  std::vector<std::uint8_t> kept(std::begin(durable::kJournalMagic),
                                 std::end(durable::kJournalMagic));
  kept.insert(kept.end(), bytes.begin() + static_cast<long>(cut),
              bytes.end());
  sink->setBytes(std::move(kept));
}

void RestartSampler::sample(core::ClickIncService& svc,
                            durable::MemJournalSink* sink, Result* r) {
  const double t_pause = cpuSeconds();
  const auto before = planFingerprints(svc);
  journal = sink->readAll();
  const double t0 = cpuSeconds();
  const auto rep = svc.recover(sink);
  seconds.push_back(cpuSecondsSince(t0));
  r->check(rep.ok, "recover() failed: " + rep.error.message());
  const auto after = planFingerprints(svc);
  long mismatched = 0;
  for (const auto& [user, fp] : before) {
    const auto it = after.find(user);
    if (it == after.end() || it->second != fp) ++mismatched;
  }
  r->check(after.size() == before.size() && mismatched == 0,
           cat("restart brought back ", after.size(), " tenants (expected ",
               before.size(), "), ", mismatched,
               " missing or with a changed plan fingerprint"));
  compactJournal(svc, sink);
  paused_cpu_s += cpuSecondsSince(t_pause);
}

void RestartSampler::truncate(core::ClickIncService& svc,
                              durable::MemJournalSink* sink) {
  const double t_pause = cpuSeconds();
  compactJournal(svc, sink);
  paused_cpu_s += cpuSecondsSince(t_pause);
}

void addJournalLayers(Result* r, const std::vector<std::uint8_t>& journal) {
  const double t0 = cpuSeconds();
  const auto scan = durable::scanJournal(journal);
  const double scan_ms = cpuMsSince(t0);
  double bytes = 0, records = 0;
  for (const auto& rec : scan.records) {
    if (rec.type == durable::RecordType::kCheckpoint) continue;
    bytes += static_cast<double>(rec.end - rec.offset);
    ++records;
  }
  r->per_layer.push_back(
      {"journal_bytes_per_record", records > 0 ? bytes / records : 0, "B"});
  r->per_layer.push_back({"journal_scan_ms", scan_ms, "ms"});
}

}  // namespace perfbench
