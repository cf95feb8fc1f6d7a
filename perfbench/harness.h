// Helpers shared by the workloads: the fat-tree request stream, devices a
// plan occupies, the traced admission that times each admission layer
// from outside the service, the full audit, journal truncation, and the
// restart sampler with its fingerprint check.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "common.h"
#include "core/service.h"
#include "durable/journal.h"
#include "scale/fattree.h"
#include "util/crc.h"

namespace perfbench {

// Devices carrying at least one instruction of the plan.
std::set<int> planDevices(const clickinc::place::PlacementPlan& plan);

// Runs the request's frontend, block DAG, EC tree and placement calls as
// spans "frontend", "blockdag", "ectree" and "place" of request `id`,
// and a synchronous svc.submit(req) as span "submit" (before the layers
// on odd ids, after them on even ids). The placement call uses an arena
// over the service's own intra-placement memo, as the synchronous submit
// path does. Must not overlap an asynchronous submission: it reads the
// live occupancy ledger.
clickinc::core::SubmitResult tracedSubmit(clickinc::core::ClickIncService& svc,
                                          clickinc::core::SubmitRequest req,
                                          long id, Tracer* tracer);

// The admission-layer metrics of the traced spans: frontend_ms ...
// place_ms, and commit_ms = submit minus the four layers.
void addAdmissionLayers(Result* r, const Tracer& tracer);

// A seeded stream of small tenants on a fat tree, MLAgg and DQAcc in turn
// (the seed draws their parameters), so that the mix of a population does
// not change with the seed. Source and destination hosts sit under
// different ToRs; one request in kCrossPodEvery has them in different
// pods, the others in one. A tenant's state sits on a device
// that sees all its traffic, i.e. on one of its two ToRs, and two MLAgg
// tenants fill a ToR: so no ToR serves more than kEndpointsPerTor live
// endpoints, and every request fits whatever else is live.
class RequestStream {
 public:
  static constexpr int kEndpointsPerTor = 2;
  // About 5%; odd, so cross-pod requests alternate between the templates.
  static constexpr long kCrossPodEvery = 21;

  RequestStream(const clickinc::scale::FatTree* ft, std::uint64_t seed);
  // Takes an endpoint slot on the request's two ToRs until release().
  clickinc::core::SubmitRequest next();
  void release(const clickinc::topo::TrafficSpec& traffic);
  // Uniform in [mean/2, 3*mean/2].
  long lifetime(long mean);

 private:
  // A host under a random ToR of `pod` with a free endpoint slot, other
  // than `avoid_tor`; -1 when the pod has none.
  int pickHost(std::size_t pod, int avoid_tor);

  const clickinc::scale::FatTree* ft_;
  clickinc::Rng rng_;
  long count_ = 0;  // requests made
  std::map<int, int> tor_of_host_;
  std::map<int, int> load_;  // live endpoints per ToR
};

// Times a full verifyDeployments() and checks it is clean; returns CPU ms.
double timedAudit(clickinc::core::ClickIncService& svc, Result* r);

// Log truncation: appends a checkpoint and drops every record before it,
// so the journal's size follows the live state, not the run's length. Call
// with no submission in flight.
void compactJournal(clickinc::core::ClickIncService& svc,
                    clickinc::durable::MemJournalSink* sink);

// Restarts sampled through the measured window, so restart_s sees the
// same host conditions as the operations. The workload truncates the
// journal (compactJournal) before its window. Each sample then times one
// recover() of the journal as it stands, the last checkpoint plus the
// records written since (a fixed number of operations' worth, whatever the
// run's length), checks that exactly the tenants live before come back
// with the same durable::planFingerprint, and truncates again for the next
// sample.
// `paused_cpu_s` is the CPU time sampling took; the workloads leave it out
// of their throughput.
struct RestartSampler {
  std::vector<double> seconds;  // CPU time of each recover()
  double paused_cpu_s = 0;
  std::vector<std::uint8_t> journal;  // what the last sample recovered from

  void sample(clickinc::core::ClickIncService& svc,
              clickinc::durable::MemJournalSink* sink, Result* r);
  // compactJournal() inside the window, counted in paused_cpu_s: a workload
  // whose records are slow to replay truncates some operations before a
  // sample, so each sample replays fewer of them.
  void truncate(clickinc::core::ClickIncService& svc,
                clickinc::durable::MemJournalSink* sink);
};

// The durable::scanJournal time of `journal` (a restart's input: a
// checkpoint and the records since) and journal_bytes_per_record, the mean
// framed size of its records other than the checkpoint.
void addJournalLayers(Result* r, const std::vector<std::uint8_t>& journal);

}  // namespace perfbench
