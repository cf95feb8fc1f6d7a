// Sustained-churn harness (docs/scale.md): tens of thousands of tenants
// continuously submitting and removing through submitAsync against a
// datacenter-scale fat tree, tracking how placement behaves as occupancy
// fragments — claim spread per tenant, placement failure rate, p50/p99
// submission latency, and the free-ratio distribution across devices.
//
// The driver models tenant lifecycles with seeded distributions: arrivals
// are one submission per cycle through a bounded in-flight submitAsync
// window; every accepted tenant draws an exponential lifetime (mean =
// target_live cycles, so the steady-state live population hovers around
// target_live) and is removed when it expires. Optionally the existing
// emu::FaultInjector is stepped on a fixed cadence so the run doubles as
// a failover soak (tests/test_scale.cc), and full verifier audits run on
// a second cadence — a run "holds" iff every audit is clean and no
// submission ever fails with kVerification.
//
// bench/bench_scale.cc drives this on k=16 (1024 hosts) and records the
// trajectory to BENCH_scale.json.
#pragma once

#include <cstdint>
#include <vector>

#include "core/service.h"
#include "emu/fault.h"
#include "scale/fattree.h"
#include "verify/verifier.h"

namespace clickinc::scale {

struct ChurnParams {
  std::uint64_t seed = 1;
  long cycles = 10000;      // submissions; each also retires when it expires
  int target_live = 256;    // mean tenant lifetime in cycles
  int inflight = 8;         // submitAsync window (1 = effectively sync)
  double cross_pod_fraction = 0.05;  // traffic escaping the pod domain
  int sample_every = 1000;  // cycles between trajectory samples
  int audit_every = 0;      // cycles between full verifier audits (0 = final only)
  int fault_every = 0;      // cycles between FaultInjector steps (0 = off)
  std::uint64_t fault_seed = 7;
  emu::FaultOptions fault_opts;  // spare_hosts etc. for the injector
  // Background compaction cadence (docs/defrag.md): every defrag_every
  // cycles the driver drains the window, runs one defragment(defrag_opts)
  // pass, then probes every migrated tenant end to end — a probe drop is
  // migration-attributable loss and must never happen (make-before-break).
  int defrag_every = 0;     // cycles between defragment() passes (0 = off)
  defrag::DefragOptions defrag_opts;
};

// One point of the tenants-vs-latency-vs-fragmentation trajectory. Taken
// at a quiesced instant (in-flight window drained).
struct ChurnSample {
  long cycle = 0;
  int live = 0;                 // deployed tenants
  long submits = 0;             // cumulative
  long removes = 0;
  long failures = 0;
  double failure_rate = 0;      // failures / reaped since the last sample
  double p50_ms = 0;            // reaped submission wall latency since the
  double p99_ms = 0;            //   last sample (issue -> result ready)
  double claim_spread = 0;      // mean devices claimed per live tenant
  double free_ratio_mean = 1;   // over programmable devices
  double free_ratio_min = 1;
  double free_ratio_stddev = 0;
  long verify_violations = 0;   // cumulative (gate + audits); must stay 0
  double frag_score = 0;        // defrag::scoreFragmentation over live tenants
  long migrations = 0;          // cumulative tenants migrated by defrag passes
};

struct ChurnMetrics {
  std::vector<ChurnSample> samples;  // one per sample_every + a final one
  long submits = 0;
  long removes = 0;
  long failures = 0;            // submissions that did not deploy
  long resource_failures = 0;   //   of which kResourceExhausted
  long recompiles = 0;          // re-places after reactive compaction
  long faults_applied = 0;
  long removed_already_gone = 0;  // expiries that lost to a failover drop
  long audits = 0;
  long verify_violations = 0;   // commit-gate kVerification + audit findings
  long stranded_failures = 0;   // kResourceExhausted diagnosed as stranded
  long defrag_passes = 0;
  long migrations = 0;          // tenants moved to a better placement
  long migration_rollbacks = 0; // swaps undone (failure or verify gate)
  long migration_drops = 0;     // tenants lost mid-migration; must stay 0
  long probe_packets = 0;       // post-migration end-to-end probes
  // Structured DropReason split of probe losses: kUndeployed means the
  // tenant's path carries none of its snippets — the one reason a broken
  // make-before-break swap would produce; must stay 0. Node/link/route
  // drops are fault-domain outcomes of the concurrent injector, not
  // migration loss.
  long probe_drops = 0;         // DropReason::kUndeployed only
  long probe_drops_faulted = 0; // kNodeDown / kLinkDown / kNoRoute
  double p50_ms = 0;            // whole-run submission latency
  double p99_ms = 0;
  double elapsed_ms = 0;
  verify::VerifyReport final_audit;
};

class ChurnDriver {
 public:
  // Borrows the service and the fat tree (both must outlive the driver).
  ChurnDriver(core::ClickIncService* svc, const FatTree* ft,
              ChurnParams params);

  // Runs params.cycles submissions with interleaved expiries; callable
  // once. Returns the collected metrics (also available via metrics()).
  const ChurnMetrics& run();
  const ChurnMetrics& metrics() const { return metrics_; }

 private:
  core::ClickIncService* svc_;
  const FatTree* ft_;
  ChurnParams params_;
  ChurnMetrics metrics_;
};

}  // namespace clickinc::scale
