// Randomized differential fuzz harness for the plan verifier: one seed
// drives a full service scenario — random topology, random template
// tenants, submit/submitAll mix, fault-injector churn, a removal — and the
// verifier must report every real-pipeline state clean (no false
// positives). Then each mutation injector (verify/mutate.h) corrupts a
// snapshot copy and its target invariant must fire (no false negatives).
//
// Shared between the gtest suite (tests/test_verify_fuzz.cc) and the
// standalone fuzz/fuzz_plans.cc driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.h"
#include "topo/topology.h"
#include "verify/mutate.h"

namespace clickinc::verify {

// Scenario building blocks shared with the crash-point recovery fuzzer
// (verify/recovery_fuzz.h): a seeded topology draw and a seeded template
// request over the host set. Deterministic per rng state.
topo::Topology pickScenarioTopology(Rng* rng);
core::SubmitRequest pickScenarioRequest(Rng* rng,
                                        const std::vector<int>& hosts);

struct FuzzOptions {
  int tenants_min = 2;
  int tenants_max = 4;
  int fault_steps = 4;     // seeded fault-injector actions to apply
  bool mutations = true;   // run the mutation (negative) phase
};

struct FuzzOutcome {
  bool ok = true;
  std::string failure;       // first failure, with seed-free context
  int checkpoints = 0;       // clean audits of real pipeline states
  int mutations_fired = 0;   // injected corruptions detected
  int mutations_skipped = 0; // injectors with no eligible site this run
  int fired_by[kNumMutations] = {};    // per-mutation detection counts
  int skipped_by[kNumMutations] = {};  // per-mutation skip counts
  // Fault steps whose batch affected a tenant, and the corruptions
  // injected inside such a batch's audited scope that its scoped audit
  // detected, per mutation.
  int scoped_batches = 0;
  int scoped_fired_by[kNumMutations] = {};
  long checks = 0;           // verifier checks executed across all audits

  // Count of tenants that actually deployed (scenario richness metric).
  int tenants_deployed = 0;
};

// Runs one seeded scenario end to end. Deterministic per seed. After every
// fault step the batch's scoped audit must report the same violations as
// a full audit, and (with `mutations`) every injector that fires inside
// the batch's audited scope must trip its target under that scope.
FuzzOutcome fuzzOnce(std::uint64_t seed, const FuzzOptions& opts = {});

}  // namespace clickinc::verify
