// Static plan verifier: an independent consistency/isolation checker over
// compiled placement plans, lowered IR, and the live occupancy ledger
// (docs/verification.md).
//
// The commit stage, the failover pipeline, and the fuzz harness all feed
// the same four invariants:
//
//   1. Replica consistency — every device of a replicated EC-node
//      assignment carries the *identical* instruction list (hence the same
//      opcodes touching the same state ids, and no divergent writes across
//      replicas). placeCompact takes the segment's instruction list as
//      input and preserves its order, so replicas may legitimately differ
//      in stage assignment but never in instructions.
//   2. Occupancy soundness — per-device claims, re-derived from the plans
//      with the exact commitPlacement()/siteDemand() accounting, must fit
//      the device model's capacity vectors AND reconcile field-for-field
//      with the live OccupancyMap (budget − claims == free).
//   3. Tenant isolation — no two tenants' deployed segments reference a
//      state object of the same name on the same device. State names are
//      user/program-prefixed by construction, and the emulator's
//      StateStore keys instances by name, so a cross-tenant name collision
//      would alias register/table storage between tenants.
//   4. IR well-formedness — operand arity and state references in range,
//      temporaries defined before use, placements structurally sound
//      (instruction/stage indices in range), and no fused execution record
//      whose first sub-op writes the shared predicate slot (pred-clobber:
//      the reference semantics evaluate B's predicate after A executed).
//
// The verifier deliberately shares no code with the placer's feasibility
// logic beyond the resource-accounting primitives it cross-checks, and it
// never mutates what it inspects. Checks run against borrowed TenantViews
// (the service audits its live maps in place) or against an owning
// Snapshot (the fuzz harness mutates snapshot copies through the
// injectors in verify/mutate.h).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ir/exec_plan.h"
#include "ir/program.h"
#include "place/treedp.h"
#include "topo/topology.h"

namespace clickinc::verify {

enum class Invariant : std::uint8_t {
  kReplicaConsistency = 0,
  kOccupancySoundness,
  kTenantIsolation,
  kIrWellFormed,
};

const char* toString(Invariant inv);

// One violated invariant instance. `check` is a stable slug naming the
// concrete check that fired (see docs/verification.md#invariant-catalog):
//   replica-divergence | over-claim | occupancy-drift | slot-collision |
//   pred-clobber | bad-arity | missing-dest | bad-state-ref |
//   use-before-def | bad-pred | bad-instr-index | bad-stage |
//   bad-device
struct Violation {
  Invariant invariant = Invariant::kIrWellFormed;
  std::string check;
  int user = -1;     // offending tenant, -1 for cross-tenant aggregates
  int device = -1;   // physical node id, -1 when not device-scoped
  int segment = -1;  // assignment index in the tenant's plan, -1 n/a
  std::string detail;

  std::string toString() const;
};

struct VerifyReport {
  std::vector<Violation> violations;
  long checks = 0;  // instructions / sites / records inspected
  double elapsed_ms = 0;

  bool ok() const { return violations.empty(); }
  bool has(Invariant inv) const;
  bool hasCheck(std::string_view slug) const;
  // One line per violation, capped; empty string when clean.
  std::string summary() const;
};

struct VerifyOptions {
  bool replica_consistency = true;
  bool occupancy = true;
  bool isolation = true;
  bool ir_wellformed = true;
  // Also compile each deployed segment's execution plan and scan it for
  // fused pred-clobber records. Costs one ExecPlan compile per segment
  // unless `plan_cache` already holds it (the service passes its shared
  // cache, so commit-stage checks are cache hits).
  bool fused_plans = true;
  ir::ExecPlanOptions plan_options;         // must match the emulator's
  ir::ExecPlanCache* plan_cache = nullptr;  // optional, borrowed
  // Cross-tenant checks (occupancy, isolation) restricted to these
  // devices; nullopt = every programmable device, an empty set = none.
  // Every tenant's placements on an in-scope device are walked, whether or
  // not the tenant is in scope_users.
  std::optional<std::set<int>> scope_devices;
  // Per-tenant checks (replica, IR, fused plans) restricted to these user
  // ids; nullopt = every tenant, an empty set = none.
  std::optional<std::set<int>> scope_users;
};

// Whether `id` lies in a VerifyOptions scope (nullopt = everything).
inline bool inScope(const std::optional<std::set<int>>& scope, int id) {
  return !scope.has_value() || scope->count(id) != 0;
}

// One deployed tenant as the verifier sees it. Borrowed pointers: the
// caller keeps prog/plan alive for the duration of the call.
struct TenantView {
  int user_id = -1;
  const ir::IrProgram* prog = nullptr;
  const place::PlacementPlan* plan = nullptr;
};

// Per-tenant checks only: IR well-formedness, plan structure, replica
// consistency, fused-plan pred-clobber. Appends to *out.
void verifyTenant(const TenantView& tenant, const topo::Topology& topo,
                  const VerifyOptions& opts, VerifyReport* out);

// Scans one compiled execution plan for fused records whose first sub-op
// writes the shared predicate slot. Appends (invariant kIrWellFormed,
// check "pred-clobber") violations to *out. Exposed for the fusion-guard
// regression suites.
void checkFusedPlan(const ir::ExecPlan& plan, int user, int device,
                    int segment, VerifyReport* out);

// Whole audit: per-tenant checks for every tenant in scope_users plus the
// cross-tenant occupancy and isolation checks over the devices in
// scope_devices, against the live ledger.
VerifyReport verifyDeployments(const std::vector<TenantView>& tenants,
                               const topo::Topology& topo,
                               const place::OccupancyMap& occ,
                               const VerifyOptions& opts = {});

// Owning deep copy of a service's verification inputs (the topology is
// borrowed — injectors never mutate it). The fuzz harness takes one
// snapshot per iteration and runs each mutation injector on a fresh copy,
// leaving the service untouched.
struct Snapshot {
  struct Tenant {
    int user_id = -1;
    ir::IrProgram prog;
    place::PlacementPlan plan;
  };

  const topo::Topology* topo = nullptr;
  place::OccupancyMap occ;  // owned ledger copy
  std::vector<Tenant> tenants;
  // Execution-plan options the deployment ran under; injectors may flip
  // the test-only guard-skip knob to manufacture corrupted fused plans.
  ir::ExecPlanOptions plan_options;

  explicit Snapshot(const topo::Topology* t) : topo(t), occ(t) {}

  std::vector<TenantView> views() const;
  // verifyDeployments over this snapshot's tenants/ledger, with
  // plan_options threaded through (scope fields of `opts` are honoured).
  VerifyReport verify(VerifyOptions opts = {}) const;
};

}  // namespace clickinc::verify
