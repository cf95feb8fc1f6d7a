#include "verify/mutate.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "place/intradevice.h"
#include "util/crc.h"
#include "util/strings.h"

namespace clickinc::verify {

namespace {

// A non-empty placement site within a snapshot.
struct Site {
  int tenant = 0;      // index into snap->tenants
  int assignment = 0;  // index into that tenant's plan.assignments
  bool bypass = false;
  int device = -1;
};

// Whether a placement of tenant `tenant` (index into snap.tenants) on
// `device` lies inside the audited scope.
bool siteInScope(const Snapshot& snap, const VerifyOptions& scope,
                 int tenant, int device) {
  return inScope(scope.scope_users,
                 snap.tenants[static_cast<std::size_t>(tenant)].user_id) &&
         inScope(scope.scope_devices, device);
}

// The in-scope sites, in tenant / assignment / device order.
std::vector<Site> collectSites(const Snapshot& snap,
                               const VerifyOptions& scope) {
  std::vector<Site> out;
  for (std::size_t t = 0; t < snap.tenants.size(); ++t) {
    const auto& plan = snap.tenants[t].plan;
    for (std::size_t ai = 0; ai < plan.assignments.size(); ++ai) {
      const auto& a = plan.assignments[ai];
      for (const auto& [dev, p] : a.on_device) {
        if (!p.instr_idxs.empty() &&
            siteInScope(snap, scope, static_cast<int>(t), dev)) {
          out.push_back({static_cast<int>(t), static_cast<int>(ai), false,
                         dev});
        }
      }
      for (const auto& [dev, p] : a.on_bypass) {
        if (!p.instr_idxs.empty() &&
            siteInScope(snap, scope, static_cast<int>(t), dev)) {
          out.push_back({static_cast<int>(t), static_cast<int>(ai), true,
                         dev});
        }
      }
    }
  }
  return out;
}

place::IntraPlacement& placementAt(Snapshot* snap, const Site& s) {
  auto& a = snap->tenants[static_cast<std::size_t>(s.tenant)]
                .plan.assignments[static_cast<std::size_t>(s.assignment)];
  return s.bypass ? a.on_bypass.at(s.device) : a.on_device.at(s.device);
}

std::optional<std::string> injectSlotCollision(Snapshot* snap, Rng* rng,
                                               const VerifyOptions& scope) {
  // Per device: which tenants reference which states there.
  struct Ref {
    int tenant;
    int state_id;
  };
  std::map<int, std::vector<Ref>> refs_on;  // device -> refs, deduped
  std::map<int, std::set<std::pair<int, int>>> seen;
  for (const Site& s : collectSites(*snap, {})) {
    const auto& tenant = snap->tenants[static_cast<std::size_t>(s.tenant)];
    const auto& p =
        s.bypass ? tenant.plan.assignments[static_cast<std::size_t>(
                                               s.assignment)]
                       .on_bypass.at(s.device)
                 : tenant.plan.assignments[static_cast<std::size_t>(
                                               s.assignment)]
                       .on_device.at(s.device);
    for (int idx : p.instr_idxs) {
      const auto& ins =
          tenant.prog.instrs[static_cast<std::size_t>(idx)];
      if (ins.state_id < 0 ||
          ins.state_id >= static_cast<int>(tenant.prog.states.size())) {
        continue;
      }
      if (seen[s.device].emplace(s.tenant, ins.state_id).second) {
        refs_on[s.device].push_back({s.tenant, ins.state_id});
      }
    }
  }
  // Candidate = a device where two distinct tenants both hold state.
  struct Candidate {
    int device;
    Ref victim;   // state to rename
    Ref target;   // state whose name it steals
  };
  std::vector<Candidate> cands;
  for (const auto& [dev, refs] : refs_on) {
    for (const Ref& victim : refs) {
      if (!siteInScope(*snap, scope, victim.tenant, dev)) continue;
      for (const Ref& target : refs) {
        if (victim.tenant != target.tenant) {
          cands.push_back({dev, victim, target});
        }
      }
    }
  }
  if (cands.empty()) return std::nullopt;
  const Candidate& c = cands[rng->nextBelow(cands.size())];
  auto& victim_tenant =
      snap->tenants[static_cast<std::size_t>(c.victim.tenant)];
  const auto& target_tenant =
      snap->tenants[static_cast<std::size_t>(c.target.tenant)];
  auto& victim_state =
      victim_tenant.prog.states[static_cast<std::size_t>(c.victim.state_id)];
  const auto& target_name =
      target_tenant.prog.states[static_cast<std::size_t>(c.target.state_id)]
          .name;
  const std::string old_name = victim_state.name;
  victim_state.name = target_name;
  return cat("renamed user ", victim_tenant.user_id, " state '", old_name,
             "' to user ", target_tenant.user_id, " state '", target_name,
             "' colliding on device ", c.device);
}

std::optional<std::string> injectOverClaim(Snapshot* snap, Rng* rng,
                                           const VerifyOptions& scope) {
  // Eligible assignment: duplicating its instruction list actually grows
  // the re-derived claims on at least one of its devices (pure
  // state-touch segments can be idempotent under duplication).
  auto sites = collectSites(*snap, scope);
  if (sites.empty()) return std::nullopt;
  const std::size_t start = rng->nextBelow(sites.size());
  for (std::size_t off = 0; off < sites.size(); ++off) {
    const Site& s = sites[(start + off) % sites.size()];
    const auto& tenant = snap->tenants[static_cast<std::size_t>(s.tenant)];
    const auto& model = snap->topo->node(s.device).model;
    const place::IntraPlacement& p = placementAt(snap, s);
    place::IntraPlacement inflated = p;
    for (int rep = 0; rep < 3; ++rep) {
      inflated.instr_idxs.insert(inflated.instr_idxs.end(),
                                 p.instr_idxs.begin(), p.instr_idxs.end());
      inflated.stage_of.insert(inflated.stage_of.end(), p.stage_of.begin(),
                               p.stage_of.end());
    }
    const auto before = place::placementClaims(tenant.prog, p, model);
    const auto after = place::placementClaims(tenant.prog, inflated, model);
    const bool grew = model.arch == device::Arch::kPipeline
                          ? before.free_stage != after.free_stage
                          : !(before.free_whole == after.free_whole);
    if (!grew) continue;
    // Apply to EVERY replica of the assignment so the replica-consistency
    // check stays clean and only occupancy soundness trips.
    auto& a = snap->tenants[static_cast<std::size_t>(s.tenant)]
                  .plan.assignments[static_cast<std::size_t>(s.assignment)];
    auto inflate = [](place::IntraPlacement& repl) {
      const auto instrs = repl.instr_idxs;
      const auto stages = repl.stage_of;
      for (int rep = 0; rep < 3; ++rep) {
        repl.instr_idxs.insert(repl.instr_idxs.end(), instrs.begin(),
                               instrs.end());
        repl.stage_of.insert(repl.stage_of.end(), stages.begin(),
                             stages.end());
      }
    };
    for (auto& [dev, repl] : a.on_device) inflate(repl);
    for (auto& [dev, repl] : a.on_bypass) inflate(repl);
    return cat("quadruplicated user ", tenant.user_id, " assignment ",
               s.assignment, " claims (", p.instr_idxs.size(), " -> ",
               p.instr_idxs.size() * 4, " instructions per replica)");
  }
  return std::nullopt;
}

std::optional<std::string> injectReplicaDivergence(
    Snapshot* snap, Rng* rng, const VerifyOptions& scope) {
  struct Candidate {
    int tenant;
    int assignment;
    bool bypass;
  };
  std::vector<Candidate> cands;
  for (std::size_t t = 0; t < snap->tenants.size(); ++t) {
    const auto& plan = snap->tenants[t].plan;
    for (std::size_t ai = 0; ai < plan.assignments.size(); ++ai) {
      const auto& a = plan.assignments[ai];
      auto replicated = [&](const std::map<int, place::IntraPlacement>& m) {
        int nonempty = 0;
        for (const auto& [dev, p] : m) {
          nonempty += !p.instr_idxs.empty() &&
                      siteInScope(*snap, scope, static_cast<int>(t), dev);
        }
        return m.size() >= 2 && nonempty >= 1;
      };
      if (replicated(a.on_device)) {
        cands.push_back({static_cast<int>(t), static_cast<int>(ai), false});
      }
      if (replicated(a.on_bypass)) {
        cands.push_back({static_cast<int>(t), static_cast<int>(ai), true});
      }
    }
  }
  if (cands.empty()) return std::nullopt;
  const Candidate& c = cands[rng->nextBelow(cands.size())];
  auto& a = snap->tenants[static_cast<std::size_t>(c.tenant)]
                .plan.assignments[static_cast<std::size_t>(c.assignment)];
  auto& m = c.bypass ? a.on_bypass : a.on_device;
  // Truncate one non-empty in-scope replica; the survivors keep the full
  // list.
  for (auto& [dev, p] : m) {
    if (p.instr_idxs.empty() || !siteInScope(*snap, scope, c.tenant, dev)) {
      continue;
    }
    p.instr_idxs.pop_back();
    if (!p.stage_of.empty()) p.stage_of.pop_back();
    return cat("dropped the tail instruction from user ",
               snap->tenants[static_cast<std::size_t>(c.tenant)].user_id,
               " assignment ", c.assignment, " replica on device ", dev);
  }
  return std::nullopt;
}

std::optional<std::string> injectPredClobber(Snapshot* snap, Rng* rng,
                                             const VerifyOptions& scope) {
  auto sites = collectSites(*snap, scope);
  std::vector<Site> eligible;
  for (const Site& s : sites) {
    if (placementAt(snap, s).instr_idxs.size() >= 2) eligible.push_back(s);
  }
  if (eligible.empty()) return std::nullopt;
  const Site& s = eligible[rng->nextBelow(eligible.size())];
  place::IntraPlacement& p = placementAt(snap, s);
  const std::size_t j = rng->nextBelow(p.instr_idxs.size() - 1);
  const int i1 = p.instr_idxs[j];
  const int i2 = p.instr_idxs[j + 1];
  auto& prog = snap->tenants[static_cast<std::size_t>(s.tenant)].prog;
  prog.addField("hdr.vfz", 1);
  // A: writes the 1-bit field it is itself predicated on. B: same
  // predicate, so the pair is fusable — and under the guard-skip knob the
  // peephole emits a record whose sub-op A clobbers the shared pred slot
  // before sub-op B reads it.
  ir::Instruction a(ir::Opcode::kAssign, ir::Operand::field("hdr.vfz", 1),
                    {ir::Operand::constant(1, 1)});
  a.pred = ir::Operand::field("hdr.vfz", 1);
  ir::Instruction b(ir::Opcode::kAssign, ir::Operand::var("vfz_tmp", 32),
                    {ir::Operand::constant(7, 32)});
  b.pred = ir::Operand::field("hdr.vfz", 1);
  prog.instrs[static_cast<std::size_t>(i1)] = std::move(a);
  prog.instrs[static_cast<std::size_t>(i2)] = std::move(b);
  snap->plan_options.fuse = true;
  snap->plan_options.unsafe_fuse_ignore_pred_guard = true;
  return cat("rewrote user ",
             snap->tenants[static_cast<std::size_t>(s.tenant)].user_id,
             " instructions #", i1, "/#", i2,
             " into a pred-clobbering fusable pair on device ", s.device);
}

}  // namespace

const char* toString(Mutation m) {
  switch (m) {
    case Mutation::kSlotCollision: return "slot-collision";
    case Mutation::kOverClaim: return "over-claim";
    case Mutation::kReplicaDivergence: return "replica-divergence";
    case Mutation::kPredClobber: return "pred-clobber";
  }
  return "?";
}

Invariant targetInvariant(Mutation m) {
  switch (m) {
    case Mutation::kSlotCollision: return Invariant::kTenantIsolation;
    case Mutation::kOverClaim: return Invariant::kOccupancySoundness;
    case Mutation::kReplicaDivergence:
      return Invariant::kReplicaConsistency;
    case Mutation::kPredClobber: return Invariant::kIrWellFormed;
  }
  return Invariant::kIrWellFormed;
}

std::optional<std::string> injectMutation(Snapshot* snap, Mutation m,
                                          std::uint64_t seed,
                                          const VerifyOptions& scope) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(m) + 1) * 0xD1B54A32D192ED03ULL);
  switch (m) {
    case Mutation::kSlotCollision:
      return injectSlotCollision(snap, &rng, scope);
    case Mutation::kOverClaim: return injectOverClaim(snap, &rng, scope);
    case Mutation::kReplicaDivergence:
      return injectReplicaDivergence(snap, &rng, scope);
    case Mutation::kPredClobber: return injectPredClobber(snap, &rng, scope);
  }
  return std::nullopt;
}

}  // namespace clickinc::verify
