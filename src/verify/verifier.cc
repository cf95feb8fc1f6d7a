#include "verify/verifier.h"

#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "device/validate.h"
#include "util/strings.h"

namespace clickinc::verify {

namespace {

void report(VerifyReport* out, Invariant inv, std::string check, int user,
            int device, int segment, std::string detail) {
  Violation v;
  v.invariant = inv;
  v.check = std::move(check);
  v.user = user;
  v.device = device;
  v.segment = segment;
  v.detail = std::move(detail);
  out->violations.push_back(std::move(v));
}

// Structural soundness of one placement against its program and device
// model — the precondition for re-deriving claims or compiling the
// segment without out-of-range accesses. Mirrors the checks verifyTenant
// reports; callers on the cross-tenant paths skip invalid placements
// silently (the per-tenant pass already named them).
bool placementValid(const ir::IrProgram& prog,
                    const place::IntraPlacement& p,
                    const device::DeviceModel& model) {
  for (int idx : p.instr_idxs) {
    if (idx < 0 || idx >= static_cast<int>(prog.instrs.size())) return false;
  }
  if (model.arch == device::Arch::kPipeline) {
    if (p.stage_of.size() != p.instr_idxs.size()) return false;
    for (int s : p.stage_of) {
      if (s < 0 || s >= model.num_stages) return false;
    }
  }
  return true;
}

// Invokes fn(segment_idx, device, placement) for every non-empty
// placement of the plan (device-resident and bypass alike).
template <typename Fn>
void forEachPlacement(const place::PlacementPlan& plan, Fn&& fn) {
  for (std::size_t ai = 0; ai < plan.assignments.size(); ++ai) {
    const auto& a = plan.assignments[ai];
    for (const auto& [dev, p] : a.on_device) {
      if (!p.instr_idxs.empty()) fn(static_cast<int>(ai), dev, p);
    }
    for (const auto& [dev, p] : a.on_bypass) {
      if (!p.instr_idxs.empty()) fn(static_cast<int>(ai), dev, p);
    }
  }
}

device::ResourceDemand minusDemand(device::ResourceDemand budget,
                                   const device::ResourceDemand& d) {
  budget.salus -= d.salus;
  budget.alus -= d.alus;
  budget.hash_units -= d.hash_units;
  budget.tables -= d.tables;
  budget.gateways -= d.gateways;
  budget.special_fns -= d.special_fns;
  budget.sram_bits -= d.sram_bits;
  budget.tcam_bits -= d.tcam_bits;
  budget.micro_instrs -= d.micro_instrs;
  budget.dsps -= d.dsps;
  budget.luts -= d.luts;
  budget.ffs -= d.ffs;
  return budget;
}

// First differing field between the re-derived free vector and the live
// ledger, for drift diagnostics.
std::string demandDiff(const device::ResourceDemand& expect,
                       const device::ResourceDemand& live) {
  auto diff = [](const char* f, auto e, auto l) {
    return cat(f, ": expected free ", e, ", ledger has ", l);
  };
  if (expect.salus != live.salus) return diff("salus", expect.salus, live.salus);
  if (expect.alus != live.alus) return diff("alus", expect.alus, live.alus);
  if (expect.hash_units != live.hash_units) {
    return diff("hash_units", expect.hash_units, live.hash_units);
  }
  if (expect.tables != live.tables) {
    return diff("tables", expect.tables, live.tables);
  }
  if (expect.gateways != live.gateways) {
    return diff("gateways", expect.gateways, live.gateways);
  }
  if (expect.special_fns != live.special_fns) {
    return diff("special_fns", expect.special_fns, live.special_fns);
  }
  if (expect.sram_bits != live.sram_bits) {
    return diff("sram_bits", expect.sram_bits, live.sram_bits);
  }
  if (expect.tcam_bits != live.tcam_bits) {
    return diff("tcam_bits", expect.tcam_bits, live.tcam_bits);
  }
  if (expect.micro_instrs != live.micro_instrs) {
    return diff("micro_instrs", expect.micro_instrs, live.micro_instrs);
  }
  if (expect.dsps != live.dsps) return diff("dsps", expect.dsps, live.dsps);
  if (expect.luts != live.luts) return diff("luts", expect.luts, live.luts);
  if (expect.ffs != live.ffs) return diff("ffs", expect.ffs, live.ffs);
  return "equal";
}

// --- invariant 4: IR well-formedness ------------------------------------

void checkIrProgram(const TenantView& t, VerifyReport* out) {
  const ir::IrProgram& prog = *t.prog;
  std::unordered_set<std::string> defined;
  for (const auto& f : prog.fields) defined.insert(f.name);

  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    const ir::Instruction& ins = prog.instrs[i];
    const ir::OpcodeInfo& info = ins.info();
    ++out->checks;
    auto where = [&] { return cat("instr #", i, " (", ins.toString(), ")"); };

    if (info.has_dest && ins.dest.isNone()) {
      report(out, Invariant::kIrWellFormed, "missing-dest", t.user_id, -1,
             -1, where() + ": opcode requires a destination");
    }
    const int nsrc = static_cast<int>(ins.srcs.size());
    if (nsrc < info.min_srcs ||
        (info.max_srcs >= 0 && nsrc > info.max_srcs)) {
      report(out, Invariant::kIrWellFormed, "bad-arity", t.user_id, -1, -1,
             cat(where(), ": ", nsrc, " sources, expected [", info.min_srcs,
                 ", ", info.max_srcs, "]"));
    }
    const bool needs_state = info.state != ir::StateAccess::kNone;
    if ((needs_state && ins.state_id < 0) ||
        ins.state_id >= static_cast<int>(prog.states.size())) {
      report(out, Invariant::kIrWellFormed, "bad-state-ref", t.user_id, -1,
             -1, cat(where(), ": state id ", ins.state_id, " out of range [0, ",
                     prog.states.size(), ")"));
    }
    if (ins.pred) {
      if (!(ins.pred->isNamed() || ins.pred->isConst()) ||
          ins.pred->width != 1) {
        report(out, Invariant::kIrWellFormed, "bad-pred", t.user_id, -1, -1,
               where() + ": predicate must be a named or const 1-bit value");
      } else if (ins.pred->isVar() && defined.count(ins.pred->name) == 0) {
        report(out, Invariant::kIrWellFormed, "use-before-def", t.user_id,
               -1, -1, cat(where(), ": predicate ", ins.pred->name,
                           " used before def"));
      }
    }
    for (const auto& s : ins.srcs) {
      if (s.isVar() && defined.count(s.name) == 0) {
        report(out, Invariant::kIrWellFormed, "use-before-def", t.user_id,
               -1, -1, cat(where(), ": ", s.name, " used before def"));
      }
    }
    if (ins.dest.isNamed()) defined.insert(ins.dest.name);
    if (ins.dest2.isNamed()) defined.insert(ins.dest2.name);
  }
}

void checkPlanStructure(const TenantView& t, const topo::Topology& topo,
                        VerifyReport* out) {
  const int node_count = static_cast<int>(topo.nodes().size());
  forEachPlacement(*t.plan, [&](int seg, int dev,
                                const place::IntraPlacement& p) {
    ++out->checks;
    if (dev < 0 || dev >= node_count || !topo.node(dev).programmable) {
      report(out, Invariant::kIrWellFormed, "bad-device", t.user_id, dev,
             seg, "placement targets a nonexistent or non-programmable node");
      return;
    }
    const auto& model = topo.node(dev).model;
    for (int idx : p.instr_idxs) {
      if (idx < 0 || idx >= static_cast<int>(t.prog->instrs.size())) {
        report(out, Invariant::kIrWellFormed, "bad-instr-index", t.user_id,
               dev, seg, cat("instruction index ", idx, " out of range [0, ",
                             t.prog->instrs.size(), ")"));
        return;
      }
    }
    if (model.arch == device::Arch::kPipeline) {
      if (p.stage_of.size() != p.instr_idxs.size()) {
        report(out, Invariant::kIrWellFormed, "bad-stage", t.user_id, dev,
               seg, cat("stage_of carries ", p.stage_of.size(),
                        " entries for ", p.instr_idxs.size(),
                        " instructions"));
        return;
      }
      for (int s : p.stage_of) {
        if (s < 0 || s >= model.num_stages) {
          report(out, Invariant::kIrWellFormed, "bad-stage", t.user_id, dev,
                 seg, cat("stage ", s, " out of range [0, ",
                          model.num_stages, ")"));
          return;
        }
      }
    }
  });
}

// --- invariant 1: replica consistency -----------------------------------

void checkReplicaConsistency(const TenantView& t, VerifyReport* out) {
  for (std::size_t ai = 0; ai < t.plan->assignments.size(); ++ai) {
    const auto& a = t.plan->assignments[ai];
    auto checkMap = [&](const std::map<int, place::IntraPlacement>& m,
                        const char* what) {
      const place::IntraPlacement* ref = nullptr;
      int ref_dev = -1;
      for (const auto& [dev, p] : m) {
        ++out->checks;
        if (ref == nullptr) {
          ref = &p;
          ref_dev = dev;
          continue;
        }
        // Replicas are placed from the same segment instruction list, so
        // the lists must match exactly — stage assignment may differ
        // (occupancies differ per device), instructions never.
        if (p.instr_idxs != ref->instr_idxs) {
          report(out, Invariant::kReplicaConsistency, "replica-divergence",
                 t.user_id, dev, static_cast<int>(ai),
                 cat(what, " replica carries ", p.instr_idxs.size(),
                     " instructions vs ", ref->instr_idxs.size(),
                     " on device ", ref_dev,
                     " (or same count, different indices)"));
        }
      }
    };
    checkMap(a.on_device, "device");
    checkMap(a.on_bypass, "bypass");
  }
}

// --- invariant 4 (cont.): fused execution plans -------------------------

void checkFusedPlans(const TenantView& t, const topo::Topology& topo,
                     const VerifyOptions& opts, VerifyReport* out) {
  const int node_count = static_cast<int>(topo.nodes().size());
  forEachPlacement(*t.plan, [&](int seg, int dev,
                                const place::IntraPlacement& p) {
    if (dev < 0 || dev >= node_count || !topo.node(dev).programmable) return;
    if (!placementValid(*t.prog, p, topo.node(dev).model)) return;
    std::shared_ptr<const ir::ExecPlan> cached;
    ir::ExecPlan local;
    const ir::ExecPlan* plan = nullptr;
    if (opts.plan_cache != nullptr) {
      cached = opts.plan_cache->get(*t.prog, p.instr_idxs, opts.plan_options);
      plan = cached.get();
    } else {
      local = ir::ExecPlan::compile(*t.prog, p.instr_idxs, opts.plan_options);
      plan = &local;
    }
    checkFusedPlan(*plan, t.user_id, dev, seg, out);
  });
}

// --- invariant 2: occupancy soundness -----------------------------------

void checkOccupancy(const std::vector<TenantView>& tenants,
                    const topo::Topology& topo,
                    const place::OccupancyMap& occ,
                    const VerifyOptions& opts, VerifyReport* out) {
  const int node_count = static_cast<int>(topo.nodes().size());
  // Zeroed claim totals for one device, sized like its ledger entry.
  auto emptyClaims = [](const device::DeviceModel& model) {
    place::DeviceOccupancy claims;
    claims.model = &model;
    if (model.arch == device::Arch::kPipeline) {
      claims.free_stage.assign(static_cast<std::size_t>(model.num_stages),
                               {});
    }
    return claims;
  };

  // Re-derive every device's total claims from the tenants' plans with
  // the exact commitPlacement accounting (per-placement state-site dedup,
  // block-rounded storage), in one walk bucketed by device. Placements on
  // nonexistent, non-programmable or out-of-scope devices, and invalid
  // ones, claim nothing here (other checks report them).
  std::vector<place::DeviceOccupancy> claims_of(
      static_cast<std::size_t>(node_count));
  for (const auto& t : tenants) {
    forEachPlacement(*t.plan, [&](int seg, int dev,
                                  const place::IntraPlacement& p) {
      (void)seg;
      if (dev < 0 || dev >= node_count || !inScope(opts.scope_devices, dev)) {
        return;
      }
      const auto& node = topo.node(dev);
      if (!node.programmable || !placementValid(*t.prog, p, node.model)) {
        return;
      }
      ++out->checks;
      auto& claims = claims_of[static_cast<std::size_t>(dev)];
      if (claims.model == nullptr) claims = emptyClaims(node.model);
      const auto c = place::placementClaims(*t.prog, p, node.model);
      if (node.model.arch == device::Arch::kPipeline) {
        for (std::size_t s = 0; s < claims.free_stage.size(); ++s) {
          claims.free_stage[s].add(c.free_stage[s]);
        }
      } else {
        claims.free_whole.add(c.free_whole);
      }
    });
  }

  for (int d = 0; d < node_count; ++d) {
    const auto& node = topo.node(d);
    if (!node.programmable || !inScope(opts.scope_devices, d)) continue;
    const auto& model = node.model;
    const bool pipeline = model.arch == device::Arch::kPipeline;
    // A device no placement touches is held against the bare budget.
    auto& claims = claims_of[static_cast<std::size_t>(d)];
    if (claims.model == nullptr) claims = emptyClaims(model);

    const place::DeviceOccupancy& live = occ.of(d);
    if (pipeline) {
      if (live.free_stage.size() !=
          static_cast<std::size_t>(model.num_stages)) {
        report(out, Invariant::kOccupancySoundness, "occupancy-drift", -1, d,
               -1, cat("ledger carries ", live.free_stage.size(),
                       " stage vectors for a ", model.num_stages,
                       "-stage device"));
        continue;
      }
      for (int s = 0; s < model.num_stages; ++s) {
        ++out->checks;
        const auto budget = device::stageBudget(model, s);
        const auto& claimed = claims.free_stage[static_cast<std::size_t>(s)];
        if (!claimed.fitsWithin(budget)) {
          report(out, Invariant::kOccupancySoundness, "over-claim", -1, d, -1,
                 cat("stage ", s, ": summed claims exceed the stage budget"));
          continue;
        }
        const auto expect = minusDemand(budget, claimed);
        const auto& lv = live.free_stage[static_cast<std::size_t>(s)];
        if (!(expect == lv)) {
          report(out, Invariant::kOccupancySoundness, "occupancy-drift", -1,
                 d, -1, cat("stage ", s, ": ", demandDiff(expect, lv)));
        }
      }
    } else {
      ++out->checks;
      const auto budget = device::deviceBudget(model);
      if (!claims.free_whole.fitsWithin(budget)) {
        report(out, Invariant::kOccupancySoundness, "over-claim", -1, d, -1,
               "summed claims exceed the whole-device budget");
        continue;
      }
      const auto expect = minusDemand(budget, claims.free_whole);
      if (!(expect == live.free_whole)) {
        report(out, Invariant::kOccupancySoundness, "occupancy-drift", -1, d,
               -1, demandDiff(expect, live.free_whole));
      }
    }
  }
}

// --- invariant 3: cross-tenant isolation --------------------------------

void checkIsolation(const std::vector<TenantView>& tenants,
                    const topo::Topology& topo,
                    const place::OccupancyMap& occ,
                    const VerifyOptions& opts, VerifyReport* out) {
  (void)occ;
  // device -> state name -> first-owner user id.
  std::unordered_map<int, std::unordered_map<std::string, int>> owner_of;
  std::set<std::tuple<int, std::string, int>> reported;
  const int node_count = static_cast<int>(topo.nodes().size());
  for (const auto& t : tenants) {
    forEachPlacement(*t.plan, [&](int seg, int dev,
                                  const place::IntraPlacement& p) {
      if (dev < 0 || dev >= node_count || !inScope(opts.scope_devices, dev)) {
        return;
      }
      if (!topo.node(dev).programmable) return;
      for (int idx : p.instr_idxs) {
        if (idx < 0 || idx >= static_cast<int>(t.prog->instrs.size())) {
          continue;
        }
        const auto& ins = t.prog->instrs[static_cast<std::size_t>(idx)];
        if (ins.state_id < 0 ||
            ins.state_id >= static_cast<int>(t.prog->states.size())) {
          continue;
        }
        ++out->checks;
        const std::string& name =
            t.prog->states[static_cast<std::size_t>(ins.state_id)].name;
        auto [it, inserted] = owner_of[dev].try_emplace(name, t.user_id);
        if (!inserted && it->second != t.user_id &&
            reported.emplace(dev, name, t.user_id).second) {
          // The emulator's StateStore instantiates state by name, so a
          // cross-tenant name collision aliases storage between tenants.
          report(out, Invariant::kTenantIsolation, "slot-collision",
                 t.user_id, dev, seg,
                 cat("state '", name, "' is also deployed by user ",
                     it->second, " on this device"));
        }
      }
    });
  }
}

}  // namespace

const char* toString(Invariant inv) {
  switch (inv) {
    case Invariant::kReplicaConsistency: return "ReplicaConsistency";
    case Invariant::kOccupancySoundness: return "OccupancySoundness";
    case Invariant::kTenantIsolation: return "TenantIsolation";
    case Invariant::kIrWellFormed: return "IrWellFormed";
  }
  return "?";
}

std::string Violation::toString() const {
  std::string out = cat("[", verify::toString(invariant), "/", check, "]");
  if (user >= 0) out += cat(" user ", user);
  if (device >= 0) out += cat(" device ", device);
  if (segment >= 0) out += cat(" segment ", segment);
  if (!detail.empty()) out += cat(": ", detail);
  return out;
}

bool VerifyReport::has(Invariant inv) const {
  for (const auto& v : violations) {
    if (v.invariant == inv) return true;
  }
  return false;
}

bool VerifyReport::hasCheck(std::string_view slug) const {
  for (const auto& v : violations) {
    if (v.check == slug) return true;
  }
  return false;
}

std::string VerifyReport::summary() const {
  if (violations.empty()) return "";
  constexpr std::size_t kMaxLines = 8;
  std::string out = cat(violations.size(), " invariant violation",
                        violations.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < violations.size() && i < kMaxLines; ++i) {
    out += cat("; ", violations[i].toString());
  }
  if (violations.size() > kMaxLines) {
    out += cat("; … and ", violations.size() - kMaxLines, " more");
  }
  return out;
}

void checkFusedPlan(const ir::ExecPlan& plan, int user, int device,
                    int segment, VerifyReport* out) {
  for (const auto& r : plan.code()) {
    ++out->checks;
    if (r.nfused < 2 || !r.hasPred() || ir::opRefIsImm(r.pred)) continue;
    const auto slot = static_cast<std::int32_t>(ir::opRefIndex(r.pred));
    if (r.dest == slot || r.dest2 == slot) {
      report(out, Invariant::kIrWellFormed, "pred-clobber", user, device,
             segment,
             cat("fused record: sub-op ",
                 ir::opcodeName(static_cast<ir::Opcode>(r.op_a)),
                 " writes the shared predicate slot ", slot,
                 " consumed by sub-op ",
                 ir::opcodeName(static_cast<ir::Opcode>(r.op_b))));
    }
  }
}

void verifyTenant(const TenantView& tenant, const topo::Topology& topo,
                  const VerifyOptions& opts, VerifyReport* out) {
  if (tenant.prog == nullptr || tenant.plan == nullptr) return;
  if (opts.ir_wellformed) {
    checkIrProgram(tenant, out);
    checkPlanStructure(tenant, topo, out);
  }
  if (opts.replica_consistency) checkReplicaConsistency(tenant, out);
  if (opts.fused_plans) checkFusedPlans(tenant, topo, opts, out);
}

VerifyReport verifyDeployments(const std::vector<TenantView>& tenants,
                               const topo::Topology& topo,
                               const place::OccupancyMap& occ,
                               const VerifyOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  VerifyReport out;
  for (const auto& t : tenants) {
    if (inScope(opts.scope_users, t.user_id)) {
      verifyTenant(t, topo, opts, &out);
    }
  }
  if (opts.occupancy) checkOccupancy(tenants, topo, occ, opts, &out);
  if (opts.isolation) checkIsolation(tenants, topo, occ, opts, &out);
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return out;
}

std::vector<TenantView> Snapshot::views() const {
  std::vector<TenantView> out;
  out.reserve(tenants.size());
  for (const auto& t : tenants) out.push_back({t.user_id, &t.prog, &t.plan});
  return out;
}

VerifyReport Snapshot::verify(VerifyOptions opts) const {
  opts.plan_options = plan_options;
  return verifyDeployments(views(), *topo, occ, opts);
}

}  // namespace clickinc::verify
