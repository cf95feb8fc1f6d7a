#include "emu/emulator.h"

#include <algorithm>

#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::emu {

const char* dropReasonName(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kProgram: return "program";
    case DropReason::kNodeDown: return "node-down";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kNoRoute: return "no-route";
    case DropReason::kUndeployed: return "undeployed";
  }
  return "?";
}

Emulator::Emulator(const topo::Topology* topo, std::uint64_t seed,
                   ir::ExecPlanCache* plan_cache)
    : topo_(topo),
      rng_(seed),
      plan_cache_(plan_cache != nullptr ? plan_cache : &own_cache_),
      stores_(static_cast<std::size_t>(topo->nodeCount())) {}

void Emulator::deploy(int device_node, DeploymentEntry entry) {
  CLICKINC_CHECK(topo_->node(device_node).programmable,
                 "deploying on a non-programmable node");
  // Draining devices keep serving what they already host (the failover
  // restore path may legitimately re-deploy there); Down ones are gone.
  if (topo_->nodeHealth(device_node) == topo::Health::kDown) {
    throw UnavailableError(cat("deploy on down device ",
                               topo_->node(device_node).name));
  }
  if (entry.plan == nullptr && entry.prog != nullptr) {
    entry.plan = plan_cache_->get(*entry.prog, entry.instr_idxs,
                                  {.fuse = options_.fuse_plans});
  }
  deployments_[device_node].push_back(std::move(entry));
  // Keep snippets ordered by step so earlier program segments run first.
  auto& list = deployments_[device_node];
  std::stable_sort(list.begin(), list.end(),
                   [](const DeploymentEntry& a, const DeploymentEntry& b) {
                     return a.step_from < b.step_from;
                   });
}

void Emulator::undeploy(int device_node, int user_id) {
  auto it = deployments_.find(device_node);
  if (it == deployments_.end()) return;
  auto& list = it->second;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const DeploymentEntry& e) {
                              return e.user_id == user_id;
                            }),
             list.end());
}

void Emulator::undeployDevice(int device_node) {
  deployments_.erase(device_node);
  if (device_node >= 0 &&
      device_node < static_cast<int>(stores_.size())) {
    stores_[static_cast<std::size_t>(device_node)] = ir::StateStore{};
  }
}

void Emulator::clearDeployments() { deployments_.clear(); }

void Emulator::setFailed(int device_node, bool failed) {
  failed_[device_node] = failed;
}

ir::StateStore& Emulator::storeOf(int device_node) {
  CLICKINC_CHECK(device_node >= 0 &&
                     device_node < static_cast<int>(stores_.size()),
                 "state store for a node outside the topology");
  return stores_[static_cast<std::size_t>(device_node)];
}

void Emulator::resetStats() {
  stats_ = EmuStats{};
  link_busy_ns_.clear();
}

std::uint64_t Emulator::deploymentDigest() const {
  std::uint64_t h = 0xE1F0'D161'7A81'E000ULL;
  for (const auto& [node, entries] : deployments_) {  // std::map: ascending
    // Emptied devices keep their map key after undeploy(); a device with
    // no entries must digest the same as one never deployed to.
    if (entries.empty()) continue;
    // Sort a view of the entries so deploy() call order never leaks in.
    std::vector<const DeploymentEntry*> view;
    view.reserve(entries.size());
    for (const auto& e : entries) view.push_back(&e);
    std::sort(view.begin(), view.end(),
              [](const DeploymentEntry* a, const DeploymentEntry* b) {
                if (a->user_id != b->user_id) return a->user_id < b->user_id;
                if (a->step_from != b->step_from) {
                  return a->step_from < b->step_from;
                }
                return a->step_to < b->step_to;
              });
    h = mix64(h ^ static_cast<std::uint64_t>(node));
    for (const DeploymentEntry* e : view) {
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->user_id)));
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->step_from)));
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->step_to)));
      h = mix64(h ^ e->instr_idxs.size());
      for (int idx : e->instr_idxs) {
        h = mix64(h ^ static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(idx)));
      }
    }
  }
  return h;
}

void Emulator::reset() {
  deployments_.clear();
  stores_.clear();
  stores_.resize(static_cast<std::size_t>(topo_->nodeCount()));
  failed_.clear();
  link_busy_ns_.clear();
  stats_ = EmuStats{};
}

double Emulator::maxLinkBusyNs() const {
  double best = 0;
  for (const auto& [k, v] : link_busy_ns_) {
    (void)k;
    best = std::max(best, v);
  }
  return best;
}

double Emulator::linkBusyNs(int a, int b) const {
  auto it = link_busy_ns_.find({std::min(a, b), std::max(a, b)});
  return it == link_busy_ns_.end() ? 0 : it->second;
}

void Emulator::chargeLink(int a, int b, int bytes) {
  const topo::Link* link = topo_->linkBetween(a, b);
  const double gbps = link != nullptr ? link->gbps : 100.0;
  link_busy_ns_[{std::min(a, b), std::max(a, b)}] +=
      static_cast<double>(bytes) * 8.0 / gbps;
}

double Emulator::processAt(int node, ir::PacketView& view) {
  auto it = deployments_.find(node);
  if (it == deployments_.end()) return 0;
  auto failed_it = failed_.find(node);
  if (failed_it != failed_.end() && failed_it->second) return 0;
  return runEntriesOn(node, it->second, view);
}

bool Emulator::entryEligible(const DeploymentEntry& entry,
                             const ir::PacketView& view) {
  if (entry.user_id >= 0 && entry.user_id != view.user_id) return false;
  // Step gate: execute only the expected next segment; skip segments the
  // packet has already passed (replicas) — §6.
  if (view.step >= entry.step_to) return false;
  if (view.step != entry.step_from) return false;
  return view.verdict == ir::Verdict::kNone;  // else already decided
}

std::vector<ir::Instruction> Emulator::materializeSegment(
    const DeploymentEntry& entry) {
  std::vector<ir::Instruction> segment;
  segment.reserve(entry.instr_idxs.size());
  for (int i : entry.instr_idxs) {
    segment.push_back(entry.prog->instrs[static_cast<std::size_t>(i)]);
  }
  return segment;
}

double Emulator::runEntriesOn(int node,
                              const std::vector<DeploymentEntry>& entries,
                              ir::PacketView& view) {
  const auto& model = topo_->node(node).model;
  ir::StateStore& store = storeOf(node);
  double latency = 0;
  for (const auto& entry : entries) {
    if (!entryEligible(entry, view)) continue;

    std::size_t seg_size;
    if (use_reference_ || entry.plan == nullptr) {
      // Reference path: re-decode the segment through the switch
      // interpreter (cross-checked against the compiled path by the
      // emulator equivalence tests).
      const auto segment = materializeSegment(entry);
      ir::Interpreter interp(&store, &rng_);
      interp.run(*entry.prog, std::span<const ir::Instruction>(segment),
                 view);
      seg_size = segment.size();
    } else {
      entry.plan->run(&store, &rng_, view, scratch_);
      seg_size = entry.plan->instrCount();
    }
    view.step = entry.step_to;
    latency += model.base_latency_ns +
               model.per_instr_ns * static_cast<double>(seg_size);
  }
  if (latency == 0 && !entries.empty()) {
    // Device hosts INC but nothing matched: plain pipeline traversal.
    latency = model.base_latency_ns * 0.5;
  }
  return latency;
}

void Emulator::processBatchAt(int node,
                              std::span<ir::PacketView* const> views,
                              std::span<double> latency_out) {
  auto it = deployments_.find(node);
  if (it == deployments_.end()) return;
  auto failed_it = failed_.find(node);
  if (failed_it != failed_.end() && failed_it->second) return;

  // Multiple entries on one device must run packet-major: with shared
  // state, running all packets through entry A before any reaches entry B
  // would leak later packets' writes into earlier packets' reads.
  // Batching is only taken on the (common) single-entry device.
  if (it->second.size() > 1) {
    for (std::size_t k = 0; k < views.size(); ++k) {
      latency_out[k] += runEntriesOn(node, it->second, *views[k]);
    }
    return;
  }

  const auto& model = topo_->node(node).model;
  ir::StateStore& store = storeOf(node);
  auto& added = burst_.batch_added;
  auto& eligible = burst_.batch_eligible;
  auto& eligible_idx = burst_.batch_eligible_idx;
  added.assign(views.size(), 0.0);
  for (const auto& entry : it->second) {
    eligible.clear();
    eligible_idx.clear();
    for (std::size_t k = 0; k < views.size(); ++k) {
      if (!entryEligible(entry, *views[k])) continue;
      eligible.push_back(views[k]);
      eligible_idx.push_back(k);
    }
    if (eligible.empty()) continue;

    std::size_t seg_size;
    if (use_reference_ || entry.plan == nullptr) {
      const auto segment = materializeSegment(entry);
      ir::Interpreter interp(&store, &rng_);
      for (ir::PacketView* view : eligible) {
        interp.run(*entry.prog, std::span<const ir::Instruction>(segment),
                   *view);
      }
      seg_size = segment.size();
    } else {
      entry.plan->runBatch(&store, &rng_,
                           std::span<ir::PacketView* const>(eligible),
                           scratch_);
      seg_size = entry.plan->instrCount();
    }
    const double entry_latency =
        model.base_latency_ns +
        model.per_instr_ns * static_cast<double>(seg_size);
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      eligible[k]->step = entry.step_to;
      added[eligible_idx[k]] += entry_latency;
    }
  }
  for (std::size_t k = 0; k < views.size(); ++k) {
    if (added[k] == 0 && !it->second.empty()) {
      added[k] = model.base_latency_ns * 0.5;
    }
    latency_out[k] += added[k];
  }
}

std::vector<int> Emulator::routeOf(int src, int dst) const {
  return options_.reroute_on_failure ? topo_->shortestPathUp(src, dst)
                                     : topo_->shortestPath(src, dst);
}

bool Emulator::userServedOnPath(const std::vector<int>& path,
                                int user) const {
  // A user with no deployments at all keeps the legacy pass-through
  // semantics (their traffic is plain). The undeployed drop only fires
  // when the user's program exists somewhere but the packet's path misses
  // every device carrying it — silently succeeding there would fake INC
  // results the program never computed.
  bool has_any = false;
  for (const auto& [node, entries] : deployments_) {
    for (const auto& e : entries) {
      if (e.user_id == user) {
        has_any = true;
        break;
      }
    }
    if (has_any) break;
  }
  if (!has_any) return true;
  auto serves = [&](int node) {
    auto it = deployments_.find(node);
    if (it == deployments_.end()) return false;
    for (const auto& e : it->second) {
      if (e.user_id < 0 || e.user_id == user) return true;
    }
    return false;
  };
  for (std::size_t h = 1; h < path.size(); ++h) {
    if (serves(path[h])) return true;
    const int accel = topo_->node(path[h]).attached_accel;
    if (accel >= 0 && serves(accel)) return true;
  }
  return false;
}

void Emulator::countDrop(DropReason reason) {
  ++stats_.packets_dropped;
  if (reason == DropReason::kUndeployed) {
    ++stats_.packets_dropped_undeployed;
  } else if (reason != DropReason::kProgram) {
    ++stats_.packets_dropped_fault;
  }
}

PacketResult Emulator::send(int src, int dst, ir::PacketView view,
                            int wire_bytes, int useful_bytes) {
  PacketResult result;
  ++stats_.packets_sent;

  // Accelerator detour: a bypass card attached to a switch is visited as
  // part of the switch hop (the placement already decided what runs
  // there), so the walk below only follows the physical path.
  view.setField("hdr._len", static_cast<std::uint64_t>(wire_bytes));

  auto finish = [&](int at) {
    result.view = std::move(view);
    result.final_node = at;
    result.wire_bytes_out =
        static_cast<int>(result.view.field("hdr._len"));
    stats_.total_latency_ns += result.latency_ns;
    stats_.total_inc_latency_ns += result.inc_latency_ns;
  };
  auto drop = [&](int at, DropReason reason) {
    result.dropped = true;
    result.drop_reason = reason;
    countDrop(reason);
    finish(at);
    return result;
  };

  const auto path = routeOf(src, dst);
  if (path.empty()) return drop(src, DropReason::kNoRoute);
  // User traffic on a path that carries none of that user's snippets used
  // to default-forward silently; it is a misdelivery, so drop at ingress.
  if (view.user_id >= 0 && !userServedOnPath(path, view.user_id)) {
    return drop(src, DropReason::kUndeployed);
  }

  for (std::size_t h = 0; h + 1 < path.size(); ++h) {
    const int cur = path[h];
    const int next = path[h + 1];
    if (topo_->linkHealth(cur, next) == topo::Health::kDown) {
      return drop(cur, DropReason::kLinkDown);
    }
    const int bytes = static_cast<int>(view.field("hdr._len"));
    chargeLink(cur, next, bytes);
    result.latency_ns += topo_->linkBetween(cur, next) != nullptr
                             ? topo_->linkBetween(cur, next)->latency_ns
                             : 1000.0;
    ++result.hops;
    if (topo_->nodeHealth(next) == topo::Health::kDown) {
      return drop(next, DropReason::kNodeDown);
    }

    // INC processing at the next node (and its bypass card, if any).
    const auto& node = topo_->node(next);
    if (node.programmable || node.kind != topo::NodeKind::kHost) {
      double inc = processAt(next, view);
      if (node.attached_accel >= 0) {
        inc += processAt(node.attached_accel, view);
      }
      result.latency_ns += inc;
      result.inc_latency_ns += inc;
    }

    if (view.verdict == ir::Verdict::kDrop) {
      result.dropped = true;
      result.drop_reason = DropReason::kProgram;
      ++stats_.packets_dropped;
      finish(next);
      return result;
    }
    if (view.verdict == ir::Verdict::kSendBack) {
      // Return to sender: charge the reverse sub-path.
      for (std::size_t back = h + 1; back > 0; --back) {
        const int from = path[back];
        const int to = path[back - 1];
        chargeLink(from, to, static_cast<int>(view.field("hdr._len")));
        result.latency_ns += topo_->linkBetween(from, to) != nullptr
                                 ? topo_->linkBetween(from, to)->latency_ns
                                 : 1000.0;
        ++result.hops;
      }
      result.bounced = true;
      ++stats_.packets_bounced;
      stats_.useful_bytes_delivered +=
          static_cast<std::uint64_t>(useful_bytes);
      finish(src);
      return result;
    }
  }

  result.delivered = true;
  ++stats_.packets_delivered;
  stats_.useful_bytes_delivered += static_cast<std::uint64_t>(useful_bytes);
  finish(dst);
  return result;
}

std::vector<PacketResult> Emulator::sendBurst(
    int src, int dst, std::vector<ir::PacketView> views, int wire_bytes,
    int useful_bytes) {
  const std::size_t n = views.size();
  std::vector<PacketResult> results(n);
  if (n == 0) return results;  // empty bursts skip path resolution
  stats_.packets_sent += n;
  for (auto& view : views) {
    view.setField("hdr._len", static_cast<std::uint64_t>(wire_bytes));
  }

  // Packets leave the in-flight set as they finish. stats_ and link
  // charges are written as the walk goes, hop by hop, so their double
  // sums add in hop-major order — not send()'s packet order.
  std::vector<bool> alive(n, true);
  std::size_t live = n;
  auto finish = [&](std::size_t i, int at) {
    PacketResult& r = results[i];
    r.view = std::move(views[i]);
    r.final_node = at;
    r.wire_bytes_out = static_cast<int>(r.view.field("hdr._len"));
    stats_.total_latency_ns += r.latency_ns;
    stats_.total_inc_latency_ns += r.inc_latency_ns;
    alive[i] = false;
    --live;
  };
  auto drop = [&](std::size_t i, int at, DropReason reason) {
    results[i].dropped = true;
    results[i].drop_reason = reason;
    countDrop(reason);
    finish(i, at);
  };

  const auto path = routeOf(src, dst);
  if (path.empty()) {
    for (std::size_t i = 0; i < n; ++i) drop(i, src, DropReason::kNoRoute);
    return results;
  }
  // Undeployed-user gate, per packet (bursts usually share one user, so
  // memoize the last verdict).
  int cached_user = -2;
  bool cached_served = false;
  for (std::size_t i = 0; i < n; ++i) {
    const int user = views[i].user_id;
    if (user < 0) continue;
    if (user != cached_user) {
      cached_user = user;
      cached_served = userServedOnPath(path, user);
    }
    if (!cached_served) drop(i, src, DropReason::kUndeployed);
  }

  auto& sub = burst_.hop_sub;
  auto& sub_idx = burst_.hop_sub_idx;
  auto& sub_lat = burst_.hop_sub_lat;
  for (std::size_t h = 0; h + 1 < path.size() && live > 0; ++h) {
    const int cur = path[h];
    const int next = path[h + 1];
    if (topo_->linkHealth(cur, next) == topo::Health::kDown) {
      // The link died after the path was resolved (health-oblivious
      // routing): everything still in flight drops before the wire.
      for (std::size_t i = 0; i < n; ++i) {
        if (alive[i]) drop(i, cur, DropReason::kLinkDown);
      }
      break;
    }
    const topo::Link* link = topo_->linkBetween(cur, next);
    const double hop_latency = link != nullptr ? link->latency_ns : 1000.0;

    sub.clear();
    sub_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      chargeLink(cur, next, static_cast<int>(views[i].field("hdr._len")));
      results[i].latency_ns += hop_latency;
      ++results[i].hops;
      sub.push_back(&views[i]);
      sub_idx.push_back(i);
    }

    if (topo_->nodeHealth(next) == topo::Health::kDown) {
      // Charged onto the wire, swallowed by the dead device.
      for (std::size_t i : sub_idx) drop(i, next, DropReason::kNodeDown);
      break;
    }

    const auto& node = topo_->node(next);
    if (node.programmable || node.kind != topo::NodeKind::kHost) {
      sub_lat.assign(sub.size(), 0.0);
      processBatchAt(next, std::span<ir::PacketView* const>(sub),
                     std::span<double>(sub_lat));
      if (node.attached_accel >= 0) {
        processBatchAt(node.attached_accel,
                       std::span<ir::PacketView* const>(sub),
                       std::span<double>(sub_lat));
      }
      for (std::size_t k = 0; k < sub.size(); ++k) {
        results[sub_idx[k]].latency_ns += sub_lat[k];
        results[sub_idx[k]].inc_latency_ns += sub_lat[k];
      }
    }

    for (std::size_t i : sub_idx) {
      const ir::PacketView& view = views[i];
      if (view.verdict == ir::Verdict::kDrop) {
        drop(i, next, DropReason::kProgram);
        continue;
      }
      if (view.verdict == ir::Verdict::kSendBack) {
        for (std::size_t back = h + 1; back > 0; --back) {
          const int from = path[back];
          const int to = path[back - 1];
          chargeLink(from, to, static_cast<int>(view.field("hdr._len")));
          results[i].latency_ns +=
              topo_->linkBetween(from, to) != nullptr
                  ? topo_->linkBetween(from, to)->latency_ns
                  : 1000.0;
          ++results[i].hops;
        }
        results[i].bounced = true;
        ++stats_.packets_bounced;
        stats_.useful_bytes_delivered +=
            static_cast<std::uint64_t>(useful_bytes);
        finish(i, src);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    results[i].delivered = true;
    ++stats_.packets_delivered;
    stats_.useful_bytes_delivered += static_cast<std::uint64_t>(useful_bytes);
    finish(i, dst);
  }
  return results;
}

}  // namespace clickinc::emu
