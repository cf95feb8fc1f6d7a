#include "emu/fault.h"

namespace clickinc::emu {

const char* faultActionName(FaultAction::Kind k) {
  switch (k) {
    case FaultAction::Kind::kNone: return "none";
    case FaultAction::Kind::kKillNode: return "kill-node";
    case FaultAction::Kind::kDrainNode: return "drain-node";
    case FaultAction::Kind::kHealNode: return "heal-node";
    case FaultAction::Kind::kKillLink: return "kill-link";
    case FaultAction::Kind::kHealLink: return "heal-link";
  }
  return "?";
}

FaultInjector::FaultInjector(topo::Topology* topo, std::uint64_t seed,
                             Options opts)
    : topo_(topo), rng_(seed), opts_(opts) {}

FaultAction FaultInjector::propose() {
  // Candidates are enumerated in node/link order, so the choice is a pure
  // function of (seed position, health state). Reads go through a const
  // view, which leaves the topology's partition memo alone; link health
  // is read by index from one health snapshot.
  const topo::Topology& topo = *topo_;
  const topo::HealthView health = topo.healthView();
  std::vector<FaultAction> kills, heals;
  int non_up = 0;
  for (int i = 0; i < topo.nodeCount(); ++i) {
    const topo::Health h = health.nodeAt(i);
    if (h != topo::Health::kUp) {
      ++non_up;
      FaultAction a;
      a.kind = FaultAction::Kind::kHealNode;
      a.node = i;
      heals.push_back(a);
      continue;
    }
    if (opts_.spare_hosts && topo.node(i).kind == topo::NodeKind::kHost) {
      continue;
    }
    FaultAction a;
    a.kind = FaultAction::Kind::kKillNode;
    a.node = i;
    kills.push_back(a);
    if (opts_.allow_drain) {
      a.kind = FaultAction::Kind::kDrainNode;
      kills.push_back(a);
    }
  }
  if (opts_.allow_links) {
    const auto& links = topo.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto& l = links[i];
      FaultAction a;
      a.link_a = l.a;
      a.link_b = l.b;
      if (health.linkAt(static_cast<int>(i)) == topo::Health::kDown) {
        ++non_up;
        a.kind = FaultAction::Kind::kHealLink;
        heals.push_back(a);
        continue;
      }
      if (opts_.spare_hosts &&
          (topo.node(l.a).kind == topo::NodeKind::kHost ||
           topo.node(l.b).kind == topo::NodeKind::kHost)) {
        continue;
      }
      a.kind = FaultAction::Kind::kKillLink;
      kills.push_back(a);
    }
  }
  const bool can_kill = !kills.empty() && non_up < opts_.max_down;
  const bool can_heal = !heals.empty();
  if (!can_kill && !can_heal) return FaultAction{};
  bool heal = can_heal;
  if (can_kill && can_heal) heal = rng_.nextDouble() < opts_.heal_bias;
  auto& pool = heal ? heals : kills;
  return pool[static_cast<std::size_t>(rng_.nextBelow(pool.size()))];
}

FaultAction FaultInjector::step() {
  const FaultAction a = propose();
  apply(a);
  return a;
}

void FaultInjector::apply(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::kNone:
      return;
    case FaultAction::Kind::kKillNode:
      topo_->setNodeHealth(a.node, topo::Health::kDown);
      break;
    case FaultAction::Kind::kDrainNode:
      topo_->setNodeHealth(a.node, topo::Health::kDraining);
      break;
    case FaultAction::Kind::kHealNode:
      topo_->setNodeHealth(a.node, topo::Health::kUp);
      break;
    case FaultAction::Kind::kKillLink:
      topo_->setLinkHealth(a.link_a, a.link_b, topo::Health::kDown);
      break;
    case FaultAction::Kind::kHealLink:
      topo_->setLinkHealth(a.link_a, a.link_b, topo::Health::kUp);
      break;
  }
  history_.push_back(a);
}

}  // namespace clickinc::emu
