#include "topo/ec.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::topo {

namespace {

// Colour refinement over flat buffers: a CSR list of live edges built
// once, one reused scratch vector for neighbour colours, and distinct-
// colour counts taken from a sorted copy. The hash sequence is the one
// the partition has always used, so class ids are stable.
std::vector<int> refineClasses(const Topology& topo, const HealthView& hv) {
  const int n = topo.nodeCount();
  const auto un = static_cast<std::size_t>(n);
  // Down links are rare; their endpoint pairs are sorted for lookup while
  // the edge list is built.
  std::vector<std::pair<int, int>> down_pairs;
  const auto& links = topo.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (hv.linkAt(static_cast<int>(i)) == Health::kDown) {
      down_pairs.emplace_back(std::min(links[i].a, links[i].b),
                              std::max(links[i].a, links[i].b));
    }
  }
  std::sort(down_pairs.begin(), down_pairs.end());
  // Live edges in adjacency order: a Down node or link on either side
  // severs the edge, so a switch that lost its uplink is wired
  // differently from one that kept it.
  std::vector<std::size_t> first(un + 1, 0);
  std::vector<int> live;
  live.reserve(2 * links.size());
  for (int i = 0; i < n; ++i) {
    first[static_cast<std::size_t>(i)] = live.size();
    if (hv.nodeAt(i) == Health::kDown) continue;
    for (int j : topo.neighbors(i)) {
      if (hv.nodeAt(j) == Health::kDown) continue;
      const auto key = std::make_pair(std::min(i, j), std::max(i, j));
      if (std::binary_search(down_pairs.begin(), down_pairs.end(), key)) {
        continue;
      }
      live.push_back(j);
    }
  }
  first[un] = live.size();

  std::vector<std::uint64_t> color(un);
  // Initial colors: hosts are unique (they anchor distinct traffic
  // endpoints); devices start from (kind, layer, health, model,
  // bypass-model). Health kUp contributes 0, keeping the all-healthy
  // partition identical to the health-oblivious one.
  for (int i = 0; i < n; ++i) {
    const Node& nd = topo.node(i);
    if (nd.kind == NodeKind::kHost) {
      color[static_cast<std::size_t>(i)] =
          mix64(0x1000 + static_cast<std::uint64_t>(i));
    } else {
      std::uint64_t c = mix64(static_cast<std::uint64_t>(nd.kind) * 131 +
                              static_cast<std::uint64_t>(nd.layer) +
                              static_cast<std::uint64_t>(hv.nodeAt(i)) * 7919);
      const std::string tag =
          nd.model.name + (nd.attached_accel >= 0 ? "+acc" : "");
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(tag.data());
      c ^= crc32(std::span<const std::uint8_t>(bytes, tag.size()));
      color[static_cast<std::size_t>(i)] = c;
    }
  }
  // Sorted distinct colors of `color`, kept current across rounds.
  auto distinctOf = [](const std::vector<std::uint64_t>& c,
                       std::vector<std::uint64_t>* out) {
    out->assign(c.begin(), c.end());
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  };
  std::vector<std::uint64_t> distinct, next_distinct;
  distinctOf(color, &distinct);

  // Refine: new color = hash(old, sorted neighbor colors). Fixpoint in at
  // most n rounds; fat-trees converge in a handful.
  std::vector<std::uint64_t> next(un);
  std::vector<std::uint64_t> nb;  // reused: grows to the largest degree once
  for (int round = 0; round < n; ++round) {
    for (std::size_t i = 0; i < un; ++i) {
      nb.clear();
      for (std::size_t e = first[i]; e < first[i + 1]; ++e) {
        nb.push_back(color[static_cast<std::size_t>(live[e])]);
      }
      std::sort(nb.begin(), nb.end());
      std::uint64_t c = color[i];
      for (std::uint64_t x : nb) c = mix64(c ^ x);
      next[i] = c;
    }
    if (next == color) break;
    // Stabilized once the number of distinct colors stops growing.
    distinctOf(next, &next_distinct);
    const bool changed = distinct.size() != next_distinct.size();
    color.swap(next);
    distinct.swap(next_distinct);
    if (!changed && round > 0) break;
  }
  // Compact to contiguous ids in order of first appearance.
  std::vector<int> id_of_rank(distinct.size(), -1);
  int next_id = 0;
  std::vector<int> ec(un);
  for (std::size_t i = 0; i < un; ++i) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), color[i]) -
        distinct.begin());
    if (id_of_rank[rank] < 0) id_of_rank[rank] = next_id++;
    ec[i] = id_of_rank[rank];
  }
  return ec;
}

// The entries of a health vector that are not Up, in index order: the
// memo's key, under which an empty vector and an all-Up one are equal.
std::vector<std::pair<int, Health>> notUp(const std::vector<Health>& v) {
  std::vector<std::pair<int, Health>> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != Health::kUp) out.emplace_back(static_cast<int>(i), v[i]);
  }
  return out;
}

}  // namespace

std::shared_ptr<const std::vector<int>> Topology::ecPartition(
    const HealthView& health) const {
  auto node = notUp(health.node);
  auto link = notUp(health.link);
  {
    std::lock_guard<std::mutex> lock(ec_memo_.mu);
    if (ec_memo_.ec != nullptr && ec_memo_.node == node &&
        ec_memo_.link == link) {
      return ec_memo_.ec;
    }
  }
  // Computed outside the lock: concurrent misses on the same state do the
  // work twice and store equal partitions.
  auto ec = std::make_shared<const std::vector<int>>(
      refineClasses(*this, health));
  std::lock_guard<std::mutex> lock(ec_memo_.mu);
  ec_memo_.node = std::move(node);
  ec_memo_.link = std::move(link);
  ec_memo_.ec = ec;
  return ec;
}

std::vector<int> equivalenceClasses(const Topology& topo,
                                    const HealthView* health) {
  return *topo.ecPartition(health ? *health : topo.healthView());
}

std::vector<int> EcTree::clientLeaves() const {
  std::vector<int> leaves;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].server_side && nodes[i].children.empty() &&
        static_cast<int>(i) != root) {
      leaves.push_back(static_cast<int>(i));
    }
  }
  return leaves;
}

EcTree buildEcTree(const Topology& topo, const TrafficSpec& spec,
                   const HealthView* health) {
  CLICKINC_CHECK(!spec.sources.empty() && spec.dst_host >= 0,
                 "traffic spec needs sources and a destination");
  const HealthView hv = health ? *health : topo.healthView();
  const auto partition = topo.ecPartition(hv);
  const std::vector<int>& ec = *partition;

  // Programmable path of each source: node ids sans hosts, mapped to EC
  // sequences with consecutive duplicates removed. Paths route around Down
  // elements; Draining devices still forward but are skipped as placement
  // targets, exactly like hosts.
  struct EcPath {
    std::vector<int> ecs;
    double volume;
  };
  std::vector<EcPath> paths;
  PathFinder router(topo, &hv);
  for (const auto& src : spec.sources) {
    const auto raw = router.path(src.host, spec.dst_host);
    if (raw.empty()) {
      if (!topo.shortestPath(src.host, spec.dst_host).empty()) {
        throw UnavailableError(cat("no healthy path from host ", src.host,
                                   " to ", spec.dst_host));
      }
      throw PlacementError(cat("no path from host ", src.host, " to ",
                               spec.dst_host));
    }
    EcPath p;
    p.volume = src.volume;
    bool saw_device = false;
    for (int nid : raw) {
      const Node& nd = topo.node(nid);
      if (nd.kind == NodeKind::kHost) continue;
      saw_device = true;
      if (hv.nodeAt(nid) != Health::kUp) continue;
      const int e = ec[static_cast<std::size_t>(nid)];
      if (p.ecs.empty() || p.ecs.back() != e) p.ecs.push_back(e);
    }
    if (p.ecs.empty()) {
      if (saw_device) {
        throw UnavailableError("every device on the path is draining");
      }
      throw PlacementError("path contains no programmable devices");
    }
    paths.push_back(std::move(p));
  }

  // The server-side suffix common to all paths: longest common suffix of
  // the EC sequences. The root is the first EC of that suffix.
  std::vector<int> suffix = paths[0].ecs;
  for (const auto& p : paths) {
    std::vector<int> common;
    auto a = suffix.rbegin();
    auto b = p.ecs.rbegin();
    while (a != suffix.rend() && b != p.ecs.rend() && *a == *b) {
      common.push_back(*a);
      ++a;
      ++b;
    }
    std::reverse(common.begin(), common.end());
    suffix = std::move(common);
  }
  if (suffix.empty()) {
    throw PlacementError("traffic paths share no common device class");
  }
  const int root_ec = suffix.front();

  // One pass groups devices by class (ascending node id per class) so each
  // EC materializes in O(|EC|) instead of re-scanning the whole topology.
  // Only Up devices qualify as replica targets: a Draining twin must not
  // receive new segments and a Down one is gone.
  std::vector<std::vector<int>> devices_of_ec;
  for (int nid = 0; nid < topo.nodeCount(); ++nid) {
    if (topo.node(nid).kind == NodeKind::kHost) continue;
    if (hv.nodeAt(nid) != Health::kUp) continue;
    const int e = ec[static_cast<std::size_t>(nid)];
    if (e >= static_cast<int>(devices_of_ec.size())) {
      devices_of_ec.resize(static_cast<std::size_t>(e) + 1);
    }
    devices_of_ec[static_cast<std::size_t>(e)].push_back(nid);
  }

  EcTree tree;
  std::map<int, int> node_of_ec;  // ec id -> tree index
  auto getNode = [&](int e) -> int {
    auto it = node_of_ec.find(e);
    if (it != node_of_ec.end()) return it->second;
    EcTreeNode tn;
    tn.ec_id = e;
    if (e < static_cast<int>(devices_of_ec.size())) {
      tn.devices = devices_of_ec[static_cast<std::size_t>(e)];
    }
    CLICKINC_CHECK(!tn.devices.empty(), "empty EC");
    const Node& rep = topo.node(tn.devices.front());
    tn.model = &topo.node(tn.devices.front()).model;
    if (rep.attached_accel >= 0 &&
        hv.nodeAt(rep.attached_accel) == Health::kUp) {
      tn.bypass = &topo.node(rep.attached_accel).model;
    }
    const int idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(std::move(tn));
    node_of_ec[e] = idx;
    return idx;
  };

  tree.root = getNode(root_ec);

  // Client side: for each path, the prefix before root_ec builds
  // child->parent edges toward the root.
  for (const auto& p : paths) {
    std::size_t root_pos = 0;
    while (root_pos < p.ecs.size() && p.ecs[root_pos] != root_ec) ++root_pos;
    CLICKINC_CHECK(root_pos < p.ecs.size(), "root EC missing from path");
    int parent_idx = tree.root;
    // Walk from the root downwards to the source leaf.
    for (std::size_t i = root_pos; i-- > 0;) {
      const int idx = getNode(p.ecs[i]);
      auto& tn = tree.nodes[static_cast<std::size_t>(idx)];
      if (tn.parent == -1 && idx != tree.root) {
        tn.parent = parent_idx;
        tree.nodes[static_cast<std::size_t>(parent_idx)].children.push_back(
            idx);
      }
      parent_idx = idx;
    }
    // Leaf traffic enters at the first EC of the path (or at the root for
    // sources directly under it).
    const int leaf_idx = getNode(p.ecs[0]);
    tree.nodes[static_cast<std::size_t>(leaf_idx)].leaf_traffic += p.volume;
    tree.total_traffic += p.volume;
  }

  // Server side: suffix after the root, shared by all paths.
  int prev = tree.root;
  for (std::size_t i = 1; i < suffix.size(); ++i) {
    const int idx = getNode(suffix[i]);
    auto& tn = tree.nodes[static_cast<std::size_t>(idx)];
    tn.server_side = true;
    tn.parent = prev;
    tree.server_chain.push_back(idx);
    prev = idx;
  }
  return tree;
}

}  // namespace clickinc::topo
