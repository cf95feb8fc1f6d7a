#include "topo/topology.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace clickinc::topo {

const char* nodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::kHost: return "host";
    case NodeKind::kSwitch: return "switch";
    case NodeKind::kNic: return "nic";
    case NodeKind::kAccel: return "accel";
  }
  return "?";
}

const char* healthName(Health h) {
  switch (h) {
    case Health::kUp: return "up";
    case Health::kDraining: return "draining";
    case Health::kDown: return "down";
  }
  return "?";
}

int Topology::addNode(Node n) {
  ec_memo_.clear();
  n.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  adj_.emplace_back();
  node_health_.push_back(Health::kUp);
  return nodes_.back().id;
}

void Topology::addLink(int a, int b, double gbps, double latency_ns) {
  CLICKINC_CHECK(a >= 0 && a < nodeCount() && b >= 0 && b < nodeCount(),
                 "bad link endpoints");
  ec_memo_.clear();
  links_.push_back({a, b, gbps, latency_ns});
  link_health_.push_back(Health::kUp);
  adj_[static_cast<std::size_t>(a)].push_back(b);
  adj_[static_cast<std::size_t>(b)].push_back(a);
}

Node& Topology::node(int id) {
  ec_memo_.clear();
  return nodes_.at(static_cast<std::size_t>(id));
}

void Topology::PartitionMemo::clear() {
  std::lock_guard<std::mutex> lock(mu);
  node.clear();
  link.clear();
  ec.reset();
}

const Link* Topology::linkBetween(int a, int b) const {
  for (const auto& l : links_) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return &l;
  }
  return nullptr;
}

int Topology::linkIndex(int a, int b) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Health Topology::linkHealth(int a, int b) const {
  const int idx = linkIndex(a, b);
  CLICKINC_CHECK(idx >= 0, cat("no link between ", a, " and ", b));
  return link_health_[static_cast<std::size_t>(idx)];
}

FailureEvent Topology::setNodeHealth(int id, Health h) {
  CLICKINC_CHECK(id >= 0 && id < nodeCount(), "bad node id");
  FailureEvent ev;
  ev.kind = FailureEvent::Kind::kNode;
  ev.node = id;
  ev.from = node_health_[static_cast<std::size_t>(id)];
  ev.to = h;
  if (ev.from == h) return ev;  // no-op: version stays 0, nothing logged
  if (h == Health::kDown) ++down_nodes_;
  if (ev.from == Health::kDown) --down_nodes_;
  node_health_[static_cast<std::size_t>(id)] = h;
  ev.version = ++health_version_;
  events_.push_back(ev);
  return ev;
}

FailureEvent Topology::setLinkHealth(int a, int b, Health h) {
  CLICKINC_CHECK(h != Health::kDraining, "links are up or down");
  const int idx = linkIndex(a, b);
  CLICKINC_CHECK(idx >= 0, cat("no link between ", a, " and ", b));
  FailureEvent ev;
  ev.kind = FailureEvent::Kind::kLink;
  ev.link_a = a;
  ev.link_b = b;
  ev.from = link_health_[static_cast<std::size_t>(idx)];
  ev.to = h;
  if (ev.from == h) return ev;
  if (h == Health::kDown) ++down_links_;
  if (ev.from == Health::kDown) --down_links_;
  link_health_[static_cast<std::size_t>(idx)] = h;
  ev.version = ++health_version_;
  events_.push_back(ev);
  return ev;
}

void Topology::restoreHealth(const std::vector<Health>& node,
                             const std::vector<Health>& link,
                             std::uint64_t version) {
  CLICKINC_CHECK(node.size() == nodes_.size() && link.size() == links_.size(),
                 "restoreHealth: size mismatch with topology");
  node_health_ = node;
  link_health_ = link;
  health_version_ = version;
  events_.clear();
  down_nodes_ = 0;
  down_links_ = 0;
  for (Health h : node_health_) {
    if (h == Health::kDown) ++down_nodes_;
  }
  for (Health h : link_health_) {
    if (h == Health::kDown) ++down_links_;
  }
}

void Topology::resetHealth() {
  std::fill(node_health_.begin(), node_health_.end(), Health::kUp);
  std::fill(link_health_.begin(), link_health_.end(), Health::kUp);
  health_version_ = 0;
  events_.clear();
  down_nodes_ = 0;
  down_links_ = 0;
}

int Topology::findNode(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return -1;
}

std::vector<int> Topology::shortestPath(int src, int dst) const {
  return PathFinder(*this, nullptr).path(src, dst);
}

std::vector<int> Topology::shortestPathUp(int src, int dst,
                                          const HealthView* health) const {
  if (health != nullptr) return PathFinder(*this, health).path(src, dst);
  // Live health: skip copying the view when nothing is Down.
  if (down_nodes_ == 0 && down_links_ == 0) return shortestPath(src, dst);
  const HealthView live = healthView();
  return PathFinder(*this, &live).path(src, dst);
}

PathFinder::PathFinder(const Topology& topo, const HealthView* health)
    : topo_(topo) {
  if (health != nullptr) {
    for (std::size_t i = 0; i < health->node.size(); ++i) {
      if (health->node[i] != Health::kDown) continue;
      if (down_node_.empty()) down_node_.assign(health->node.size(), 0);
      down_node_[i] = 1;
    }
    const auto& links = topo.links();
    for (std::size_t i = 0; i < health->link.size(); ++i) {
      if (health->link[i] != Health::kDown) continue;
      down_links_.emplace_back(std::min(links[i].a, links[i].b),
                               std::max(links[i].a, links[i].b));
    }
    std::sort(down_links_.begin(), down_links_.end());
  }
  prev_.resize(static_cast<std::size_t>(topo.nodeCount()));
}

bool PathFinder::linkUp(int a, int b) const {
  return down_links_.empty() ||
         !std::binary_search(down_links_.begin(), down_links_.end(),
                             std::make_pair(std::min(a, b), std::max(a, b)));
}

std::vector<int> PathFinder::path(int src, int dst) {
  if (!forwards(src) || !forwards(dst)) return {};
  if (src == dst) return {src};
  std::fill(prev_.begin(), prev_.end(), -1);
  queue_.assign(1, src);
  prev_[static_cast<std::size_t>(src)] = src;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int cur = queue_[head];
    for (int nb : topo_.neighbors(cur)) {
      if (prev_[static_cast<std::size_t>(nb)] != -1) continue;
      if (!forwards(nb) || !linkUp(cur, nb)) continue;
      prev_[static_cast<std::size_t>(nb)] = cur;
      if (nb == dst) {
        std::vector<int> path{dst};
        int v = dst;
        while (v != src) {
          v = prev_[static_cast<std::size_t>(v)];
          path.push_back(v);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue_.push_back(nb);
    }
  }
  return {};
}

Topology Topology::chain(const std::vector<device::DeviceModel>& devices) {
  Topology t;
  Node client;
  client.name = "client";
  client.kind = NodeKind::kHost;
  const int c = t.addNode(client);
  int prev = c;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Node sw;
    sw.name = cat("d", i);
    sw.kind = NodeKind::kSwitch;
    sw.layer = 1;
    sw.programmable = true;
    sw.model = devices[i];
    const int id = t.addNode(sw);
    t.addLink(prev, id);
    prev = id;
  }
  Node server;
  server.name = "server";
  server.kind = NodeKind::kHost;
  const int s = t.addNode(server);
  t.addLink(prev, s);
  return t;
}

Topology Topology::fatTree(int k, int hosts_per_tor,
                           const device::DeviceModel& tor_model,
                           const device::DeviceModel& agg_model,
                           const device::DeviceModel& core_model) {
  CLICKINC_CHECK(k >= 2 && k % 2 == 0, "fat-tree k must be even");
  Topology t;
  const int half = k / 2;
  std::vector<int> cores;
  for (int i = 0; i < half * half; ++i) {
    Node core;
    core.name = cat("Core", i);
    core.kind = NodeKind::kSwitch;
    core.layer = 3;
    core.programmable = true;
    core.model = core_model;
    cores.push_back(t.addNode(core));
  }
  for (int pod = 0; pod < k; ++pod) {
    std::vector<int> aggs, tors;
    for (int i = 0; i < half; ++i) {
      Node agg;
      agg.name = cat("Agg", pod * half + i);
      agg.kind = NodeKind::kSwitch;
      agg.layer = 2;
      agg.pod = pod;
      agg.programmable = true;
      agg.model = agg_model;
      aggs.push_back(t.addNode(agg));
    }
    for (int i = 0; i < half; ++i) {
      Node tor;
      tor.name = cat("ToR", pod * half + i);
      tor.kind = NodeKind::kSwitch;
      tor.layer = 1;
      tor.pod = pod;
      tor.programmable = true;
      tor.model = tor_model;
      tors.push_back(t.addNode(tor));
    }
    for (int a : aggs) {
      for (int to : tors) t.addLink(a, to);
    }
    // Device-equal wiring: agg i connects to cores [i*half, (i+1)*half).
    for (int i = 0; i < half; ++i) {
      for (int j = 0; j < half; ++j) {
        t.addLink(aggs[static_cast<std::size_t>(i)],
                  cores[static_cast<std::size_t>(i * half + j)]);
      }
    }
    for (int i = 0; i < half; ++i) {
      for (int h = 0; h < hosts_per_tor; ++h) {
        Node host;
        host.name = cat("pod", pod, "h", i * hosts_per_tor + h);
        host.kind = NodeKind::kHost;
        host.pod = pod;
        const int hid = t.addNode(host);
        t.addLink(tors[static_cast<std::size_t>(i)], hid);
      }
    }
  }
  return t;
}

Topology Topology::spineLeaf(int spines, int leaves, int hosts_per_leaf,
                             const device::DeviceModel& leaf_model,
                             const device::DeviceModel& spine_model) {
  Topology t;
  std::vector<int> spine_ids, leaf_ids;
  for (int i = 0; i < spines; ++i) {
    Node sp;
    sp.name = cat("Spine", i);
    sp.kind = NodeKind::kSwitch;
    sp.layer = 2;
    sp.programmable = true;
    sp.model = spine_model;
    spine_ids.push_back(t.addNode(sp));
  }
  for (int i = 0; i < leaves; ++i) {
    Node lf;
    lf.name = cat("Leaf", i);
    lf.kind = NodeKind::kSwitch;
    lf.layer = 1;
    lf.pod = i;
    lf.programmable = true;
    lf.model = leaf_model;
    const int lid = t.addNode(lf);
    leaf_ids.push_back(lid);
    for (int s : spine_ids) t.addLink(lid, s);
    for (int h = 0; h < hosts_per_leaf; ++h) {
      Node host;
      host.name = cat("leaf", i, "h", h);
      host.kind = NodeKind::kHost;
      host.pod = i;
      const int hid = t.addNode(host);
      t.addLink(lid, hid);
    }
  }
  return t;
}

Topology Topology::paperEmulation() {
  Topology t;
  const auto tofino = device::makeTofino();
  const auto tofino2 = device::makeTofino2();
  const auto td4 = device::makeTrident4();
  const auto nfp = device::makeNfp();
  const auto fpga = device::makeFpga();
  const auto fpga_nic = device::makeFpgaNic();

  // Cores: 2x Tofino2.
  std::vector<int> cores;
  for (int i = 0; i < 2; ++i) {
    Node core;
    core.name = cat("Core", i);
    core.kind = NodeKind::kSwitch;
    core.layer = 3;
    core.programmable = true;
    core.model = tofino2;
    cores.push_back(t.addNode(core));
  }

  for (int pod = 0; pod < 3; ++pod) {
    std::vector<int> aggs, tors;
    for (int i = 0; i < 2; ++i) {
      Node agg;
      agg.name = cat("Agg", pod * 2 + i);
      agg.kind = NodeKind::kSwitch;
      agg.layer = 2;
      agg.pod = pod;
      agg.programmable = true;
      agg.model = td4;
      const int aid = t.addNode(agg);
      aggs.push_back(aid);
      if (pod == 2) {
        // Bypass FPGA cards on pod2 Aggs (host the big KVS cache).
        Node bf;
        bf.name = cat("BF", i);
        bf.kind = NodeKind::kAccel;
        bf.layer = 2;
        bf.pod = pod;
        bf.programmable = true;
        bf.model = fpga;
        const int bid = t.addNode(bf);
        t.node(aid).attached_accel = bid;
        t.addLink(aid, bid, 100.0, 500.0);
      }
    }
    for (int i = 0; i < 2; ++i) {
      Node tor;
      tor.name = cat("ToR", pod * 2 + i);
      tor.kind = NodeKind::kSwitch;
      tor.layer = 1;
      tor.pod = pod;
      tor.programmable = true;
      tor.model = tofino;
      tors.push_back(t.addNode(tor));
    }
    for (int a : aggs) {
      for (int to : tors) t.addLink(a, to);
      for (int c : cores) t.addLink(a, c);
    }
    // Two hosts per pod: pod<i>(a) under ToR even, pod<i>(b) under ToR odd.
    for (int i = 0; i < 2; ++i) {
      Node host;
      host.name = cat("pod", pod, i == 0 ? "a" : "b");
      host.kind = NodeKind::kHost;
      host.pod = pod;
      const int hid = t.addNode(host);
      if (pod == 0) {
        // NFP smartNICs in front of pod0 hosts.
        Node nic;
        nic.name = cat("NFP", i);
        nic.kind = NodeKind::kNic;
        nic.pod = pod;
        nic.programmable = true;
        nic.model = nfp;
        const int nid = t.addNode(nic);
        t.addLink(hid, nid, 40.0, 600.0);
        t.addLink(nid, tors[static_cast<std::size_t>(i)]);
      } else if (pod == 1) {
        // FPGA NICs in front of pod1 hosts (float-capable path).
        Node nic;
        nic.name = cat("FNIC", i);
        nic.kind = NodeKind::kNic;
        nic.pod = pod;
        nic.programmable = true;
        nic.model = fpga_nic;
        const int nid = t.addNode(nic);
        t.addLink(hid, nid, 100.0, 700.0);
        t.addLink(nid, tors[static_cast<std::size_t>(i)]);
      } else {
        t.addLink(hid, tors[static_cast<std::size_t>(i)]);
      }
    }
  }
  return t;
}

}  // namespace clickinc::topo
