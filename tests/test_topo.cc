#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "topo/ec.h"
#include "topo/topology.h"
#include "util/crc.h"
#include "util/error.h"

namespace clickinc::topo {
namespace {

TEST(Topology, ChainShape) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino(), device::makeTofino()});
  EXPECT_EQ(t.nodeCount(), 5);  // client + 3 + server
  const auto path = t.shortestPath(0, 4);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 4);
}

TEST(Topology, FatTreeCounts) {
  const auto t = Topology::fatTree(4, 2, device::makeTofino(),
                                   device::makeTrident4(),
                                   device::makeTofino2());
  // k=4: 4 cores, 4 pods x (2 agg + 2 tor + 4 hosts).
  int cores = 0, aggs = 0, tors = 0, hosts = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 3) ++cores;
    if (n.layer == 2 && n.kind == NodeKind::kSwitch) ++aggs;
    if (n.layer == 1) ++tors;
    if (n.kind == NodeKind::kHost) ++hosts;
  }
  EXPECT_EQ(cores, 4);
  EXPECT_EQ(aggs, 8);
  EXPECT_EQ(tors, 8);
  EXPECT_EQ(hosts, 16);
}

TEST(Topology, FatTreePathsGoThroughCore) {
  const auto t = Topology::fatTree(4, 1, device::makeTofino(),
                                   device::makeTofino(),
                                   device::makeTofino());
  int h0 = -1, h1 = -1;
  for (const auto& n : t.nodes()) {
    if (n.kind == NodeKind::kHost && n.pod == 0 && h0 < 0) h0 = n.id;
    if (n.kind == NodeKind::kHost && n.pod == 2 && h1 < 0) h1 = n.id;
  }
  const auto path = t.shortestPath(h0, h1);
  ASSERT_FALSE(path.empty());
  bool through_core = false;
  for (int id : path) {
    if (t.node(id).layer == 3) through_core = true;
  }
  EXPECT_TRUE(through_core);
  EXPECT_EQ(path.size(), 7u);  // host-tor-agg-core-agg-tor-host
}

TEST(Topology, SpineLeafFullMesh) {
  const auto t = Topology::spineLeaf(3, 4, 2, device::makeTofino(),
                                     device::makeTofino2());
  int spines = 0, leaves = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 2) ++spines;
    if (n.layer == 1) ++leaves;
  }
  EXPECT_EQ(spines, 3);
  EXPECT_EQ(leaves, 4);
  // Each leaf reaches any other leaf in 2 hops via any spine.
  const int l0 = t.findNode("Leaf0");
  const int l3 = t.findNode("Leaf3");
  EXPECT_EQ(t.shortestPath(l0, l3).size(), 3u);
}

TEST(Topology, PaperEmulationInventory) {
  const auto t = Topology::paperEmulation();
  EXPECT_GE(t.findNode("Core0"), 0);
  EXPECT_GE(t.findNode("ToR5"), 0);
  EXPECT_GE(t.findNode("Agg4"), 0);
  EXPECT_GE(t.findNode("NFP0"), 0);
  EXPECT_GE(t.findNode("FNIC1"), 0);
  EXPECT_GE(t.findNode("BF0"), 0);
  EXPECT_GE(t.findNode("pod2b"), 0);
  // Bypass FPGA attached to pod2 aggs.
  const auto& agg4 = t.node(t.findNode("Agg4"));
  EXPECT_GE(agg4.attached_accel, 0);
  EXPECT_EQ(t.node(agg4.attached_accel).kind, NodeKind::kAccel);
}

TEST(Ec, ChainDevicesAreDistinct) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino(), device::makeTofino()});
  const auto ec = equivalenceClasses(t);
  // The middle switch differs from the end switches (host adjacency), and
  // the two end switches differ because their hosts are distinct anchors.
  std::set<int> classes(ec.begin(), ec.end());
  EXPECT_EQ(classes.size(), ec.size());  // everything distinct in a chain
}

TEST(Ec, FatTreeMergesAggsAndCores) {
  const auto t = Topology::fatTree(4, 1, device::makeTofino(),
                                   device::makeTrident4(),
                                   device::makeTofino2());
  const auto ec = equivalenceClasses(t);
  // Aggs within one pod share an EC.
  std::map<int, std::set<int>> agg_ecs_by_pod;
  std::set<int> core_ecs;
  for (const auto& n : t.nodes()) {
    if (n.layer == 2) agg_ecs_by_pod[n.pod].insert(ec[static_cast<std::size_t>(n.id)]);
    if (n.layer == 3) core_ecs.insert(ec[static_cast<std::size_t>(n.id)]);
  }
  for (const auto& [pod, ecs] : agg_ecs_by_pod) {
    EXPECT_EQ(ecs.size(), 1u) << "pod " << pod;
  }
  EXPECT_EQ(core_ecs.size(), 1u);
  // ToRs serve distinct hosts, so they stay distinct.
  std::set<int> tor_ecs;
  int tor_count = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 1) {
      tor_ecs.insert(ec[static_cast<std::size_t>(n.id)]);
      ++tor_count;
    }
  }
  EXPECT_EQ(static_cast<int>(tor_ecs.size()), tor_count);
}

TEST(EcTree, SinglePathChainBecomesChainTree) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino2(), device::makeTrident4()});
  TrafficSpec spec;
  spec.sources = {{t.findNode("client"), 10.0}};
  spec.dst_host = t.findNode("server");
  const auto tree = buildEcTree(t, spec);
  // Root is d0 (the first common EC from the client side is... the whole
  // path is common, so root = first device), then server chain d1, d2.
  EXPECT_EQ(tree.nodes.size(), 3u);
  EXPECT_EQ(tree.server_chain.size(), 2u);
  EXPECT_DOUBLE_EQ(tree.total_traffic, 10.0);
}

TEST(EcTree, PaperTopologyTwoPodsToPod2) {
  const auto t = Topology::paperEmulation();
  TrafficSpec spec;
  spec.sources = {{t.findNode("pod0a"), 10.0}, {t.findNode("pod1a"), 20.0}};
  spec.dst_host = t.findNode("pod2b");
  const auto tree = buildEcTree(t, spec);

  // Root must be the core EC (both Tofino2 cores merged).
  const auto& root = tree.at(tree.root);
  EXPECT_EQ(root.model->chip, device::ChipKind::kTofino2);
  EXPECT_EQ(root.devices.size(), 2u);

  // Two client leaves: the pod0 NFP NIC and the pod1 FPGA NIC.
  const auto leaves = tree.clientLeaves();
  ASSERT_EQ(leaves.size(), 2u);
  std::set<device::ChipKind> leaf_chips;
  for (int l : leaves) leaf_chips.insert(tree.at(l).model->chip);
  EXPECT_TRUE(leaf_chips.count(device::ChipKind::kNfp));
  EXPECT_TRUE(leaf_chips.count(device::ChipKind::kFpgaNic));

  // Server chain: pod2 Agg EC (with bypass FPGA) then ToR5.
  ASSERT_EQ(tree.server_chain.size(), 2u);
  const auto& agg = tree.at(tree.server_chain[0]);
  EXPECT_EQ(agg.model->chip, device::ChipKind::kTrident4);
  ASSERT_NE(agg.bypass, nullptr);
  EXPECT_EQ(agg.bypass->chip, device::ChipKind::kFpga);
  const auto& tor = tree.at(tree.server_chain[1]);
  EXPECT_EQ(tor.model->chip, device::ChipKind::kTofino);
  EXPECT_EQ(tor.devices.size(), 1u);

  EXPECT_DOUBLE_EQ(tree.total_traffic, 30.0);
}

TEST(EcTree, UnreachableSourceThrows) {
  Topology t;
  Node a;
  a.name = "a";
  a.kind = NodeKind::kHost;
  const int ha = t.addNode(a);
  Node b;
  b.name = "b";
  b.kind = NodeKind::kHost;
  const int hb = t.addNode(b);  // no link
  TrafficSpec spec;
  spec.sources = {{ha, 1.0}};
  spec.dst_host = hb;
  EXPECT_THROW(buildEcTree(t, spec), PlacementError);
}

TEST(EcTree, LeafTrafficAccumulates) {
  const auto t = Topology::paperEmulation();
  TrafficSpec spec;
  spec.sources = {{t.findNode("pod0a"), 5.0}, {t.findNode("pod0b"), 7.0}};
  spec.dst_host = t.findNode("pod2a");
  const auto tree = buildEcTree(t, spec);
  double leaf_sum = 0;
  for (const auto& n : tree.nodes) leaf_sum += n.leaf_traffic;
  EXPECT_DOUBLE_EQ(leaf_sum, 12.0);
}

// --- partition memo -------------------------------------------------------

// The colour refinement as first written (per-node neighbour vectors, a
// linear search over Down links, std::set distinct counts, std::map
// compaction): the oracle that keeps the flat-buffer rewrite's class ids
// bit-identical.
std::vector<int> referenceClasses(const Topology& topo, const HealthView& hv) {
  std::vector<std::pair<int, int>> down_pairs;
  const auto& links = topo.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (hv.linkAt(static_cast<int>(i)) == Health::kDown) {
      down_pairs.emplace_back(std::min(links[i].a, links[i].b),
                              std::max(links[i].a, links[i].b));
    }
  }
  auto edgeUp = [&](int a, int b) {
    if (hv.nodeAt(a) == Health::kDown || hv.nodeAt(b) == Health::kDown) {
      return false;
    }
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    return std::find(down_pairs.begin(), down_pairs.end(), key) ==
           down_pairs.end();
  };
  const int n = topo.nodeCount();
  std::vector<std::uint64_t> color(static_cast<std::size_t>(n));
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
  for (int round = 0; round < n; ++round) {
    std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::vector<std::uint64_t> nb;
      for (int j : topo.neighbors(i)) {
        if (edgeUp(i, j)) nb.push_back(color[static_cast<std::size_t>(j)]);
      }
      std::sort(nb.begin(), nb.end());
      std::uint64_t c = color[static_cast<std::size_t>(i)];
      for (std::uint64_t x : nb) c = mix64(c ^ x);
      next[static_cast<std::size_t>(i)] = c;
    }
    if (next == color) break;
    const std::set<std::uint64_t> before(color.begin(), color.end());
    const std::set<std::uint64_t> after(next.begin(), next.end());
    const bool changed = before.size() != after.size();
    color = std::move(next);
    if (!changed && round > 0) break;
  }
  std::map<std::uint64_t, int> ids;
  std::vector<int> ec(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ec[static_cast<std::size_t>(i)] =
        ids.emplace(color[static_cast<std::size_t>(i)],
                    static_cast<int>(ids.size()))
            .first->second;
  }
  return ec;
}

Topology fatTree8() {
  return Topology::fatTree(8, 2, device::makeTofino(), device::makeTrident4(),
                           device::makeTofino2());
}

int firstAt(const Topology& t, int layer) {
  for (const auto& n : t.nodes()) {
    if (n.layer == layer && n.kind == NodeKind::kSwitch) return n.id;
  }
  return -1;
}

// The memoized live partition must equal a fresh refinement on an
// independent copy (which starts with an empty memo) and the oracle.
void expectFresh(const Topology& t, const HealthView* hv = nullptr) {
  const HealthView view = hv != nullptr ? *hv : t.healthView();
  const Topology copy = t;
  EXPECT_EQ(equivalenceClasses(t, hv), equivalenceClasses(copy, &view));
  EXPECT_EQ(equivalenceClasses(t, hv), referenceClasses(t, view));
}

TEST(EcMemo, MatchesReferenceRefinement) {
  for (const auto& base : {fatTree8(), Topology::paperEmulation()}) {
    Topology t = base;
    EXPECT_EQ(equivalenceClasses(t), referenceClasses(t, t.healthView()));
    const int agg = firstAt(t, 2);
    const int tor = firstAt(t, 1);
    t.setNodeHealth(agg, Health::kDown);
    EXPECT_EQ(equivalenceClasses(t), referenceClasses(t, t.healthView()));
    t.setNodeHealth(agg, Health::kUp);
    t.setNodeHealth(tor, Health::kDraining);
    const auto& l = t.links().front();
    t.setLinkHealth(l.a, l.b, Health::kDown);
    EXPECT_EQ(equivalenceClasses(t), referenceClasses(t, t.healthView()));
  }
}

TEST(EcMemo, HitReturnsTheStoredPartition) {
  const Topology t = fatTree8();
  const auto a = t.ecPartition(t.healthView());
  // Empty vectors mean all Up: the same content, so the same entry.
  const auto b = t.ecPartition(HealthView{});
  EXPECT_EQ(a.get(), b.get());
  HealthView other = t.healthView();
  other.version = 42;  // the version is not part of the key
  EXPECT_EQ(t.ecPartition(other).get(), a.get());
}

TEST(EcMemo, FollowsNodeAndLinkHealth) {
  Topology t = fatTree8();
  const auto healthy = equivalenceClasses(t);
  const int agg = firstAt(t, 2);
  const int tor = firstAt(t, 1);

  t.setNodeHealth(agg, Health::kDown);
  expectFresh(t);
  EXPECT_NE(equivalenceClasses(t), healthy);
  t.setNodeHealth(agg, Health::kDraining);
  expectFresh(t);
  t.setNodeHealth(agg, Health::kUp);
  expectFresh(t);
  EXPECT_EQ(equivalenceClasses(t), healthy);

  t.setLinkHealth(agg, tor, Health::kDown);
  expectFresh(t);
  EXPECT_NE(equivalenceClasses(t), healthy);
  t.setLinkHealth(agg, tor, Health::kUp);
  expectFresh(t);
  EXPECT_EQ(equivalenceClasses(t), healthy);
}

TEST(EcMemo, EffectiveViewMaskingADeferredHealAtTheLiveVersion) {
  // Live: the Agg was healed. Effective: the heal is deferred, so the Agg
  // still reads Down — under the same version number.
  Topology t = fatTree8();
  const int agg = firstAt(t, 2);
  t.setNodeHealth(agg, Health::kDown);
  t.setNodeHealth(agg, Health::kUp);
  const HealthView live = t.healthView();
  HealthView eff = live;
  eff.node[static_cast<std::size_t>(agg)] = Health::kDown;
  ASSERT_EQ(eff.version, live.version);

  const auto live_ec = equivalenceClasses(t, &live);
  expectFresh(t, &eff);
  EXPECT_NE(equivalenceClasses(t, &eff), live_ec);
  expectFresh(t, &live);
  EXPECT_EQ(equivalenceClasses(t, &live), live_ec);
}

TEST(EcMemo, RestoreAndResetHealth) {
  Topology t = fatTree8();
  const auto healthy = equivalenceClasses(t);
  const int agg = firstAt(t, 2);
  std::vector<Health> node(static_cast<std::size_t>(t.nodeCount()),
                           Health::kUp);
  std::vector<Health> link(t.links().size(), Health::kUp);
  node[static_cast<std::size_t>(agg)] = Health::kDown;
  link.back() = Health::kDown;
  t.restoreHealth(node, link, 9);
  expectFresh(t);
  EXPECT_NE(equivalenceClasses(t), healthy);
  t.resetHealth();
  expectFresh(t);
  EXPECT_EQ(equivalenceClasses(t), healthy);
}

TEST(EcMemo, CopiesStartEmpty) {
  Topology t = fatTree8();
  const auto original = t.ecPartition(t.healthView());
  const Topology copy = t;
  const auto copied = copy.ecPartition(copy.healthView());
  EXPECT_NE(copied.get(), original.get());  // computed, not shared
  EXPECT_EQ(*copied, *original);
  Topology assigned = Topology::paperEmulation();
  (void)assigned.ecPartition(assigned.healthView());
  assigned = t;
  EXPECT_EQ(equivalenceClasses(assigned), *original);
}

TEST(EcMemo, StructuralMutationsInvalidate) {
  Topology t = fatTree8();
  Node acc;
  acc.name = "acc";
  acc.kind = NodeKind::kAccel;
  acc.layer = 2;
  acc.programmable = true;
  const int acc_id = t.addNode(acc);
  expectFresh(t);
  const auto before = equivalenceClasses(t);
  (void)equivalenceClasses(t);  // a memo hit

  // A bypass card splits the Agg from its pod twin.
  const int agg = firstAt(t, 2);
  t.node(agg).attached_accel = acc_id;
  expectFresh(t);
  EXPECT_NE(equivalenceClasses(t), before);

  // New wiring: a host on a core switch.
  const auto wired = equivalenceClasses(t);
  Node host;
  host.name = "extra";
  const int h = t.addNode(host);
  expectFresh(t);
  t.addLink(firstAt(t, 3), h);
  expectFresh(t);
  EXPECT_NE(equivalenceClasses(t), wired);
}

bool sameTree(const EcTree& a, const EcTree& b) {
  if (a.root != b.root || a.server_chain != b.server_chain ||
      a.total_traffic != b.total_traffic || a.nodes.size() != b.nodes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    if (x.ec_id != y.ec_id || x.devices != y.devices || x.model != y.model ||
        x.bypass != y.bypass || x.parent != y.parent ||
        x.children != y.children || x.leaf_traffic != y.leaf_traffic ||
        x.server_side != y.server_side) {
      return false;
    }
  }
  return true;
}

TEST(EcMemo, ConcurrentBuildsWithAlternatingViews) {
  const Topology t = fatTree8();
  TrafficSpec spec;
  for (const auto& n : t.nodes()) {
    if (n.kind != NodeKind::kHost) continue;
    if (n.pod == 0 && spec.sources.size() < 2) spec.sources.push_back({n.id, 1.0});
    if (n.pod == 3) spec.dst_host = n.id;
  }
  HealthView up = t.healthView();
  HealthView degraded = up;
  degraded.node[static_cast<std::size_t>(firstAt(t, 3))] = Health::kDown;
  degraded.version = 1;
  const HealthView views[2] = {up, degraded};
  const EcTree expect[2] = {buildEcTree(t, spec, &views[0]),
                            buildEcTree(t, spec, &views[1])};
  ASSERT_FALSE(sameTree(expect[0], expect[1]));

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const int v = (r + w) % 2;
        if (!sameTree(buildEcTree(t, spec, &views[v]), expect[v])) {
          ++mismatches[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0) << "thread " << w;
  }
}

}  // namespace
}  // namespace clickinc::topo
