// Data-center topology model: hosts, programmable switches, smartNICs and
// bypass accelerator cards, with builders for the fat-tree / spine-leaf /
// chain shapes the paper evaluates (Fig. 11 emulation topology included).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "device/model.h"

namespace clickinc::topo {

enum class NodeKind : std::uint8_t {
  kHost,    // end server (runs the INC layer, not a placement target)
  kSwitch,  // programmable switch ASIC
  kNic,     // smartNIC in front of a host
  kAccel,   // bypass FPGA card attached to a switch
};

const char* nodeKindName(NodeKind k);

// Health of a node or link in the failure domain. Distinct from the
// emulator's legacy `setFailed` flag, which models a device whose program
// snippets are skipped while the element keeps forwarding (§6 replica
// pickup); Down here means the element is gone: packets traversing it drop
// with a structured reason and its occupancy claims must be released.
enum class Health : std::uint8_t {
  kUp = 0,    // fully operational
  kDraining,  // still forwards and serves existing deployments, but must
              // not receive new placements (planned maintenance)
  kDown,      // dead: drops traffic; state and claims are lost
};

const char* healthName(Health h);

// One entry of the monotonically-versioned failure log. `version` is
// 1-based and strictly increasing; a no-op transition (same health) is not
// logged and reports version 0.
struct FailureEvent {
  enum class Kind : std::uint8_t { kNode, kLink };
  std::uint64_t version = 0;
  Kind kind = Kind::kNode;
  int node = -1;                 // kNode events
  int link_a = -1, link_b = -1;  // kLink events
  Health from = Health::kUp;
  Health to = Health::kUp;
};

// Immutable copy of the health state, taken under the owner's lock so
// readers after the lock is dropped see one consistent version.
// Empty vectors mean "everything Up" (default view).
struct HealthView {
  std::vector<Health> node;
  std::vector<Health> link;  // parallel to Topology::links()
  std::uint64_t version = 0;

  Health nodeAt(int id) const {
    return node.empty() ? Health::kUp
                        : node.at(static_cast<std::size_t>(id));
  }
  Health linkAt(int link_index) const {
    return link.empty() ? Health::kUp
                        : link.at(static_cast<std::size_t>(link_index));
  }
};

struct Node {
  int id = -1;
  std::string name;
  NodeKind kind = NodeKind::kHost;
  int layer = 0;  // 0=host/NIC, 1=ToR, 2=Agg, 3=Core
  int pod = -1;
  bool programmable = false;
  device::DeviceModel model;  // meaningful when programmable
  int attached_accel = -1;    // node id of a bypass kAccel, or -1
};

struct Link {
  int a = -1;
  int b = -1;
  double gbps = 100.0;
  double latency_ns = 1000.0;
};

class Topology {
 public:
  int addNode(Node n);  // assigns id, returns it
  void addLink(int a, int b, double gbps = 100.0, double latency_ns = 1000.0);

  const Node& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  // Mutable access drops the partition memo: a node's kind, layer, model
  // and bypass card all seed its equivalence class.
  Node& node(int id);
  int nodeCount() const { return static_cast<int>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }
  const std::vector<int>& neighbors(int id) const {
    return adj_.at(static_cast<std::size_t>(id));
  }
  const Link* linkBetween(int a, int b) const;
  int linkIndex(int a, int b) const;  // index into links(), -1 if absent
  int findNode(const std::string& name) const;  // -1 if absent

  // Shortest path by hop count (BFS); empty when unreachable. Ignores
  // health (full wiring). A one-shot PathFinder over the full wiring.
  std::vector<int> shortestPath(int src, int dst) const;

  // --- failure domain ---

  Health nodeHealth(int id) const {
    return node_health_.at(static_cast<std::size_t>(id));
  }
  Health linkHealth(int a, int b) const;

  // Transition an element's health; appends to the failure log and bumps
  // the version. Returns the logged event (version 0 when a no-op).
  // Links are binary: Draining is rejected for setLinkHealth.
  FailureEvent setNodeHealth(int id, Health h);
  FailureEvent setLinkHealth(int a, int b, Health h);

  std::uint64_t healthVersion() const { return health_version_; }
  const std::vector<FailureEvent>& failureLog() const { return events_; }
  HealthView healthView() const {
    return HealthView{node_health_, link_health_, health_version_};
  }

  // Health-aware BFS: skips Down nodes and Down links (Draining still
  // forwards). Bit-identical to shortestPath when everything is Up.
  // `health` overrides the live state with a snapshot (nullptr = live).
  // A one-shot PathFinder; callers routing many pairs under one view
  // build the PathFinder once instead.
  std::vector<int> shortestPathUp(int src, int dst,
                                  const HealthView* health = nullptr) const;

  // Overwrites the health state wholesale from a checkpoint (sizes must
  // match nodes/links). The failure log is cleared: restored history is
  // cumulative, not replayed event by event (docs/recovery.md).
  void restoreHealth(const std::vector<Health>& node,
                     const std::vector<Health>& link, std::uint64_t version);

  // Everything Up, version 0, empty failure log — the pre-replay baseline
  // recover() starts from so kHealth records reproduce exact versions.
  void resetHealth();

  // Equivalence-class partition under `health` (see topo/ec.h), memoized
  // on the topology. The memo holds one entry keyed on the health
  // *content* — node and link vectors, empty meaning all Up — not on
  // HealthView::version, since an effective view that masks deferred
  // heals carries the live version number. A miss recomputes and replaces
  // the entry. addNode, addLink and the non-const node() clear it, and a
  // copied Topology starts empty. Thread-safe for concurrent const
  // callers. Defined in ec.cc beside the refinement.
  std::shared_ptr<const std::vector<int>> ecPartition(
      const HealthView& health) const;

  // --- builders ---

  // Straight chain: host - d1 - d2 - ... - dn - host (Table 4 / Fig. 14).
  static Topology chain(const std::vector<device::DeviceModel>& devices);

  // Device-equal k-ary fat-tree (Appendix B.2): k pods, k/2 ToR + k/2 Agg
  // per pod, (k/2)^2 cores, `hosts_per_tor` hosts per ToR.
  static Topology fatTree(int k, int hosts_per_tor,
                          const device::DeviceModel& tor_model,
                          const device::DeviceModel& agg_model,
                          const device::DeviceModel& core_model);

  // Spine-leaf: every leaf connects to every spine.
  static Topology spineLeaf(int spines, int leaves, int hosts_per_leaf,
                            const device::DeviceModel& leaf_model,
                            const device::DeviceModel& spine_model);

  // The paper's emulation topology (Fig. 11): 3 pods x (2 ToR Tofino +
  // 2 Agg TD4), 2 Tofino2 cores; pod0/pod1 hosts behind NFP smartNICs,
  // pod1 ToRs' hosts with FPGA NICs, pod2 Aggs carrying bypass FPGAs.
  static Topology paperEmulation();

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<int>> adj_;
  std::vector<Health> node_health_;  // parallel to nodes_
  std::vector<Health> link_health_;  // parallel to links_
  std::vector<FailureEvent> events_;
  std::uint64_t health_version_ = 0;
  int down_nodes_ = 0;  // counts of kDown entries, kept so the fully-
  int down_links_ = 0;  // healthy fast path can delegate to shortestPath

  // The ecPartition memo. Copying or assigning yields an empty memo, so a
  // Topology never serves a partition computed on other wiring.
  struct PartitionMemo {
    PartitionMemo() = default;
    PartitionMemo(const PartitionMemo&) {}
    PartitionMemo& operator=(const PartitionMemo&) {
      clear();
      return *this;
    }
    void clear();

    std::mutex mu;
    // Key: the (index, health) pairs that are not Up.
    std::vector<std::pair<int, Health>> node, link;
    std::shared_ptr<const std::vector<int>> ec;
  };
  mutable PartitionMemo ec_memo_;
};

// The topology's one BFS router. Construction reads the health view once
// (which nodes forward, which links are Down); every path() call then runs
// a plain BFS over the wiring with those elements removed, reusing its
// buffers. Neighbours are visited in adjacency (link insertion) order
// with FIFO tie-breaking, so a path is a pure function of the wiring and
// the view. Not thread-safe: one PathFinder per thread. The topology must
// outlive it and keep its wiring while it is in use.
class PathFinder {
 public:
  // Routes around the Down nodes and links of `health`; Draining
  // forwards. nullptr routes over the full wiring.
  PathFinder(const Topology& topo, const HealthView* health);

  // Shortest path by hop count, src and dst included; empty when src or
  // dst is Down or no path remains.
  std::vector<int> path(int src, int dst);

 private:
  bool forwards(int node) const {
    return down_node_.empty() || !down_node_[static_cast<std::size_t>(node)];
  }
  bool linkUp(int a, int b) const;

  const Topology& topo_;
  std::vector<char> down_node_;  // per node; empty when no node is Down
  std::vector<std::pair<int, int>> down_links_;  // sorted (min, max) ends
  std::vector<int> prev_;   // BFS parent per node, -1 unvisited
  std::vector<int> queue_;  // FIFO: pops advance an index
};

}  // namespace clickinc::topo
