// Equivalence classes and topology simplification (paper §5.3, App. B.2).
//
// Devices with identical wiring relative to the other classes are merged
// (color refinement with hosts kept distinct, so ToRs serving different
// servers stay separate while pod-local Aggs and the core layer collapse).
// For a traffic spec the reduced graph becomes the client-side sub-tree +
// server-side chain joined at the root EC (Fig. 9) that the placement DP
// walks.
#pragma once

#include <vector>

#include "topo/topology.h"

namespace clickinc::topo {

// ec_of[node] = equivalence-class id; classes are contiguous from 0.
// `health` (snapshot, nullptr = live topology health) keeps Down elements
// from merging with their healthy twins: a dead ToR is not a replica of an
// alive one. With everything Up the partition is identical to before.
std::vector<int> equivalenceClasses(const Topology& topo,
                                    const HealthView* health = nullptr);

struct TrafficSource {
  int host = -1;     // source host node id
  double volume = 1; // relative traffic volume (e.g. Mpps)
};

struct TrafficSpec {
  std::vector<TrafficSource> sources;
  int dst_host = -1;
};

// One node of the reduced placement tree.
struct EcTreeNode {
  int ec_id = -1;
  std::vector<int> devices;             // merged physical node ids
  const device::DeviceModel* model = nullptr;
  const device::DeviceModel* bypass = nullptr;  // attached accelerator
  int parent = -1;                      // toward the root (core EC)
  std::vector<int> children;            // away from the root (client side)
  double leaf_traffic = 0;              // volume entering at this leaf
  bool server_side = false;
};

struct EcTree {
  // Tree-node indices are dense [0, nodes.size()) in first-visit order
  // (root first), and each node's `devices` list ascends by physical node
  // id. The placement DP's flat tables index directly on these, so the
  // ordering is part of the contract.
  std::vector<EcTreeNode> nodes;
  int root = -1;                   // the top EC shared by every path
  std::vector<int> server_chain;   // indices from root (exclusive) to the
                                   // device closest to the server
  double total_traffic = 0;

  const EcTreeNode& at(int i) const {
    return nodes.at(static_cast<std::size_t>(i));
  }
  int nodeCount() const { return static_cast<int>(nodes.size()); }
  std::vector<int> clientLeaves() const;
};

// The traffic-independent half of the EC build: the classes of one health
// state and the Up devices of each. The merge depends only on the wiring
// and the health, so one partition serves every traffic spec compiled
// against that state. Immutable once built; ClickIncService shares one
// per health state between concurrent compiles (docs/placement.md).
struct EcPartition {
  HealthView health;  // the state it was built for (the key is the node
                      // and link contents; the version is informational)
  std::vector<int> ec_of;  // node id -> class id (equivalenceClasses)
  // Up devices of each class, ascending by node id. Hosts, Draining and
  // Down devices are in no list: none of them is a replica target.
  std::vector<std::vector<int>> devices_of_ec;

  // `health` nullptr = the live topology health.
  static EcPartition build(const Topology& topo, const HealthView* health);
  // True when built for exactly these node and link states.
  bool builtFor(const HealthView& hv) const {
    return health.node == hv.node && health.link == hv.link;
  }
};

// Builds the reduced tree for a traffic spec. Paths run source -> core ->
// destination; programmable devices only (hosts are endpoints). Throws
// PlacementError when a source cannot reach the destination in the wiring,
// and UnavailableError when a path exists but no *healthy* one does (or
// every device on it is Draining) — the transient, retryable case.
// Health is read from the partition alone, so a tree never mixes two
// health states. Down devices never appear in the tree; Draining devices
// forward but are excluded as placement targets.
EcTree buildEcTree(const Topology& topo, const TrafficSpec& spec,
                   const EcPartition& partition);

// Uncached form: builds the partition for `health` (a snapshot; nullptr =
// live topology health) and walks it.
EcTree buildEcTree(const Topology& topo, const TrafficSpec& spec,
                   const HealthView* health = nullptr);

}  // namespace clickinc::topo
