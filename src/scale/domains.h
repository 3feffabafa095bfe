// Per-pod placement domains (docs/scale.md).
//
// A domain is the set of programmable devices inside one pod — ToRs,
// Aggs, host NICs, and bypass accelerators carried by pod switches. In a
// fat tree, the healthy path between two hosts of the same pod never
// crosses the core tier (host-ToR-[Agg-ToR]-host is always strictly
// shorter than any route through a core), so the EC tree of intra-pod
// traffic only ever contains domain devices: a single-pod submission
// reads and claims pod-local occupancy exclusively. That is what lets
// core::ClickIncService shard its snapshot, IntraMemo, and
// optimistic-concurrency version by pod — concurrent submitAll compiles
// against disjoint pods share nothing.
//
// Anything else — traffic spanning pods, pod-less endpoints, core
// devices — takes the cross-domain escape path (kCrossDomain): a full
// ledger snapshot validated against the global occupancy version, exactly
// the pre-sharding behaviour.
#pragma once

#include <vector>

#include "topo/ec.h"
#include "topo/topology.h"

namespace clickinc::scale {

// The escape domain: not a pod. Cross-pod traffic, pod-less nodes, and
// core switches live here.
inline constexpr int kCrossDomain = -1;

class DomainIndex {
 public:
  explicit DomainIndex(const topo::Topology& topo);

  // Number of pod domains (0 when the topology defines no pods — every
  // request then escapes to the global path).
  int domainCount() const { return static_cast<int>(devices_.size()); }

  // Pod domain of a node, or kCrossDomain (core tier / pod-less).
  int domainOf(int node) const {
    return domain_of_.at(static_cast<std::size_t>(node));
  }

  // Programmable devices of one pod domain, node-id ascending. The
  // returned reference is stable for the life of the index (the service
  // hands it to PlacementOptions::ratio_devices).
  const std::vector<int>& domainDevices(int domain) const {
    return devices_.at(static_cast<std::size_t>(domain));
  }

  // The single pod containing every traffic endpoint (all sources and the
  // destination), or kCrossDomain when the spec spans pods, has pod-less
  // endpoints, or there are no pod domains at all.
  int domainOfTraffic(const topo::TrafficSpec& spec) const;

 private:
  std::vector<int> domain_of_;            // node id -> pod or kCrossDomain
  std::vector<std::vector<int>> devices_; // per pod, programmable only
};

}  // namespace clickinc::scale
