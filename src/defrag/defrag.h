// Occupancy defragmentation primitives (docs/defrag.md).
//
// PR 9's k=16 churn soak showed the fabric failing ~11% of submissions
// with kResourceExhausted on a handful of genuinely exhausted hot ToRs
// while the tree's *mean* free ratio stayed near 1.0 — fragmentation, not
// capacity. This module holds the pure pieces of the compaction loop:
//
//   scoreFragmentation  pressure statistics over the live OccupancyMap —
//                       per-device hot spots, per-pod aggregates, and a
//                       stranded-capacity score that is ~0 for uniform
//                       load and grows with hot-spot skew.
//   selectVictims       deterministic victim choice: tenants claiming the
//                       hottest devices, hottest device first, ascending
//                       user id within a device.
//   evacuationSnapshot  the what-if ledger a victim re-places against:
//                       its own claims released everywhere, evacuation
//                       targets zeroed so the placer must move off them.
//   diagnoseStranded    the kResourceExhausted diagnostic: could the
//                       fabric's aggregate free capacity have fit the
//                       demand (fragmentation) or not (true exhaustion)?
//
// Everything here is a pure function of its arguments — the migration
// executor (core::ClickIncService::defragment) owns all mutation, locking,
// journaling, and rollback. Determinism matters: the executor journals
// and replays migrations record-by-record, so victim order and what-if
// placement inputs must be identical run-to-run at any thread count.
#pragma once

#include <vector>

#include "device/demand.h"
#include "ir/program.h"
#include "place/treedp.h"
#include "scale/domains.h"
#include "topo/topology.h"

namespace clickinc::defrag {

// Knobs of one defragmentation pass. The defaults suit the explicit
// ClickIncService::defragment() API; the reactive path and the churn
// harness typically lower hot_threshold and cap migrations harder.
struct DefragOptions {
  // Excess pressure OVER THE FLEET MEAN at or above which a device counts
  // as hot (pressure = 1 - remaining free ratio). Relative, not absolute:
  // on a datacenter fabric whose mean utilisation is near zero, skew is
  // what strands capacity, and a uniformly-full fabric has nothing to
  // compact. 0.0 marks every above-mean device with tenants as hot.
  double hot_threshold = 0.25;
  // Hottest devices considered per pass (pressure descending, node id
  // ascending on ties).
  int max_hot_devices = 4;
  // Victim tenants migrated per pass — the blast-radius bound.
  int max_migrations = 8;
};

// One deployed tenant as the scorer/planner sees it. Borrowed pointer;
// the caller keeps the plan alive for the duration of the call.
struct TenantPlanView {
  int user = -1;
  const place::PlacementPlan* plan = nullptr;
};

// Pressure of one programmable device.
struct DeviceFrag {
  int node = -1;
  double pressure = 0;  // 1 - remainingRatio(), in [0, 1]
  int tenants = 0;      // live tenants claiming the device
};

// Fragmentation statistics over one ledger state.
struct FragReport {
  int devices = 0;            // programmable devices scored
  double mean_free = 1;       // mean remaining ratio
  double min_free = 1;
  double stddev_free = 0;
  // Stranded-capacity score: mean excess pressure above the fleet mean,
  //   frag_score = sum_d max(0, pressure_d - mean_pressure) / devices.
  // Uniform load (true capacity pressure) scores ~0 regardless of how
  // full the fabric is; a few exhausted devices in an empty fabric score
  // high — exactly the state where compaction helps.
  double frag_score = 0;
  // Devices whose pressure exceeds the fleet mean by at least
  // DefragOptions::hot_threshold and that carry at least one tenant
  // claim: pressure descending, node id ascending on ties, capped at
  // max_hot_devices.
  std::vector<DeviceFrag> hot;
  // Mean pressure per pod domain (index = pod id); empty without a
  // DomainIndex.
  std::vector<double> pod_pressure;
};

FragReport scoreFragmentation(const topo::Topology& topo,
                              const place::OccupancyMap& occ,
                              const std::vector<TenantPlanView>& tenants,
                              const scale::DomainIndex* domains,
                              const DefragOptions& opts);

// One victim pick: a tenant to migrate and the hot devices its plan must
// vacate.
struct VictimPick {
  int user = -1;
  std::vector<int> evacuate;  // hot devices the tenant currently claims
};

// Deterministic victim selection over a FragReport: walk report.hot in
// order, take each device's claiming tenants in ascending user id, stop
// at opts.max_migrations distinct victims. A victim's evacuate list is
// every report.hot device its plan claims.
std::vector<VictimPick> selectVictims(const FragReport& report,
                                      const std::vector<TenantPlanView>& tenants,
                                      const DefragOptions& opts);

// The what-if ledger a victim re-places against: a copy of `occ` with the
// victim's claims released on every device (its current footprint is
// available for reuse) and the `evacuate` devices zeroed out (no free
// capacity at all, so the placer cannot keep anything there). A plan
// feasible on this snapshot is feasible on the live ledger after the
// victim's claims are released, because the snapshot under-reports free
// capacity everywhere else.
place::OccupancyMap evacuationSnapshot(const place::OccupancyMap& occ,
                                       const ir::IrProgram& prog,
                                       const place::PlacementPlan& plan,
                                       const std::vector<int>& evacuate);

// True when the plan claims at least one of `devices`.
bool touchesAny(const place::PlacementPlan& plan,
                const std::vector<int>& devices);

// Stranded-capacity diagnostic for a kResourceExhausted failure: compare
// the whole program's demand against the summed free capacity of every
// programmable device in the ledger.
struct StrandedDiagnosis {
  // At least two devices are aggregated and their summed free capacity
  // could fit the demand: the failure is fragmentation (compaction may
  // help), not capacity.
  bool stranded = false;
  int devices = 0;                        // devices aggregated
  device::ResourceDemand demand;          // whole-program demand
  device::ResourceDemand aggregate_free;  // summed free across devices
};

StrandedDiagnosis diagnoseStranded(const ir::IrProgram& prog,
                                   const place::OccupancyMap& occ,
                                   const topo::Topology& topo);

}  // namespace clickinc::defrag
