// Multi-path program placement over the reduced EC tree (paper §5.4,
// Algorithm 1, Eq. 1-2).
//
// Blocks are assigned as contiguous segments of the block DAG's
// topological linearization: the client-side sub-tree places a common
// prefix bottom-up (every leaf path executes the same program), the root
// EC holds a middle segment, and the server-side chain completes the
// suffix. Gain follows Eq. 1: serve all traffic (h_t), spend few device
// resources (h_r, replication-aware), move few Param bytes across device
// boundaries (h_p, liveness cuts x traffic share). Adaptive weights shift
// ω_r up as devices fill (ω_r = 1 − 2^{r−1}).
//
// Hot-path layout: all DP tables and the per-(node, i, j) segment cache
// are flat dense arrays (single allocation, O(1) probe), indexed
//   node * (m+1)*(m+1) + i*(m+1) + j
// for the segment cache and node * (m+1) + j for the client DP. Intra-
// device placements are additionally memoized across devices and programs
// by (occupancy fingerprint x segment fingerprint) — EC nodes with k
// identical replicas pay for one placeCompact call instead of k, and
// multi-program runs share results through a PlacementArena.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "place/blockdag.h"
#include "place/intradevice.h"
#include "topo/ec.h"
#include "topo/topology.h"

namespace clickinc::util {
class ThreadPool;
}

namespace clickinc::place {

struct Weights {
  double wt = 0.5;
  double wr = 0.25;
  double wp = 0.25;
};

// ω_r = 1 − 2^{r−1}, ω_p = 1/2 − ω_r (paper "Adaptive Weight").
Weights adaptiveWeights(double remaining_ratio);

// Free-resource ledger of every programmable device in the topology.
// Dense-backed: of() is an O(1) index through a node-id -> slot table.
class OccupancyMap {
 public:
  explicit OccupancyMap(const topo::Topology* topo);

  // Sparse snapshot restricted to `devices`: only the listed devices get
  // slots (copied from `src`); of() on any other node CHECK-fails loudly.
  // Single-domain speculative compiles only ever consult their domain's
  // devices, so the per-submission copy of the whole ledger is avoided
  // (see core::ClickIncService::setDomainSharding).
  OccupancyMap(const topo::Topology* topo, const OccupancyMap& src,
               const std::vector<int>& devices);

  DeviceOccupancy& of(int node_id);
  const DeviceOccupancy& of(int node_id) const;

  // True when this map carries a slot for node_id (always true for
  // programmable nodes on a full map; restricted to the listed devices
  // on a sparse snapshot). of() CHECK-fails exactly when this is false.
  bool contains(int node_id) const {
    return node_id >= 0 && node_id < static_cast<int>(slot_of_.size()) &&
           slot_of_[static_cast<std::size_t>(node_id)] >= 0;
  }

  // Mean remaining capacity ratio over programmable devices (the r that
  // drives adaptive weights).
  double remainingRatio() const;

  // Mean remaining ratio over the listed devices only — the domain-scoped
  // r when placement domains are enabled. Every listed device must be
  // programmable and present in this map.
  double remainingRatioOver(const std::vector<int>& devices) const;

 private:
  const topo::Topology* topo_;
  std::vector<int> slot_of_;             // node id -> slot, -1 if not prog.
  std::vector<DeviceOccupancy> slots_;   // node-id ascending
};

struct PlacementOptions {
  Weights weights;                 // used when adaptive == false
  bool adaptive = true;
  bool prune = true;               // pruned DP vs exhaustive (ablations)
  // Fast path: replica/cross-program memoization plus monotone early-exit
  // bounds on the server-chain DP. Plan semantics are identical to the
  // reference path (fast == false), which is retained for the
  // plan-equivalence regression tests and as a bisection aid.
  bool fast = true;
  long max_steps = 20'000'000;     // budget for the exhaustive mode
  // Worker pool for the parallel fast path (fast == true only; the
  // reference path stays strictly sequential). Sibling client subtrees,
  // per-node segment fills, and server-chain DP rows run as pool tasks;
  // plans, steps, and the search counters below are bit-identical to the
  // sequential fast path (see docs/placement.md, "Threading model").
  // nullptr = sequential. The pool is borrowed, not owned.
  util::ThreadPool* pool = nullptr;
  // Devices the adaptive remaining ratio is averaged over; nullptr means
  // every programmable device (the service-wide r). When placement
  // domains are enabled the service points this at the request's domain so
  // single-pod placements are a pure function of pod-local occupancy —
  // commits in other pods cannot shift the weights. Borrowed, never
  // serialized or stored (like `pool`).
  const std::vector<int>* ratio_devices = nullptr;
};

// Cache/memo counters of one placement run (Table 3/6 scenarios read the
// cumulative values off core::Service's arena).
struct PlacementStats {
  long intra_calls = 0;      // placeCompact/placeExhaustive invocations
  long intra_memo_hits = 0;  // placements reused via the occupancy memo
  long seg_probes = 0;       // segment-cache lookups
  long seg_misses = 0;       // segment-cache fills
  long early_breaks = 0;     // server-chain inner loops cut short
  // Parallel-run accounting. Every search counter above is accumulated in
  // a per-task (per-thread) PlacementStats and merged in task order, so
  // the totals stay bit-identical to a sequential run; these two fields
  // describe the execution mode itself and are the only ones that differ
  // between thread counts.
  int threads_used = 1;      // pool concurrency of the run (1 = sequential)
  long parallel_tasks = 0;   // subtree solves / segment fills / DP rows
                             // dispatched to the pool

  void add(const PlacementStats& o) {
    intra_calls += o.intra_calls;
    intra_memo_hits += o.intra_memo_hits;
    seg_probes += o.seg_probes;
    seg_misses += o.seg_misses;
    early_breaks += o.early_breaks;
    threads_used = threads_used > o.threads_used ? threads_used
                                                 : o.threads_used;
    parallel_tasks += o.parallel_tasks;
  }

  double intraMemoHitRate() const {
    const long total = intra_calls + intra_memo_hits;
    return total == 0 ? 0.0
                      : static_cast<double>(intra_memo_hits) /
                            static_cast<double>(total);
  }
  double segCacheHitRate() const {
    return seg_probes == 0
               ? 0.0
               : static_cast<double>(seg_probes - seg_misses) /
                     static_cast<double>(seg_probes);
  }
};

namespace detail {

// One memoized (node, i, j) segment placement; a slot of the flat cache.
struct Segment {
  enum class State : std::uint8_t { kUnset, kDone };
  State state = State::kUnset;
  bool feasible = false;
  // Infeasible for a reason that provably persists for every superset
  // [i, j2 > j): stateful gating, a non-programmable EC, or an opcode no
  // device of the EC supports. Resource-driven failures are NOT monotone
  // (placeCompact's atomic state-touch groups can shift under a larger
  // segment), so only this flag licenses the server-chain early exit.
  bool monotone_infeasible = false;
  int bypass_from = -1;
  std::map<int, IntraPlacement> on_device;
  std::map<int, IntraPlacement> on_bypass;
  double resource_score = 0;  // summed over replicated devices
  int internal_cut_bits = 0;
};

}  // namespace detail

// Reusable allocations plus the cross-program intra-placement memo.
// core::Service threads one arena through every submit so repeated trials
// skip both the large-table allocations and re-placing segments on devices
// whose occupancy has not changed.
//
// The memo is held by shared_ptr so several arenas can share one memo
// while keeping private scratch buffers: IntraMemo is thread-safe
// (sharded, exactly-once claim/publish) but the DP tables are not, so the
// service's pipelined submit path gives every concurrent speculative
// compile its own arena constructed over the service-wide memo — six
// tenants submitting three distinct templates pay for one placeCompact
// per distinct (occupancy, segment) key across the whole batch.
class PlacementArena {
 public:
  PlacementArena() : memo_(std::make_shared<IntraMemo>()) {}
  // An arena with private scratch sharing `memo` (must be non-null).
  explicit PlacementArena(std::shared_ptr<IntraMemo> memo)
      : memo_(std::move(memo)) {}

  IntraMemo& memo() { return *memo_; }
  const IntraMemo& memo() const { return *memo_; }
  const std::shared_ptr<IntraMemo>& memoHandle() const { return memo_; }

 private:
  friend class TreePlacerAccess;
  std::shared_ptr<IntraMemo> memo_;
  // Scratch buffers; assign() reuses capacity between runs.
  std::vector<double> client_dp;
  std::vector<int> client_choice;
  std::vector<double> server_dp;
  std::vector<int> server_choice;
  std::vector<detail::Segment> seg_cache;
  std::vector<std::uint64_t> seg_fp;
  std::vector<std::uint8_t> seg_fp_set;
  std::vector<double> traffic_frac;
  std::vector<double> hop_order;
};

struct NodeAssignment {
  int tree_node = -1;
  int from_block = 0;
  int to_block = 0;    // [from, to); empty segment = pass-through
  int bypass_from = -1;  // blocks [bypass_from, to) on the bypass card
  std::map<int, IntraPlacement> on_device;  // physical node -> placement
  std::map<int, IntraPlacement> on_bypass;  // accel node -> placement
};

struct PlacementPlan {
  bool feasible = false;
  std::string failure;
  // When infeasible: true if some probed segment failed placement for a
  // resource (capacity) reason — the program is placeable in principle but
  // not under the occupancy it was placed against. False means the failure
  // is structural (every failing segment was monotone-infeasible:
  // unsupported opcode, non-programmable EC, stateful gating) and no
  // amount of freed resources can help. core::Service maps this to its
  // ResourceExhausted vs Infeasible error codes.
  bool resource_limited = false;
  std::vector<NodeAssignment> assignments;
  double gain = 0;
  double ht = 0, hr = 0, hp = 0;
  Weights weights_used;
  long steps = 0;
  double elapsed_ms = 0;
  PlacementStats stats;

  // Physical devices hosting at least one block.
  std::vector<int> devicesUsed() const;
  int blocksOn(int tree_node) const;
};

// Runs the DP; does not mutate `occ` (call commitPlan to take resources).
// Passing an arena reuses its buffers and shares its intra-placement memo
// across calls; without one, a run-local arena is used.
PlacementPlan placeProgram(const BlockDag& dag, const topo::EcTree& tree,
                           const topo::Topology& topo,
                           const OccupancyMap& occ,
                           const PlacementOptions& opts = {},
                           PlacementArena* arena = nullptr);

void commitPlan(const PlacementPlan& plan, const ir::IrProgram& prog,
                OccupancyMap& occ);

// The inverse of commitPlan: returns every claim of the plan to `occ`.
// Devices for which `keep` returns true are left untouched (a wiped
// device's claims died with it; a sparse ledger lacks the device).
void releasePlan(const PlacementPlan& plan, const ir::IrProgram& prog,
                 OccupancyMap& occ,
                 const std::function<bool(int)>& keep = nullptr);

// Physical devices (and bypass cards) holding at least one instruction of
// the assignment / plan — the devices commitPlan claims resources on.
std::set<int> claimedDevices(const NodeAssignment& a);
std::set<int> claimedDevices(const PlacementPlan& plan);

}  // namespace clickinc::place
