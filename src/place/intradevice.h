// Intra-device instruction placement (paper §5.4 Algorithm 2, Appendix D).
//
// Two search modes:
//  - placeCompact: the pruned DP. The paper's pruning (drop dominated
//    partial solutions, prefer stage-compact placements) collapses the
//    per-stage enumeration to earliest-feasible-stage list scheduling,
//    which is what this computes — in linear time per instruction.
//  - placeExhaustive: the unpruned enumeration over per-stage subsets
//    (what the SMT baseline effectively explores). Exponential; used by
//    the Fig. 14 ablations and Table 4 baseline with a step budget.
//
// State-sharing instructions are pinned to one stage per state object
// (hardware register arrays are bound to a single stage's SALU), and the
// per-(stage, state) SALU/table demand is counted once.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/demand.h"
#include "device/model.h"
#include "device/validate.h"
#include "ir/analysis.h"
#include "ir/program.h"
#include "util/crc.h"

namespace clickinc::place {

// Remaining free resources of one physical device.
struct DeviceOccupancy {
  const device::DeviceModel* model = nullptr;
  std::vector<device::ResourceDemand> free_stage;  // pipeline devices
  device::ResourceDemand free_whole;               // RTC / hybrid devices

  static DeviceOccupancy fresh(const device::DeviceModel& model);
  // `model` is kept by pointer, so a temporary would dangle.
  static DeviceOccupancy fresh(device::DeviceModel&&) = delete;
  // Fraction of the device's scalar capacity still free, in [0, 1].
  double remainingRatio() const;
};

struct IntraPlacement {
  bool feasible = false;
  std::string why;              // failure diagnostics when infeasible
  std::vector<int> instr_idxs;  // program instruction indices
  std::vector<int> stage_of;    // parallel to instr_idxs (pipeline only)
  int stages_used = 0;
  device::ResourceDemand total;
  long steps = 0;               // search nodes explored
};

// Pruned placement of `instrs` (topologically ordered program indices)
// onto the device described by `occ`, starting no earlier than min_stage.
IntraPlacement placeCompact(const DeviceOccupancy& occ,
                            const ir::IrProgram& prog,
                            const std::vector<int>& instrs,
                            int min_stage = 0,
                            const ir::Analysis* an = nullptr);

// Unpruned enumeration (pipeline devices); explores every stage choice per
// instruction up to `max_steps` search nodes, returning the placement with
// the fewest stages found.
IntraPlacement placeExhaustive(const DeviceOccupancy& occ,
                               const ir::IrProgram& prog,
                               const std::vector<int>& instrs,
                               long max_steps, int min_stage = 0,
                               const ir::Analysis* an = nullptr);

// Fingerprint of a device's full free-resource state: model identity plus
// every per-stage (or whole-device) free vector. Two devices with equal
// fingerprints behave identically under placeCompact/placeExhaustive, so
// EC nodes with k identical replicas pay for one placement instead of k.
std::uint64_t occupancyFingerprint(const DeviceOccupancy& occ);

// Fingerprint of everything the intra-device placers consult about an
// instruction list: per-instruction opcode / demand / state shape, the
// dependency edges and SCC grouping restricted to the list (as local
// indices), and each referenced state's storage demand. Deliberately
// name-insensitive so identical templates submitted by different users
// share memo entries across programs.
std::uint64_t segmentFingerprint(const ir::IrProgram& prog,
                                 const ir::Analysis& an,
                                 const std::vector<int>& instrs);

// 128-bit memo key: (device model + occupancy) x (segment content + search
// options). Both halves are chained mix64 hashes.
struct MemoKey {
  std::uint64_t occ = 0;
  std::uint64_t seg = 0;
  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const {
    return static_cast<std::size_t>(k.occ ^ (k.seg * 0x9E3779B97F4A7C15ULL));
  }
};

// Cross-device / cross-program intra-placement memo. Entries stay valid as
// long as their key matches: committing resources changes a device's
// occupancy fingerprint, so stale entries are simply never hit again.
//
// Thread-safe and sharded by occupancy fingerprint (all segments of one
// device state land in one shard, so the worker-pool placement path
// contends only when threads genuinely work the same device class). The
// claim/publish pair gives exactly-once compute semantics: for a fixed
// multiset of requests the number of placeCompact invocations equals the
// number of distinct keys regardless of thread interleaving, which is
// what keeps PlacementStats and plan.steps bit-identical between the
// sequential and parallel placement paths.
class IntraMemo {
 public:
  // Shared, immutable memo result. A hit hands out the leader's handle,
  // so reuse costs a reference-count bump instead of a deep copy.
  using Handle = std::shared_ptr<const IntraPlacement>;

  // Handle of a claimed-but-unpublished slot (leader == true). The
  // claimant MUST publish() exactly once; followers block on the slot
  // until it does.
  struct Claim {
    bool leader = false;

   private:
    friend class IntraMemo;
    void* entry = nullptr;
    int shard = -1;
  };

  // Exactly-once lookup. On a hit (or after waiting out another thread's
  // in-flight compute) stores the published handle in *out and returns a
  // non-leader claim. On a miss, reserves the slot and returns a leader
  // claim: the caller computes the placement and publish()es it — or, if
  // the computation throws, publishError()s so waiters elect a new
  // leader instead of inheriting a fabricated result.
  Claim claim(const MemoKey& key, Handle* out);
  // Entries are program-agnostic: the key fingerprints the segment's
  // content, not its instruction indices, so the leader publishes with
  // instr_idxs cleared and each reader supplies its own program's list.
  void publish(const Claim& claim, Handle placement);
  void publishError(const Claim& claim);

  long hits() const;
  long misses() const;
  std::size_t size() const;
  // Callers must be quiescent (no in-flight claims). Handles already
  // handed out stay valid: they share ownership of their placement.
  void clear();

 private:
  // Wholesale eviction bound per shard; placements are small and keyed by
  // occupancy, so a simple cap beats LRU bookkeeping on this path. Only
  // published entries with no registered waiters are evicted — a blocked
  // follower (or one woken but not yet rescheduled) holds a pointer to
  // its slot.
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMaxEntriesPerShard = (1 << 16) / kShards;

  struct Entry {
    Handle placement;
    bool ready = false;
    bool failed = false;  // leader threw; next claimant re-leads
    int waiters = 0;      // claims blocked on (or waking for) this slot
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable ready_cv;
    std::unordered_map<MemoKey, Entry, MemoKeyHash> map;
    long hits = 0;
    long misses = 0;
  };

  Shard& shardOf(const MemoKey& key) {
    return shards_[static_cast<std::size_t>(mix64(key.occ)) % kShards];
  }
  static void evictReady(Shard& shard);

  mutable std::array<Shard, kShards> shards_;
};

// Exact resources commitPlacement() subtracts for `placement`, re-derived
// from the program: per-stage vectors for pipeline devices (sized
// model.num_stages), the single whole-device vector otherwise. Pure — the
// verifier uses it to rebuild a device's claims independently of the live
// ledger. Requires a structurally valid placement (instruction indices in
// range; stage_of parallel to instr_idxs on pipeline devices).
DeviceOccupancy placementClaims(const ir::IrProgram& prog,
                                const IntraPlacement& placement,
                                const device::DeviceModel& model);

// Subtracts a feasible placement from the device's free resources.
void commitPlacement(DeviceOccupancy& occ, const ir::IrProgram& prog,
                     const IntraPlacement& placement);

// Returns a previously committed placement's resources to the ledger
// (program removal records resources as released immediately, §6).
void releasePlacement(DeviceOccupancy& occ, const ir::IrProgram& prog,
                      const IntraPlacement& placement);

}  // namespace clickinc::place
