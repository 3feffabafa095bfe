// Network emulator (the substitute for the paper's VM/PCAP emulation
// platform — see DESIGN.md).
//
// Packets walk their topology path hop by hop; programmable devices run
// the IR snippets deployed on them (step-gated, per-user filtered) through
// the deterministic interpreter against per-device state stores. The
// performance model is fluid: every traversed link accumulates busy time
// (bits / rate), every device adds its processing latency; a run's
// throughput is useful-bits-delivered divided by the bottleneck's busy
// time — preserving the *shape* of Fig. 13 without vendor-timing claims.
//
// Concurrency: state stores are per-device, so bursts whose paths share
// no processing device never touch the same mutable state, and bursts
// that *do* share a device only have to agree on their order at that
// device. sendBursts() exploits both regimes: each burst's hop-major
// walk is cut into segments at the hops where it meets a device some
// earlier burst also visits, and the segments execute as a dependency
// DAG on the attached util::ThreadPool — per-device arrival order is
// burst-submission order (bit-identical state evolution), while hop
// stages of different bursts overlap. Device-disjoint bursts degenerate
// to one segment each and run fully parallel; converging traffic (the
// MLAgg many-to-one regime) pipelines, e.g. burst k+1 compresses on its
// smartNIC while burst k aggregates on the shared switch. Every burst
// records its link/stats effects into a private deferred context,
// replayed in burst order afterwards, so results and stats are
// bit-identical to the sequential path (see docs/interpreter.md,
// "Threading model").
#pragma once

#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ir/exec_plan.h"
#include "ir/interp.h"
#include "topo/topology.h"

namespace clickinc::util {
class ThreadPool;
}

namespace clickinc::emu {

// Execution knobs. `fuse_plans` forwards the superinstruction-fusion
// option to every plan the emulator compiles at deploy() time (the plan
// cache keys on it, so redeploying after a toggle never reuses a plan
// compiled under the other setting). `pipeline_bursts` selects the
// stage-pipelined sendBursts() executor; off falls back to the older
// device-disjoint-only grouping (aliasing bursts serialize whole-burst).
// Both knobs are semantics-preserving — they change wall-clock, never
// packets, state, or stats.
struct EmulatorOptions {
  bool fuse_plans = true;
  bool pipeline_bursts = true;
  // Health-aware routing: packets follow shortestPathUp, modeling a
  // converged routing plane that steers around Down elements. Off models
  // the pre-convergence window — paths ignore health and packets
  // traversing a dead element drop with kNodeDown/kLinkDown.
  bool reroute_on_failure = true;
};

// Why a packet dropped. kProgram is an INC verdict (the program said
// drop); the others are failure-domain outcomes that previously either
// crashed the emulator (no path) or silently default-forwarded
// (undeployed user traffic).
enum class DropReason : std::uint8_t {
  kNone = 0,     // not dropped
  kProgram,      // ir::Verdict::kDrop from a deployed snippet
  kNodeDown,     // next hop device is Health::kDown
  kLinkDown,     // link on the path is Health::kDown
  kNoRoute,      // no (healthy) path from src to dst
  kUndeployed,   // user traffic whose path carries no snippet of that user
};

const char* dropReasonName(DropReason r);

// One snippet deployed on one device.
struct DeploymentEntry {
  int user_id = -1;
  std::shared_ptr<const ir::IrProgram> prog;
  std::vector<int> instr_idxs;  // segment of prog
  int step_from = 0;            // block step gate (§6 replicated blocks)
  int step_to = 0;
  // Precompiled execution plan for the segment. deploy() fills it from
  // the plan cache; callers normally leave it null.
  std::shared_ptr<const ir::ExecPlan> plan;
};

struct PacketResult {
  ir::PacketView view;
  bool delivered = false;   // reached dst (or bounced back to src)
  bool dropped = false;
  bool bounced = false;     // SendBack verdict returned it to the source
  DropReason drop_reason = DropReason::kNone;  // set iff dropped
  int final_node = -1;
  double latency_ns = 0;    // path + INC processing latency
  double inc_latency_ns = 0;  // processing latency on INC devices only
  int wire_bytes_out = 0;   // size when leaving the last hop
  int hops = 0;
};

struct EmuStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_bounced = 0;
  // Subsets of packets_dropped: failure-domain drops (down node/link, no
  // route) and undeployed-user drops, vs. program-verdict drops.
  std::uint64_t packets_dropped_fault = 0;
  std::uint64_t packets_dropped_undeployed = 0;
  std::uint64_t useful_bytes_delivered = 0;
  double total_latency_ns = 0;
  double total_inc_latency_ns = 0;

  double avgLatencyNs() const {
    const auto n = packets_delivered + packets_bounced;
    return n == 0 ? 0 : total_latency_ns / static_cast<double>(n);
  }
  double avgIncLatencyNs() const {
    const auto n = packets_sent;
    return n == 0 ? 0 : total_inc_latency_ns / static_cast<double>(n);
  }
};

// One flow's worth of same-sized packets for sendBursts().
struct Burst {
  int src = -1;
  int dst = -1;
  std::vector<ir::PacketView> views;
  int wire_bytes = 0;
  int useful_bytes = 0;
};

class Emulator {
 public:
  // `plan_cache` shares compiled execution plans across devices and
  // programs (core::Service threads its cache through here, the way the
  // PlacementArena is threaded through the placer); when null the
  // emulator uses a private cache.
  Emulator(const topo::Topology* topo, std::uint64_t seed,
           ir::ExecPlanCache* plan_cache = nullptr);

  // Deploys a snippet on a device; multiple snippets coexist (multi-user).
  // Compiles (or fetches from the plan cache) the segment's ExecPlan, so
  // replicas and repeated identical templates pay the decode cost once.
  void deploy(int device_node, DeploymentEntry entry);
  void undeploy(int device_node, int user_id);
  // Device death/reboot: drops every entry on the device and clears its
  // state store (a rebooted switch comes back with fresh registers).
  void undeployDevice(int device_node);
  void clearDeployments();

  // Marks a device failed: its snippets are skipped (packets pass
  // through); replicated blocks downstream pick the work up (§6).
  void setFailed(int device_node, bool failed);

  // Worker pool for sendBursts(); nullptr (default) = sequential. The
  // pool is borrowed, not owned. Single-packet send() and single-flow
  // sendBurst() are unaffected.
  void setThreadPool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* threadPool() const { return pool_; }

  // Execution knobs (fusion + pipelined bursts). fuse_plans applies to
  // deploys made *after* the call — set it before deploying.
  void setOptions(const EmulatorOptions& opts) { options_ = opts; }
  const EmulatorOptions& options() const { return options_; }

  // Sends one packet from host `src` to host `dst`: a one-packet
  // sendBurst(), so it walks the same hop loop. `wire_bytes` is the
  // initial packet size; `useful_bytes` the application payload counted
  // toward goodput on delivery/bounce.
  PacketResult send(int src, int dst, ir::PacketView view, int wire_bytes,
                    int useful_bytes);

  // Sends a burst of same-sized packets from `src` to `dst`. The burst
  // advances hop by hop (hop-major): at each device the still-in-flight
  // packets run through ExecPlan::runBatch back-to-back, amortizing state
  // binding and register-file setup across the burst. Per-packet results
  // (verdicts, latency, link charges, stats) are identical to sequential
  // send() calls — packets execute in burst order at every device — except
  // for the global RandInt draw order, which interleaves per hop instead
  // of per packet.
  std::vector<PacketResult> sendBurst(int src, int dst,
                                      std::vector<ir::PacketView> views,
                                      int wire_bytes, int useful_bytes);

  // Runs several flows' bursts. Semantically identical to calling
  // sendBurst() once per element in order — bit-identical results, stats,
  // and link accounting — but when a thread pool is attached, the bursts
  // execute as a stage-pipelined DAG: each burst is cut into hop
  // segments at the devices it shares with earlier bursts, segments of
  // the same burst run in hop order, and segments visiting a shared
  // device run in burst-submission order (so every per-device state
  // store sees exactly the sequential arrival sequence). Device-disjoint
  // bursts run fully parallel; converging flows overlap their
  // non-shared hops with the shared device's serialized work. The whole
  // call falls back to sequential execution when any deployed snippet
  // consumes the shared Rng (RandInt), whose draw order could not
  // otherwise be preserved, and to the pre-pipelining device-disjoint
  // grouping when options().pipeline_bursts is off.
  std::vector<std::vector<PacketResult>> sendBursts(std::vector<Burst> bursts);

  // Diagnostic/reference mode: route execution through the retained
  // switch interpreter (ir::Interpreter) instead of compiled plans. The
  // equivalence tests cross-check both modes bit-for-bit.
  void setReferenceInterpreter(bool on) { use_reference_ = on; }
  bool referenceInterpreter() const { return use_reference_; }

  ir::ExecPlanCache& planCache() { return *plan_cache_; }
  const ir::ExecPlanCache& planCache() const { return *plan_cache_; }

  ir::StateStore& storeOf(int device_node);
  const EmuStats& stats() const { return stats_; }
  void resetStats();

  // Read-only view of the live deployment table (recovery audits and the
  // crash-point fuzzer compare whole deployments across services).
  const std::map<int, std::vector<DeploymentEntry>>& deployments() const {
    return deployments_;
  }

  // Canonical content hash of the deployment table: per device ascending,
  // entries as (user, step_from, step_to, instr_idxs) sorted by
  // (user, step_from, step_to). Independent of deploy() call order and of
  // compiled-plan identity, so two services that converged on the same
  // placements digest equal (docs/recovery.md).
  std::uint64_t deploymentDigest() const;

  // Wipes deployments, every per-device state store, failure flags, link
  // busy time, and stats back to the post-construction state. The Rng is
  // deliberately untouched: recovery replay never re-sends old traffic, so
  // draw order stays comparable with a fresh service only from this point
  // forward.
  void reset();

  // Fluid bandwidth model: busiest-link busy time across the run.
  double maxLinkBusyNs() const;
  double linkBusyNs(int a, int b) const;

 private:
  // Per-burst execution context: reusable scratch plus the burst's
  // deferred side effects. Bursts running as parallel tasks each own one;
  // the recorded charges/finishes are replayed into the emulator's
  // accumulators in burst order, reproducing the sequential path's exact
  // floating-point addition sequence.
  struct BurstCtx {
    ir::ExecPlan::Scratch scratch;
    std::vector<double> batch_added;
    std::vector<ir::PacketView*> batch_eligible;
    std::vector<std::size_t> batch_eligible_idx;
    // Per-hop scratch of the burst walk (in-flight subset + latencies).
    std::vector<ir::PacketView*> hop_sub;
    std::vector<std::size_t> hop_sub_idx;
    std::vector<double> hop_sub_lat;

    struct Charge {
      int a, b, bytes;
    };
    std::vector<Charge> charges;               // in charge order
    std::vector<std::pair<double, double>> finishes;  // (latency, inc) in
                                                      // finish order
    EmuStats counters;  // integer tallies; double sums come from finishes

    void resetEffects() {
      charges.clear();
      finishes.clear();
      counters = EmuStats{};
    }
  };

  // One burst's resumable hop-major walk. The sequential paths drive it
  // start → runBurstHops(0, end) → finishBurstRun in one go; the
  // pipelined executor drives the same code hop-segment by hop-segment,
  // which is what makes the two paths bit-identical by construction.
  struct BurstRun {
    int src = -1;
    int dst = -1;
    int wire_bytes = 0;
    int useful_bytes = 0;
    std::vector<int> path;                // empty when the burst is empty
    std::vector<ir::PacketView> flight;
    std::vector<bool> alive;
    std::size_t live = 0;                 // fast-path skip for dead tails
    std::vector<PacketResult> results;
    BurstCtx* ctx = nullptr;              // deferred effects + scratch
  };

  const topo::Topology* topo_;
  Rng rng_;
  ir::ExecPlanCache own_cache_;        // used when no shared cache given
  ir::ExecPlanCache* plan_cache_;
  util::ThreadPool* pool_ = nullptr;
  EmulatorOptions options_;
  bool use_reference_ = false;
  std::map<int, std::vector<DeploymentEntry>> deployments_;
  std::vector<ir::StateStore> stores_;  // dense, node-indexed (O(1) storeOf)
  std::map<int, bool> failed_;
  std::map<std::pair<int, int>, double> link_busy_ns_;
  EmuStats stats_;

  // Routing under the failure domain: health-aware when
  // options().reroute_on_failure, full wiring otherwise.
  std::vector<int> routeOf(int src, int dst) const;
  // Whether any device (or bypass card) on the path carries a snippet for
  // `user` (or an unfiltered snippet). Gate for the kUndeployed drop; only
  // consulted for user traffic (view.user_id >= 0).
  bool userServedOnPath(const std::vector<int>& path, int user) const;
  // Drops one in-flight packet of a burst with a structured reason.
  void dropPacket(BurstRun& r, std::size_t i, int at, DropReason reason);
  // The per-packet entry loop of a device (packet-major execution).
  double runEntriesOn(int node, const std::vector<DeploymentEntry>& entries,
                      ir::PacketView& view, ir::ExecPlan::Scratch& scratch);
  // The single eligibility gate both execution paths consult: user
  // filter, §6 step gates, and the already-decided check (verdicts never
  // unset, so skipping per entry equals an early break).
  static bool entryEligible(const DeploymentEntry& entry,
                            const ir::PacketView& view);
  // Reference-path segment materialization (the seed's per-packet copy).
  static std::vector<ir::Instruction> materializeSegment(
      const DeploymentEntry& entry);
  // Batched variant over the in-flight subset of a burst; appends each
  // packet's added latency to `latency_out` (indexed like `views`).
  // Devices hosting a single entry batch through ExecPlan::runBatch;
  // multi-entry devices fall back to packet-major execution so results
  // stay identical to sequential send() even when entries share state.
  void processBatchAt(int node, std::span<ir::PacketView* const> views,
                      std::span<double> latency_out, BurstCtx& ctx);
  void chargeLink(int a, int b, int bytes);

  // One burst's hop-major walk, all link/stats effects deferred into ctx.
  std::vector<PacketResult> runBurst(int src, int dst,
                                     std::vector<ir::PacketView> views,
                                     int wire_bytes, int useful_bytes,
                                     BurstCtx& ctx);
  // The resumable pieces runBurst is made of (also driven segment-wise
  // by the pipelined executor). startBurstRun resolves the path and
  // initializes the in-flight set; runBurstHops advances hops
  // [h_begin, h_end); finishBurstRun delivers whatever is still alive.
  void startBurstRun(BurstRun& r, int src, int dst,
                     std::vector<ir::PacketView> views, int wire_bytes,
                     int useful_bytes);
  void runBurstHops(BurstRun& r, std::size_t h_begin, std::size_t h_end);
  void finishBurstRun(BurstRun& r);
  void finishPacket(BurstRun& r, std::size_t i, int at);
  // Stage-pipelined executor for aliasing bursts (pool attached,
  // pipeline_bursts on): per-device-ordered segment DAG on the pool.
  std::vector<std::vector<PacketResult>> sendBurstsPipelined(
      std::vector<Burst> bursts);
  // PR3-era executor: device-disjoint bursts in parallel, aliasing
  // groups serialized whole-burst (kept under pipeline_bursts == false).
  std::vector<std::vector<PacketResult>> sendBurstsGrouped(
      std::vector<Burst> bursts);
  // Replays a context's recorded effects into the shared accumulators.
  void applyBurstEffects(const BurstCtx& ctx);
  // Any deployed snippet containing RandInt (forces sequential bursts).
  bool deploymentsUseRandom() const;
  // Processing nodes (devices + bypass cards) a src->dst burst can touch.
  std::vector<int> processingNodesOnPath(const std::vector<int>& path) const;
  // The subset of processingNodesOnPath hop h actually consults state on:
  // nodes carrying at least one deployment (per-device ordering is only
  // needed there).
  void deployedNodesAtHop(const std::vector<int>& path, std::size_t h,
                          std::vector<int>* out) const;

  BurstCtx burst_ctx_;  // reused across send() and single-flow sendBurst()
};

}  // namespace clickinc::emu
