// ClickIncService: the One-Big-INC façade (paper §3, Fig. 2/3).
//
// Tenants submit a SubmitRequest (template | source | compiled IR, plus a
// traffic spec); the service runs a two-stage pipeline:
//
//   compile  parse -> lower -> block DAG -> tree-DP placement (§5),
//            against an occupancy snapshot — pure with respect to shared
//            service state, so independent tenants compile concurrently
//            on the shared worker pool.
//   commit   serialized: validate the candidate plan against live
//            occupancy (optimistic concurrency — re-place at most once on
//            conflict), claim resources, synthesize per-device programs
//            (§6) and deploy onto the emulated network.
//
// Every entry point runs these two stages. submit() runs both under one
// lock hold, compiling against the live ledger; submitAsync() returns a
// joinable SubmissionTicket, and submitAll() compiles a batch of tenants
// concurrently and commits deterministically in request order — results
// are bit-identical to sequential submits. Failures are structured
// ServiceErrors (core/api.h). Removal is annotation-driven and lazy by
// default. See docs/service.md for the lifecycle and error taxonomy.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/ledger.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "emu/emulator.h"
#include "emu/fault.h"
#include "modules/profile.h"
#include "modules/templates.h"
#include "place/treedp.h"
#include "scale/domains.h"
#include "synth/synthesizer.h"
#include "topo/ec.h"
#include "util/thread_pool.h"

namespace clickinc::core {

// Joinable handle of one in-flight asynchronous submission. Copyable;
// every copy refers to the same eventual SubmitResult. The result is
// produced exactly once; get() blocks until it is ready.
class SubmissionTicket {
 public:
  enum class Status { kInvalid, kPending, kReady };

  SubmissionTicket() = default;

  bool valid() const { return fut_.valid(); }
  Status status() const {
    if (!fut_.valid()) return Status::kInvalid;
    return fut_.wait_for(std::chrono::seconds(0)) == std::future_status::ready
               ? Status::kReady
               : Status::kPending;
  }
  bool done() const { return status() == Status::kReady; }
  void wait() const {
    if (fut_.valid()) fut_.wait();
  }
  // Blocks until the submission committed (or failed) and returns its
  // result; valid across repeated calls and across ticket copies.
  const SubmitResult& get() const { return fut_.get(); }

 private:
  friend class ClickIncService;
  explicit SubmissionTicket(std::shared_future<SubmitResult> fut)
      : fut_(std::move(fut)) {}

  std::shared_future<SubmitResult> fut_;
};

class ClickIncService {
 public:
  explicit ClickIncService(topo::Topology topo, std::uint64_t seed = 42);
  ~ClickIncService();  // joins outstanding submitAsync() submissions
  ClickIncService(const ClickIncService&) = delete;
  ClickIncService& operator=(const ClickIncService&) = delete;

  // Synchronous submission: compile + commit under the service lock.
  // Never throws for tenant-caused failures — inspect result.error.
  SubmitResult submit(SubmitRequest req);

  // Asynchronous submission: compiles on a background thread against an
  // occupancy snapshot, then joins the serialized commit stage. Tickets
  // outstanding at destruction time are joined by the destructor.
  SubmissionTicket submitAsync(SubmitRequest req);

  // Batch submission. With concurrency > 1 the compile stage of every
  // request runs in parallel on the worker pool; commits apply in request
  // order, so results (plans, occupancy, user ids, emulator state) are
  // bit-identical to submitting the same requests sequentially.
  std::vector<SubmitResult> submitAll(std::vector<SubmitRequest> requests);

  // Joins every submitAsync() submission issued so far.
  void waitForAsync();

  // Removes a user program (lazy per §6 unless eager requested). Unknown
  // ids yield ErrorCode::kUnknownUser instead of silently succeeding.
  // Serializes with in-flight submitAsync() commits on the service lock,
  // so racing a removal against a submission is well-defined: whichever
  // reaches the commit stage first wins, and the loser observes the
  // winner's state.
  RemoveResult remove(int user_id, bool lazy = true);

  // --- failure-domain runtime (docs/failures.md) ---

  // Service-wide retry policy for retryable submission failures
  // (kResourceExhausted / kUnavailable). A request's own policy
  // (req.retry.max_attempts > 0) takes precedence. Backoff is simulated
  // deterministically — attempts reacquire the lock immediately and the
  // schedule is charged to SubmitResult::backoff_ms — so retried
  // submissions stay reproducible under test. submitAll() never retries:
  // batch results must stay bit-identical to sequential submits.
  void setRetryPolicy(RetryPolicy policy);
  RetryPolicy retryPolicy();
  void setFailoverPolicy(FailoverPolicy policy);

  // Health transitions + failover, all under the service lock: apply the
  // transition to the topology, then re-place every affected tenant
  // against the degraded topology (make-before-break; see
  // docs/failures.md#failover-lifecycle). Healing a node reboots it:
  // occupancy, device program, and emulator state come back fresh.
  // applyFault runs one FaultInjector action (kNone is a no-op); the five
  // named transitions are shorthands for it.
  FailoverReport applyFault(const emu::FaultAction& action);
  FailoverReport failNode(int node) {
    return applyFault({emu::FaultAction::Kind::kKillNode, node});
  }
  FailoverReport drainNode(int node) {
    return applyFault({emu::FaultAction::Kind::kDrainNode, node});
  }
  FailoverReport healNode(int node) {
    return applyFault({emu::FaultAction::Kind::kHealNode, node});
  }
  FailoverReport failLink(int a, int b) {
    return applyFault({emu::FaultAction::Kind::kKillLink, -1, a, b});
  }
  FailoverReport healLink(int a, int b) {
    return applyFault({emu::FaultAction::Kind::kHealLink, -1, a, b});
  }

  // Seeded chaos driving: armFaultInjector binds (or re-seeds) an
  // injector over this service's topology; each stepFault() draws one
  // action, applies it, and runs the failover pipeline under the lock.
  void armFaultInjector(std::uint64_t seed, emu::FaultOptions opts = {});
  FailoverReport stepFault();

  // Handles any topology failure events not yet seen by the failover
  // pipeline (no-op when the log is fully processed).
  FailoverReport processFailures();

  // --- defragmentation (docs/defrag.md) ---

  // One compaction pass under the service lock: score fragmentation over
  // the live ledger, pick victim tenants on hot devices, re-place each
  // against an evacuation what-if snapshot, and swap plans
  // make-before-break (write-ahead journaled; commit-gate verified; old
  // plan restored on any failure). Deterministic: same state + options =>
  // same migrations at any concurrency() setting.
  DefragReport defragment(const defrag::DefragOptions& opts = {});

  // Reactive targeted compaction: when policy.reactive is on, a
  // kResourceExhausted submission whose failure diagnoses as stranded
  // capacity triggers one defragment(policy.options) pass and a single
  // re-place before the failure is returned. The retry runs identically
  // on the sequential and staged commit paths, so submitAll stays
  // bit-identical to sequential submits.
  void setDefragPolicy(DefragPolicy policy);

  // Test hook: the (n+1)-th emulator deploy from now throws a synthetic
  // SynthesisError, exercising the rollback/restore paths. Single-shot.
  void injectDeployFailureAfter(int n);

  // Test hook: invoked by every submitAsync() attempt between taking its
  // occupancy snapshot and compiling — a deterministic window for racing
  // remove() against an in-flight submission. Called without the service
  // lock held. Pass nullptr to clear.
  void setCompileGate(std::function<void()> gate);

  // --- durability (docs/recovery.md) ---

  // Attaches a write-ahead journal: every state-changing operation
  // (commit, abort, remove, health transition, failover batch,
  // checkpoint) appends a CRC-checked record to `sink` before the
  // in-memory state it describes becomes observable. Fresh-service only —
  // the service must hold no deployments and no health history, and the
  // sink must be empty or magic-only (to attach to a journal with
  // records, recover() from it instead). The sink is borrowed, not owned,
  // and must outlive the attachment.
  void attachJournal(durable::JournalSink* sink);
  void detachJournal();
  bool journalAttached();

  // Appends a kCheckpoint record carrying the whole durable core (tenant
  // programs/plans, occupancy ledger, health + watermarks, flap-damping
  // state). Must be called at an operation boundary: a journal must be
  // attached and every failure event processed. recover() replays from
  // the latest checkpoint instead of from the journal's beginning.
  void checkpoint();

  // Rebuilds the service from `sink`'s journal: reset to empty, restore
  // the latest checkpoint (if any), replay the clean record suffix
  // (re-synthesizing snippets and re-deploying deterministically), then
  // run a full verifier audit. A torn tail from a crash mid-append is
  // discarded (the sink is truncated to the clean prefix). On success the
  // journal is attached to `sink` and the epoch is bumped: staged
  // submissions that began before the recovery refuse to commit
  // (kUnavailable, retryable). On any failure the service is left empty
  // with no journal attached and the report carries a structured
  // kRecovery error — never a silently-wrong service. Fault injectors and
  // policies are not journaled; re-arm them after recovery.
  RecoveryReport recover(durable::JournalSink* sink);

  // Bumped by every recover() call (success or failure). Speculative
  // submissions carry the epoch they compiled under.
  std::uint64_t epoch();

  // --- plan verification (docs/verification.md) ---

  // When each stage runs the static plan verifier (verify/verifier.h).
  // at_commit: every successful deploy is verified (scoped to the new
  // tenant + its devices) before registration; a violation fails the
  // submission with ErrorCode::kVerification and rolls it back.
  // at_failover: every failover report covering processed events carries a
  // full audit in FailoverReport::verify.
  struct VerifyPolicy {
    bool at_commit = true;
    bool at_failover = true;
  };
  void setVerifyPolicy(VerifyPolicy policy);

  // On-demand full audit of every live deployment against the live
  // occupancy ledger (all four invariants, no scoping).
  verify::VerifyReport verifyDeployments();

  // Audit scoped to one pod domain: cross-tenant checks over the pod's
  // devices, per-tenant checks over the tenants whose plans touch them.
  // Requires domain sharding; an out-of-range pod audits everything.
  verify::VerifyReport verifyDomain(int pod);

  // Owning copy of the verifier's inputs (programs, plans, ledger, plan
  // options) for offline inspection / mutation fuzzing. The topology
  // pointer borrows from this service.
  verify::Snapshot verifySnapshot();

  // Concurrency knob for the whole pipeline: submitAll()/submitAsync()
  // compile tenants concurrently, placements run the worker-pool tree DP,
  // and the emulator parallelizes device-disjoint bursts in sendBursts().
  // 1 (the default) is strictly sequential; 0 resolves to the hardware
  // thread count. Results are bit-identical across settings — parallelism
  // changes wall-clock, never plans or packets. Joins outstanding async
  // submissions and excludes in-flight submits before swapping the pool
  // (in-flight compile stages keep the old pool alive via shared_ptr);
  // do not call concurrently with an in-flight submitAll() or while
  // driving the emulator from another thread.
  void setConcurrency(int threads);
  int concurrency() const { return concurrency_; }
  util::ThreadPool* threadPool() { return pool_.get(); }

  // --- placement domains (docs/scale.md) ---

  // Shards the occupancy snapshot, IntraMemo, and the ledger's
  // optimistic-concurrency version by pod (scale::DomainIndex). A
  // submission whose traffic stays inside one pod compiles against a
  // sparse pod-only snapshot, memoizes into its pod's IntraMemo, averages
  // the adaptive-weight ratio over pod devices only, and re-places at
  // commit iff *its pod's* version moved. Cross-pod traffic escapes to the
  // full-ledger path and the global version. submitAll stays
  // bit-identical to sequential submits. Quiescent-only, like
  // setConcurrency: joins async submissions; do not call concurrently
  // with an in-flight submitAll.
  void setDomainSharding(bool on);
  // The live index, or nullptr when sharding is off.
  const scale::DomainIndex* domainIndex() const {
    return ledger_.domainIndex();
  }

  const topo::Topology& topology() const { return topo_; }
  emu::Emulator& emulator() { return emu_; }
  // The live ledger's free-resource map. Mutating it bypasses the
  // ledger's version bookkeeping; only verifier tests do, on purpose.
  place::OccupancyMap& occupancy() { return ledger_.rawOccupancy(); }
  const modules::ModuleLibrary& library() const { return lib_; }
  synth::DeviceProgram& deviceProgram(int node);

  // The placement arena shared by every commit-stage placement: reuses
  // DP-table allocations between trials and carries the occupancy-keyed
  // intra-placement memo, so identical templates from different users
  // (Table 3/6 scenarios) skip repeated placeCompact searches. Pipelined
  // speculative compiles share the memo through private arenas (see
  // place::PlacementArena). Cumulative cache statistics are accumulated
  // in placementStats().
  place::PlacementArena& placementArena() { return arena_; }
  const place::PlacementStats& placementStats() const {
    return cumulative_stats_;
  }

  // The compiled-execution-plan cache shared by every deployment: the
  // emulator compiles each deployed segment once (per content
  // fingerprint), so replicated snippets and identical templates from
  // different users skip the IR decode entirely — the execution-side
  // analogue of the placement arena above.
  ir::ExecPlanCache& execPlanCache() { return plan_cache_; }
  const ir::ExecPlanCache& execPlanCache() const { return plan_cache_; }

  const std::map<int, Deployed>& deployments() const {
    return ledger_.deployments();
  }
  // The occupancy ledger itself (occupancy, deployments, versions). Like
  // the accessors above, an unlocked read for quiescent inspection.
  const Ledger& ledger() const { return ledger_; }

  // Pods whose traffic traverses any of `devices`.
  std::set<int> podsCrossing(const std::set<int>& devices) const;

  // The EC partition placements use for `health` (matched by node and
  // link contents, not version), from the service's one-entry cache;
  // a miss rebuilds and replaces the cached entry.
  std::shared_ptr<const topo::EcPartition> ecPartition(
      const topo::HealthView& health);
  // Live health with flap-deferred heals masked back to their pre-heal
  // state: the view failover, defrag and reactive compaction place
  // against. Equals live health when nothing is deferred.
  topo::HealthView effectiveHealth();

 private:
  struct Speculative;   // compile-stage output (defined in service.cc)
  struct CompileScope;  // lock-captured compile context (service.cc)
  struct PlaceInputs;   // block DAG + EC tree of a placement (service.cc)

  // Frontend compile of a request's payload. User-free: a template lowers
  // as `<template>` and a source as `user`; the commit stage stamps the
  // id in (modules::stampUser). Throws lang errors. A kProgram payload is
  // *moved out* of the request (the caller names it).
  ir::IrProgram compileFrontend(SubmitRequest& req) const;

  // The one placement call. Builds whatever `in` (nullptr = nothing
  // cached) lacks — the block DAG of `prog`, the EC tree of `traffic`
  // walked over `partition` — resolves a null opts.pool /
  // opts.ratio_devices to `pool` / `ratio`, and runs the tree DP against
  // `occ`. Touches no lock-guarded state itself, so the unlocked compile
  // stage runs it too.
  place::PlacementPlan placeTenant(const ir::IrProgram& prog,
                                   const topo::TrafficSpec& traffic,
                                   const topo::EcPartition& partition,
                                   const place::OccupancyMap& occ,
                                   place::PlacementOptions opts,
                                   util::ThreadPool* pool,
                                   const std::vector<int>* ratio,
                                   place::PlacementArena* arena,
                                   PlaceInputs* in) const;
  // placeTenant in the lock-held service context: the service pool, the
  // traffic's pod ratio scope and the service arena.
  place::PlacementPlan placeLocked(const ir::IrProgram& prog,
                                   const topo::TrafficSpec& traffic,
                                   const topo::EcPartition& partition,
                                   const place::OccupancyMap& occ,
                                   const place::PlacementOptions& opts,
                                   PlaceInputs* in = nullptr);

  // The compile context of a request about to compile.
  CompileScope compileScopeLocked(const topo::TrafficSpec& traffic);

  // The EC partition of `health`: the cached one when it was built for
  // the same node and link contents, else a fresh build that replaces it.
  // Keyed on contents, not health.version: the effective view masks
  // deferred heals under the live version, and recover() reuses versions.
  std::shared_ptr<const topo::EcPartition> partitionLocked(
      const topo::HealthView& health);

  // Stage 1: frontend + placement against `occ` and the scope's EC
  // partition. Staged callers pass a snapshot and run unlocked,
  // concurrently with other compiles (not with commits of *this*
  // request); a null `arena` gives the compile private scratch over
  // scope.memo. The sync caller holds the lock and passes the live
  // ledger and the service arena.
  Speculative compileSpeculative(SubmitRequest& req, CompileScope scope,
                                 const place::OccupancyMap& occ,
                                 place::PlacementArena* arena);

  // Stage 2 (lock held): validate + assign and stamp the user id + claim
  // + synthesize + deploy.
  SubmitResult commitSpeculative(Speculative&& spec, SubmitRequest& req);

  // One attempt of the pipeline. Sync (`staged` false): compile against
  // the live ledger and commit, both under one lock hold. Staged: compile
  // unlocked against a snapshot, then commit under the lock.
  SubmitResult submitOnce(SubmitRequest& req, bool staged);
  // submitOnce wrapped in the request's effective retry policy.
  SubmitResult submitWithRetry(SubmitRequest req, bool staged);

  // Claims resources, deploys, registers the user. On deploy failure the
  // partial deployment is rolled back and *result carries the error.
  void commitAndDeployLocked(SubmitResult* result,
                             const std::shared_ptr<ir::IrProgram>& prog,
                             const topo::TrafficSpec& traffic,
                             const place::PlacementOptions& options);
  void rollbackDeployLocked(int user, const std::shared_ptr<ir::IrProgram>& prog,
                            const place::PlacementPlan& plan);
  // Eagerly strips `user`'s device programs and emulator entries from the
  // `devices` that `surviving` accepts (nullptr: all). Occupancy untouched.
  void stripLocked(int user, const std::set<int>& devices,
                   const std::function<bool(int)>& surviving = nullptr);

  // `skip_assignments` (aligned with plan.assignments, nullptr = none)
  // omits pinned segments during failover redeploys.
  void deployPlan(int user, const std::shared_ptr<ir::IrProgram>& prog,
                  const std::shared_ptr<const ir::ParamLayout>& layout,
                  const place::PlacementPlan& plan, Impact* impact,
                  const std::vector<char>* skip_assignments = nullptr);

  // --- failover internals (lock held) ---

  // Drains unprocessed FailureEvents from the topology log: journals
  // them, applies flap damping, wipes dead / rebooted devices, finds
  // affected tenants, re-places each.
  FailoverReport handleEventsLocked();
  // Device death or reboot: fresh occupancy, no device program, no
  // emulator entries or state.
  void wipeDeviceLocked(int node);
  // Re-places one affected tenant against the degraded topology.
  // `partition` is built for the effective health view (flap-damped heals
  // masked out).
  TenantRecovery recoverTenantLocked(int user,
                                     const topo::EcPartition& partition);

  // --- make-before-break swap core (lock held) ---
  //
  // Shared by failover re-placement (recoverTenantLocked) and the
  // defragmentation executor: `old`'s surviving claims are already
  // released and `new_plan` is claimed + deployed segment-by-segment
  // with the segments place::pinUnchanged keeps left untouched; on any
  // failure the old plan is restored (or, if the restore deploy also
  // fails, the tenant is dropped). The swap registers whichever
  // deployment results in the ledger; the caller owns journaling.
  struct SwapResult {
    bool swapped = false;    // new plan live and registered
    bool restored = false;   // !swapped: old plan live again
    // !swapped && !restored: tenant dropped, claims released
    int segments_pinned = 0;
    int segments_replaced = 0;
    ServiceError error;      // set when !swapped
  };
  SwapResult swapPlanLocked(int user, const Deployed& old,
                            const place::PlacementPlan& new_plan,
                            const std::function<bool(int)>& surviving,
                            Stage stage);

  // Migration step shared by the live defrag executor and kMigrate /
  // kMigrateAbort replay: release the old plan's claims, then
  // swapPlanLocked the new plan in (all devices surviving).
  // Bit-identical occupancy arithmetic on both paths by construction.
  SwapResult applyMigrationLocked(int user,
                                  const place::PlacementPlan& new_plan,
                                  Stage stage);

  // One defrag victim: health check -> re-place against the evacuation
  // snapshot -> write-ahead kMigrate -> swap -> commit gate, journaling
  // the compensation a failure needs. `v.user` must be deployed;
  // `partition` is built on the first re-place and shared by the rest.
  MigrationRecord migrateVictimLocked(
      const defrag::VictimPick& v,
      std::shared_ptr<const topo::EcPartition>& partition);

  // The defragment() body (lock held): one migrateVictimLocked per victim,
  // then one tally; also the reactive path's bounded in-submission
  // compaction step.
  DefragReport defragmentLocked(const defrag::DefragOptions& opts);

  // Reactive retry after a stranded kResourceExhausted: one defragment
  // pass + one re-place. True iff result->plan became feasible.
  bool reactiveCompactionLocked(SubmitResult* result,
                                const ir::IrProgram& prog,
                                const topo::TrafficSpec& traffic,
                                const place::PlacementOptions& options);

  // Live deployments as scorer/planner views (borrowed plans).
  std::vector<defrag::TenantPlanView> tenantViewsLocked() const;

  // --- durability internals (lock held; docs/recovery.md) ---

  // Appends one record; no-op when no journal is attached or a replay is
  // in progress.
  void journalAppendLocked(durable::RecordType type,
                           std::span<const std::uint8_t> payload);
  // Write-ahead of the failover batch: journals every failure-log event
  // past the journaled watermark as a kHealth record.
  void journalHealthLocked();
  // Live health with flap-deferred heals masked back to their pre-heal
  // state — the view failover re-placement must plan against.
  topo::HealthView effectiveHealthLocked() const;
  // Everything back to the post-construction state (journal detached,
  // injector cleared; in-flight ticket bookkeeping is left alone).
  void resetStateLocked();
  // The state-mutating tail of remove() after lookup and cancellation
  // handling; `user_id` must be deployed.
  void doRemoveLocked(int user_id, bool lazy, RemoveResult* out);
  durable::CheckpointRecord buildCheckpointLocked();
  void restoreCheckpointLocked(const durable::CheckpointRecord& cp);
  void applyRecordLocked(const durable::RecordRef& rec);
  // Re-deploys one decoded tenant (kCommit replay, checkpoint restore):
  // validates the plan, claims it unless the ledger already accounts for
  // it (a restored checkpoint), deploys and registers it.
  void redeployLocked(int user, ir::IrProgram prog,
                      const place::PlacementPlan& plan,
                      const topo::TrafficSpec& traffic,
                      const place::PlacementOptions& options, bool claim);

  // Runs the plan verifier over the given deployments view (lock held —
  // the verifier borrows live programs/plans/ledger).
  verify::VerifyReport auditLocked(const verify::VerifyOptions& opts);
  // Commit gate of a submission or a migration: when
  // VerifyPolicy::at_commit is on and no replay runs, audits `user`
  // scoped to `devices` (cross-tenant occupancy/isolation on those
  // devices covers every co-resident); otherwise an empty, clean report.
  verify::VerifyReport commitGateLocked(int user, std::set<int> devices);

  topo::Topology topo_;
  modules::ModuleLibrary lib_;
  synth::BaseProgram base_;
  // Occupancy, deployments, versions and the pod index (core/ledger.h).
  Ledger ledger_;
  ir::ExecPlanCache plan_cache_;  // must outlive emu_ (emulator keeps a ptr)
  emu::Emulator emu_;
  std::map<int, std::unique_ptr<synth::DeviceProgram>> device_programs_;
  place::PlacementArena arena_;
  place::PlacementStats cumulative_stats_;
  // Set by setConcurrency(>1). shared_ptr so a pool swap cannot destroy
  // a pool an in-flight compile stage is still running on — readers pin
  // a copy under mu_ and keep it for the duration of the stage.
  std::shared_ptr<util::ThreadPool> pool_;
  int concurrency_ = 1;
  int next_user_ = 1;

  // Serializes the commit stage and every mutation of the shared state
  // above (ledger, device programs, emulator, arena). The commit stage
  // re-places a speculative plan iff the ledger version of its domain
  // moved since its snapshot — the optimistic-concurrency validation.
  // Health moves are validated separately against the topology's own
  // health version.
  std::mutex mu_;
  // The EC partition of the last health state a placement asked for
  // (partitionLocked). Immutable and shared: compile stages hold their own
  // reference across the unlocked compile, so a rebuild never frees one in
  // use.
  std::shared_ptr<const topo::EcPartition> partition_;

  // Per-pod IntraMemo shards (guarded by mu_; rebuilt with the ledger's
  // pod index by setDomainSharding under quiescence, so compile stages may
  // hold borrowed device-list pointers and memo handles across the
  // unlocked compile). Empty when sharding is off.
  std::vector<std::shared_ptr<place::IntraMemo>> domain_memos_;

  // Failure-domain runtime state (all guarded by mu_).
  RetryPolicy retry_policy_;        // max_attempts <= 1: no retry
  FailoverPolicy failover_policy_;
  std::uint64_t processed_health_version_ = 0;  // failure-log watermark
  std::unique_ptr<emu::FaultInjector> injector_;
  int inject_deploy_fail_ = -1;     // test hook countdown, -1 = off
  VerifyPolicy verify_policy_;
  DefragPolicy defrag_policy_;      // reactive targeted compaction (off)

  // Durability state (guarded by mu_). The sink is borrowed; null means
  // journaling is off. `replaying_` suppresses journal appends and the
  // commit/failover verify gates while recover() re-applies records.
  durable::JournalSink* journal_ = nullptr;
  std::uint64_t journal_seq_ = 0;
  std::uint64_t journaled_health_version_ = 0;  // kHealth write watermark
  bool replaying_ = false;
  std::uint64_t epoch_ = 0;
  // Flap-damping state (FailoverPolicy::flap_window; docs/failures.md).
  // Keyed by durable::entityKey; serialized into checkpoints.
  std::map<std::uint64_t, durable::DeferredHeal> deferred_heals_;
  std::map<std::uint64_t, std::uint64_t> last_disturb_;

  // remove()-vs-in-flight-submission bookkeeping (guarded by mu_).
  // Staged submissions in their compile stage; while any are in flight, a
  // remove() of a not-yet-assigned user id is recorded as a cancellation
  // instead of kUnknownUser, and the first submission to reach commit
  // under that id (from any entry point) is refused.
  int inflight_staged_ = 0;
  std::set<int> cancelled_users_;
  std::function<void()> compile_gate_;  // test hook (see setCompileGate)

  // submitAsync worker bookkeeping: each worker flags `done` when its
  // task finishes, and the next submitAsync() reaps (joins) finished
  // workers so a long-lived service does not accumulate unjoined
  // threads. waitForAsync()/the destructor join everything.
  struct AsyncWorker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex async_mu_;
  std::vector<AsyncWorker> async_workers_;
};

}  // namespace clickinc::core
