#include "core/service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "place/blockdag.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::core {

namespace {

// Maps the in-flight exception (call from a catch block only) onto the
// structured error taxonomy. Order matters: most-derived first.
ServiceError errorFromCurrentException(Stage stage) {
  try {
    throw;
  } catch (const UnknownTemplateError& e) {
    return {ErrorCode::kUnknownTemplate, stage, e.what()};
  } catch (const ParseError& e) {
    return {ErrorCode::kParseError, stage, e.what()};
  } catch (const CompileError& e) {
    return {ErrorCode::kLowerError, stage, e.what()};
  } catch (const UnavailableError& e) {
    // Transient by definition: a required element is down or draining
    // right now; the same request may succeed after heal/failover.
    ServiceError err{ErrorCode::kUnavailable, stage, e.what()};
    err.retryable = true;
    return err;
  } catch (const PlacementError& e) {
    return {ErrorCode::kInfeasible, stage, e.what()};
  } catch (const SynthesisError& e) {
    return {ErrorCode::kDeployFailed, stage, e.what()};
  } catch (const std::exception& e) {
    return {ErrorCode::kInternal, stage, e.what()};
  } catch (...) {
    return {ErrorCode::kInternal, stage, "unknown exception"};
  }
}

ServiceError placementFailure(const place::PlacementPlan& plan, Stage stage) {
  ServiceError err{plan.resource_limited ? ErrorCode::kResourceExhausted
                                         : ErrorCode::kInfeasible,
                   stage, plan.failure};
  // Capacity pressure eases when other tenants leave or failover frees
  // claims; structural infeasibility never does.
  err.retryable = plan.resource_limited;
  return err;
}

// Stranded-capacity diagnostic (docs/defrag.md): a kResourceExhausted
// whose demand would have fit the fabric's aggregate free capacity failed
// on fragmentation, not capacity — annotate the error so callers (and the
// churn harness) can tell the two apart.
void annotateResourceFailure(ServiceError* err, const ir::IrProgram& prog,
                             const place::OccupancyMap& occ,
                             const topo::Topology& topo) {
  if (err->code != ErrorCode::kResourceExhausted) return;
  err->stranded = defrag::diagnoseStranded(prog, occ, topo).stranded;
  err->detail += err->stranded
                     ? " [stranded capacity: aggregate free fits the demand"
                       " — fragmentation; defragment() may help]"
                     : " [true exhaustion: aggregate free cannot fit the"
                       " demand]";
}

// Structural sanity of a decoded (journal / checkpoint) plan against its
// decoded program before any index is dereferenced. Journal framing only
// proves the bytes match their CRC — a corrupted-but-CRC-consistent
// record must fail replay with a thrown check (-> structured kRecovery),
// never walk off a vector. Plans produced by the placer in-process never
// need this.
void validateReplayPlan(const place::PlacementPlan& plan,
                        const ir::IrProgram& prog,
                        const place::OccupancyMap& occ) {
  const auto ninstr = static_cast<int>(prog.instrs.size());
  const auto nstates = static_cast<int>(prog.states.size());
  auto checkIntra = [&](int dev, const place::IntraPlacement& p) {
    if (p.instr_idxs.empty()) return;
    // of() throws on non-programmable / out-of-range devices.
    const auto& docc = occ.of(dev);
    const bool pipeline = docc.model->arch == device::Arch::kPipeline;
    CLICKINC_CHECK(!pipeline || p.stage_of.size() == p.instr_idxs.size(),
                   cat("replay plan: stage/instr arity mismatch on device ",
                       dev));
    for (std::size_t k = 0; k < p.instr_idxs.size(); ++k) {
      const int idx = p.instr_idxs[k];
      CLICKINC_CHECK(idx >= 0 && idx < ninstr,
                     cat("replay plan: instr index ", idx,
                         " outside program of ", ninstr));
      CLICKINC_CHECK(
          prog.instrs[static_cast<std::size_t>(idx)].state_id < nstates,
          cat("replay plan: instr ", idx, " references state outside ",
              nstates));
      if (pipeline) {
        const int s = p.stage_of[k];
        CLICKINC_CHECK(
            s >= 0 && s < static_cast<int>(docc.free_stage.size()),
            cat("replay plan: stage ", s, " outside device ", dev));
      }
    }
  };
  for (const auto& a : plan.assignments) {
    for (const auto& [dev, p] : a.on_device) checkIntra(dev, p);
    for (const auto& [dev, p] : a.on_bypass) checkIntra(dev, p);
  }
}

// The same for a decoded checkpoint's health state: every health byte and
// deferred-heal enum must be in range, and every deferred heal must name a
// node or link of this topology, before effectiveHealthLocked() indexes
// by it.
void validateCheckpointHealth(const durable::CheckpointRecord& cp,
                              const topo::Topology& topo) {
  const auto valid = [](std::uint8_t h) {
    return h <= static_cast<std::uint8_t>(topo::Health::kDown);
  };
  for (std::uint8_t h : cp.node_health) {
    CLICKINC_CHECK(valid(h), cat("checkpoint restore: node health ", +h));
  }
  for (std::uint8_t h : cp.link_health) {
    CLICKINC_CHECK(valid(h), cat("checkpoint restore: link health ", +h));
  }
  for (const auto& [key, dh] : cp.deferred_heals) {
    CLICKINC_CHECK(valid(static_cast<std::uint8_t>(dh.from)),
                   cat("checkpoint restore: deferred heal ", key,
                       " from health ", static_cast<int>(dh.from)));
    if (dh.kind == topo::FailureEvent::Kind::kNode) {
      CLICKINC_CHECK(dh.node >= 0 && dh.node < topo.nodeCount(),
                     cat("checkpoint restore: deferred heal of node ",
                         dh.node, " outside the topology"));
    } else {
      CLICKINC_CHECK(dh.kind == topo::FailureEvent::Kind::kLink,
                     cat("checkpoint restore: deferred heal ", key,
                         " of kind ", static_cast<int>(dh.kind)));
      CLICKINC_CHECK(topo.linkIndex(dh.link_a, dh.link_b) >= 0,
                     cat("checkpoint restore: deferred heal of link ",
                         dh.link_a, "-", dh.link_b, " outside the topology"));
    }
  }
}

}  // namespace

// The block DAG and EC tree a placement runs on. A compile builds both;
// a commit-stage re-place keeps the DAG, and the tree unless health moved.
struct ClickIncService::PlaceInputs {
  std::optional<place::BlockDag> dag;  // points into the placed program
  std::optional<topo::EcTree> tree;
};

// What a compile stage captures under the lock: the pinned pool (a
// setConcurrency swap cannot destroy it mid-compile), the request's
// placement domain with its version, adaptive-ratio scope and IntraMemo
// shard (kCrossDomain / global version / nullptr / the global memo when
// sharding is off or the traffic crosses pods), the service epoch, and
// the EC partition of live health with that health's version.
struct ClickIncService::CompileScope {
  std::shared_ptr<util::ThreadPool> pool;
  int domain = scale::kCrossDomain;
  std::uint64_t version = 0;
  const std::vector<int>* ratio = nullptr;
  std::shared_ptr<place::IntraMemo> memo;
  std::uint64_t epoch = 0;
  std::shared_ptr<const topo::EcPartition> partition;
  std::uint64_t health_version = 0;
};

// Output of the compile stage: everything the commit stage needs to
// validate and deploy without recomputing, or a structured compile error.
// Commit checks every assumption in `scope` against live state. The block
// DAG holds a pointer into *prog, so the program is heap-pinned.
struct ClickIncService::Speculative {
  CompileScope scope;
  std::shared_ptr<ir::IrProgram> prog;
  PlaceInputs in;
  place::PlacementPlan plan;
  ServiceError error;  // frontend failure; placement failures live in plan
};

ClickIncService::ClickIncService(topo::Topology topo, std::uint64_t seed)
    : topo_(std::move(topo)),
      base_(synth::makeDefaultBase()),
      ledger_(&topo_),
      emu_(&topo_, seed, &plan_cache_) {}

ClickIncService::~ClickIncService() { waitForAsync(); }

synth::DeviceProgram& ClickIncService::deviceProgram(int node) {
  auto it = device_programs_.find(node);
  if (it == device_programs_.end()) {
    it = device_programs_
             .emplace(node, std::make_unique<synth::DeviceProgram>(
                                &base_, &topo_.node(node).model))
             .first;
  }
  return *it->second;
}

void ClickIncService::setConcurrency(int threads) {
  waitForAsync();
  if (threads == 0) threads = util::ThreadPool::hardwareConcurrency();
  // mu_ excludes in-flight submits/commits; compile stages that already
  // pinned the old pool keep it alive through their shared_ptr copy.
  std::lock_guard<std::mutex> lock(mu_);
  concurrency_ = std::max(1, threads);
  if (concurrency_ <= 1) {
    emu_.setThreadPool(nullptr);
    pool_.reset();
    return;
  }
  pool_ = std::make_shared<util::ThreadPool>(concurrency_);
  emu_.setThreadPool(pool_.get());
}

// --- placement domains (docs/scale.md) ----------------------------------

void ClickIncService::setDomainSharding(bool on) {
  waitForAsync();  // quiescence: no compile stage may hold stale handles
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.setDomainSharding(on);
  domain_memos_.clear();
  if (!on) return;
  const int pods = ledger_.domainIndex()->domainCount();
  domain_memos_.reserve(static_cast<std::size_t>(pods));
  for (int d = 0; d < pods; ++d) {
    domain_memos_.push_back(std::make_shared<place::IntraMemo>());
  }
}

ir::IrProgram ClickIncService::compileFrontend(SubmitRequest& req) const {
  switch (req.kind) {
    case SubmitRequest::Kind::kTemplate:
      return lib_.compileTemplate(req.template_name,
                                  toLower(req.template_name), req.params);
    case SubmitRequest::Kind::kSource:
      return lib_.compileUser(req.source, "user", req.header, req.constants);
    case SubmitRequest::Kind::kProgram:
      // Moved, not copied: the frontend runs once per attempt.
      return std::move(req.program);
  }
  throw InternalError("unhandled SubmitRequest kind");
}

// --- the public surface -------------------------------------------------

SubmitResult ClickIncService::submit(SubmitRequest req) {
  return submitWithRetry(std::move(req), /*staged=*/false);
}

SubmissionTicket ClickIncService::submitAsync(SubmitRequest req) {
  auto task = std::make_shared<std::packaged_task<SubmitResult()>>(
      [this, r = std::move(req)]() mutable {
        return submitWithRetry(std::move(r), /*staged=*/true);
      });
  SubmissionTicket ticket(task->get_future().share());
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::lock_guard<std::mutex> lock(async_mu_);
  // Reap workers whose tasks already finished so a long-lived service
  // does not accumulate unjoined threads between waitForAsync() calls.
  for (auto it = async_workers_.begin(); it != async_workers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = async_workers_.erase(it);
    } else {
      ++it;
    }
  }
  async_workers_.push_back(
      {std::thread([task, done] {
         (*task)();
         done->store(true, std::memory_order_release);
       }),
       done});
  return ticket;
}

void ClickIncService::waitForAsync() {
  std::vector<AsyncWorker> workers;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    workers.swap(async_workers_);
  }
  for (auto& w : workers) {
    if (w.thread.joinable()) w.thread.join();
  }
}

std::vector<SubmitResult> ClickIncService::submitAll(
    std::vector<SubmitRequest> requests) {
  std::vector<SubmitResult> out;
  out.reserve(requests.size());
  // Batch semantics: no per-request retry (results must stay bit-identical
  // to sequential submits, and the parallel path commits exactly once).
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<util::ThreadPool> pool = pool_;  // pinned
  if (pool == nullptr || pool->threadCount() <= 1 || requests.size() <= 1) {
    lock.unlock();
    for (auto& req : requests) out.push_back(submitOnce(req, false));
    return out;
  }

  // Stage 1: speculative compiles, all against one occupancy snapshot.
  const place::OccupancyMap snapshot = ledger_.occupancy();
  std::vector<CompileScope> scopes;
  scopes.reserve(requests.size());
  for (const auto& req : requests) {
    scopes.push_back(compileScopeLocked(req.traffic));
  }
  lock.unlock();
  std::vector<Speculative> specs(requests.size());
  pool->parallelFor(requests.size(), [&](std::size_t i) {
    specs[i] = compileSpeculative(requests[i], std::move(scopes[i]), snapshot,
                                  nullptr);
  });

  // Stage 2: serialized commits in request order — deterministic user
  // ids, occupancy evolution, and deployment order.
  lock.lock();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.push_back(commitSpeculative(std::move(specs[i]), requests[i]));
  }
  return out;
}

RemoveResult ClickIncService::remove(int user_id, bool lazy) {
  std::lock_guard<std::mutex> lock(mu_);
  RemoveResult out;
  if (ledger_.deployments().count(user_id) == 0) {
    // The id may belong to a staged submission still in its compile
    // stage (user ids are assigned at commit, in order). Record the
    // removal as a cancellation: the first submission to reach commit
    // under that id fails with kUnknownUser instead of deploying a
    // removed tenant.
    if (user_id >= next_user_ && inflight_staged_ > 0) {
      cancelled_users_.insert(user_id);
      out.ok = true;
      return out;
    }
    out.error = {ErrorCode::kUnknownUser, Stage::kRemove,
                 cat("user ", user_id, " has no active deployment")};
    return out;
  }

  if (journal_ != nullptr && !replaying_) {
    durable::RemoveRecord rec;
    rec.user = user_id;
    rec.lazy = lazy;
    journalAppendLocked(durable::RecordType::kRemove,
                        durable::encodeRemove(rec));
  }
  doRemoveLocked(user_id, lazy, &out);
  return out;
}

void ClickIncService::doRemoveLocked(int user_id, bool lazy,
                                     RemoveResult* outp) {
  RemoveResult& out = *outp;
  const Deployed& dep = ledger_.deployments().at(user_id);
  for (int device : place::claimedDevices(dep.plan)) {
    const auto stats = deviceProgram(device).removeUser(user_id, lazy);
    out.impact.affected_devices.insert(device);
    for (int u : stats.other_users_affected) {
      out.impact.affected_users.insert(u);
    }
    // Even lazy removal affects co-resident programs when the strip is
    // later enforced; report active co-residents for Table 6 parity.
    for (int u : deviceProgram(device).activeUsers()) {
      if (u != user_id) out.impact.affected_users.insert(u);
    }
    emu_.undeploy(device, user_id);
  }
  out.impact.affected_pods = podsCrossing(out.impact.affected_devices);
  // Resources are recorded as released immediately (§6), even when the
  // data-plane strip is deferred (lazy enforcement).
  ledger_.release(dep.plan, *dep.prog);
  ledger_.erase(user_id);
  out.ok = true;
}

// --- pipeline stages ----------------------------------------------------

place::PlacementPlan ClickIncService::placeTenant(
    const ir::IrProgram& prog, const topo::TrafficSpec& traffic,
    const topo::EcPartition& partition, const place::OccupancyMap& occ,
    place::PlacementOptions opts, util::ThreadPool* pool,
    const std::vector<int>* ratio, place::PlacementArena* arena,
    PlaceInputs* in) const {
  PlaceInputs local;
  if (in == nullptr) in = &local;
  if (!in->dag) in->dag = place::BlockDag::build(prog);
  // buildEcTree throws PlacementError for structurally hopeless traffic
  // (unreachable destination, no device on any path).
  if (!in->tree) in->tree = topo::buildEcTree(topo_, traffic, partition);
  if (opts.pool == nullptr) opts.pool = pool;
  // Domain sharding scopes the adaptive ratio to the request's pod on
  // every path, so sharded submitAll stays bit-identical to sequential
  // submits.
  if (opts.ratio_devices == nullptr) opts.ratio_devices = ratio;
  return place::placeProgram(*in->dag, *in->tree, topo_, occ, opts, arena);
}

place::PlacementPlan ClickIncService::placeLocked(
    const ir::IrProgram& prog, const topo::TrafficSpec& traffic,
    const topo::EcPartition& partition, const place::OccupancyMap& occ,
    const place::PlacementOptions& opts, PlaceInputs* in) {
  return placeTenant(prog, traffic, partition, occ, opts, pool_.get(),
                     ledger_.domainDevices(ledger_.domainOf(traffic)),
                     &arena_, in);
}

ClickIncService::CompileScope ClickIncService::compileScopeLocked(
    const topo::TrafficSpec& traffic) {
  CompileScope scope;
  scope.pool = pool_;
  scope.domain = ledger_.domainOf(traffic);
  scope.version = ledger_.version(scope.domain);
  scope.ratio = ledger_.domainDevices(scope.domain);
  scope.memo = scope.domain == scale::kCrossDomain
                   ? arena_.memoHandle()
                   : domain_memos_[static_cast<std::size_t>(scope.domain)];
  scope.epoch = epoch_;
  scope.partition = partitionLocked(topo_.healthView());
  scope.health_version = topo_.healthVersion();
  return scope;
}

std::shared_ptr<const topo::EcPartition> ClickIncService::partitionLocked(
    const topo::HealthView& health) {
  if (partition_ == nullptr || !partition_->builtFor(health)) {
    partition_ = std::make_shared<const topo::EcPartition>(
        topo::EcPartition::build(topo_, &health));
  }
  return partition_;
}

std::shared_ptr<const topo::EcPartition> ClickIncService::ecPartition(
    const topo::HealthView& health) {
  std::lock_guard<std::mutex> lock(mu_);
  return partitionLocked(health);
}

topo::HealthView ClickIncService::effectiveHealth() {
  std::lock_guard<std::mutex> lock(mu_);
  return effectiveHealthLocked();
}

ClickIncService::Speculative ClickIncService::compileSpeculative(
    SubmitRequest& req, CompileScope scope, const place::OccupancyMap& occ,
    place::PlacementArena* arena) {
  Speculative spec;
  spec.scope = std::move(scope);
  const CompileScope& sc = spec.scope;
  try {
    spec.prog = std::make_shared<ir::IrProgram>(compileFrontend(req));
  } catch (...) {
    spec.error = errorFromCurrentException(Stage::kCompile);
    return spec;
  }
  try {
    // Private scratch over the shared memo: the DP tables are not
    // shareable between concurrent placements, but the intra-placement
    // memo is thread-safe, so concurrent tenants compiling identical
    // segments against the same snapshot pay for one placeCompact
    // between them. With domain sharding the memo is the request's
    // pod-sharded one, so disjoint pods never contend on its shards.
    std::optional<place::PlacementArena> own;
    if (arena == nullptr) arena = &own.emplace(sc.memo);
    // The scope's immutable partition (not live health) keeps an unlocked
    // compile race-free against concurrent failNode()/healNode(); a stale
    // view is caught at commit time and re-placed.
    spec.plan = placeTenant(*spec.prog, req.traffic, *sc.partition, occ,
                            req.options, sc.pool.get(), sc.ratio, arena,
                            &spec.in);
  } catch (...) {
    spec.error = errorFromCurrentException(Stage::kCompile);
  }
  return spec;
}

SubmitResult ClickIncService::submitWithRetry(SubmitRequest req,
                                              bool staged) {
  // A request's own policy takes precedence over the service-wide one.
  const RetryPolicy policy =
      req.retry.max_attempts > 0 ? req.retry : retryPolicy();
  const int max_attempts = std::max(1, policy.max_attempts);
  if (max_attempts == 1) return submitOnce(req, staged);
  // Retry loop: each attempt works on a fresh copy of the request (a
  // kProgram payload is moved out by the frontend compile, so the
  // original must survive for the next attempt). The lock is dropped
  // between attempts — a concurrent remove()/failover can free the
  // resources the retry needs. Backoff is charged deterministically to
  // the result; no wall-clock sleeps.
  double backoff = 0;
  for (int attempt = 1;; ++attempt) {
    SubmitRequest attempt_req = req;
    SubmitResult result = submitOnce(attempt_req, staged);
    result.attempts = attempt;
    result.backoff_ms = backoff;
    if (result.ok || !result.error.retryable || attempt >= max_attempts) {
      return result;
    }
    backoff += policy.delayMs(attempt + 1);
  }
}

SubmitResult ClickIncService::submitOnce(SubmitRequest& req, bool staged) {
  std::unique_lock<std::mutex> lock(mu_);
  CompileScope scope = compileScopeLocked(req.traffic);
  const place::OccupancyMap& live = ledger_.occupancy();
  if (!staged) {
    // Sync: with the lock held across both stages, the live ledger IS the
    // snapshot, so the commit validates without re-placing. This is also
    // the reference semantics submitAll must reproduce bit-identically.
    return commitSpeculative(
        compileSpeculative(req, std::move(scope), live, &arena_), req);
  }
  // A single-pod placement never reads beyond its domain's devices, so
  // its snapshot is sparse and pod-only (of() on an unlisted device fails
  // loudly, not silently); the escape path copies the full ledger.
  const place::OccupancyMap snapshot =
      scope.domain == scale::kCrossDomain
          ? live
          : place::OccupancyMap(&topo_, live, *scope.ratio);
  ++inflight_staged_;
  const std::function<void()> gate = compile_gate_;
  lock.unlock();
  if (gate) gate();  // test hook: deterministic remove()-race window
  Speculative spec =
      compileSpeculative(req, std::move(scope), snapshot, nullptr);
  lock.lock();
  --inflight_staged_;
  SubmitResult result = commitSpeculative(std::move(spec), req);
  // Cancellations can only target in-flight submissions; once none are
  // left, pending entries are stale (their ids will be re-assigned).
  if (inflight_staged_ == 0) cancelled_users_.clear();
  return result;
}

SubmitResult ClickIncService::commitSpeculative(Speculative&& spec,
                                                SubmitRequest& req) {
  SubmitResult result;
  result.user_id = next_user_;
  // A recover() completed while this submission compiled: its snapshot
  // and cancellation bookkeeping describe the pre-crash world. Refuse to
  // commit into the new epoch; the caller may resubmit.
  if (spec.scope.epoch != epoch_) {
    result.error = {ErrorCode::kUnavailable, Stage::kCommit,
                    "service recovered while the submission was in flight"};
    result.error.retryable = true;
    return result;
  }
  // A remove() issued while a staged submission compiled wins the race:
  // the first submission to reach commit under the cancelled id — from
  // any entry point — is refused, so nothing deploys under it and
  // occupancy is untouched.
  if (cancelled_users_.erase(next_user_) > 0) {
    result.error = {ErrorCode::kUnknownUser, Stage::kCommit,
                    cat("user ", next_user_,
                        " was removed before its submission committed")};
    return result;
  }
  if (!spec.error.ok()) {
    // Frontend failures depend on neither occupancy nor the user id;
    // report them as-is.
    result.error = spec.error;
    return result;
  }

  // Optimistic-concurrency validation: any occupancy mutation since the
  // snapshot (a commit, remove, rollback, or failover) invalidates the
  // speculative plan — both resource feasibility and the adaptive weights
  // depend on occupancy — so re-place against live state, exactly as a
  // sequential submit would have. A health move additionally invalidates
  // the EC tree itself (dead devices must not be placement targets), so
  // the tree is rebuilt over live health's partition. The commit stage
  // is serialized, so this happens at most once per submission. A single-pod
  // speculative plan validates against its pod's version counter: every
  // ledger mutation of a pod device bumps it, so commits confined to other
  // pods never force a re-place here.
  const bool health_moved =
      topo_.healthVersion() != spec.scope.health_version;
  const bool occ_moved =
      ledger_.version(spec.scope.domain) != spec.scope.version;
  if (health_moved || occ_moved) {
    if (health_moved) {
      spec.in.tree.reset();
      spec.scope.partition = partitionLocked(topo_.healthView());
    }
    try {
      spec.plan = placeLocked(*spec.prog, req.traffic, *spec.scope.partition,
                              ledger_.occupancy(), req.options, &spec.in);
    } catch (...) {
      result.error = errorFromCurrentException(Stage::kCommit);
      return result;
    }
    result.recompiled = true;
  }
  cumulative_stats_.add(spec.plan.stats);
  result.plan = std::move(spec.plan);
  if (!result.plan.feasible &&
      !reactiveCompactionLocked(&result, *spec.prog, req.traffic,
                                req.options)) {
    result.error = placementFailure(
        result.plan, result.recompiled ? Stage::kCommit : Stage::kCompile);
    annotateResourceFailure(&result.error, *spec.prog, ledger_.occupancy(),
                            topo_);
    return result;
  }

  // The id exists from here on: name the tenant's program after it before
  // the kCommit record and the deploy see it.
  if (req.kind != SubmitRequest::Kind::kProgram) {
    modules::stampUser(*spec.prog, next_user_);
  }
  commitAndDeployLocked(&result, spec.prog, req.traffic, req.options);
  return result;
}

void ClickIncService::commitAndDeployLocked(
    SubmitResult* result, const std::shared_ptr<ir::IrProgram>& prog,
    const topo::TrafficSpec& traffic,
    const place::PlacementOptions& options) {
  // Write-ahead: the commit record lands before any in-memory mutation.
  // If the deploy or verify gate below fails, a compensating kAbort
  // follows; replaying kCommit then kAbort reproduces the unwind.
  if (journal_ != nullptr && !replaying_) {
    durable::CommitRecord rec;
    rec.user = next_user_;
    rec.prog = *prog;
    rec.plan = result->plan;
    rec.traffic = traffic;
    rec.options = options;  // the pool and ratio scope are not serialized
    journalAppendLocked(durable::RecordType::kCommit,
                        durable::encodeCommit(rec));
  }
  ledger_.claim(result->plan, *prog);
  const int user = next_user_;
  result->user_id = user;
  auto journalAbort = [&] {
    durable::AbortRecord rec;
    rec.user = user;
    journalAppendLocked(durable::RecordType::kAbort,
                        durable::encodeAbort(rec));
  };
  const auto layout = ir::ParamLayout::of(*prog);
  try {
    deployPlan(user, prog, layout, result->plan, &result->impact);
  } catch (...) {
    result->error = errorFromCurrentException(Stage::kDeploy);
    rollbackDeployLocked(user, prog, result->plan);
    result->impact = Impact{};
    journalAbort();
    return;
  }
  ledger_.add(user, {prog, layout, result->plan, traffic, options});

  // Verification gate: a violation means the pipeline produced an
  // inconsistent deployment — fail the submission and unwind it rather
  // than publish a corrupt plan.
  result->verify = commitGateLocked(user, place::claimedDevices(result->plan));
  if (!result->verify.ok()) {
    ledger_.erase(user);
    rollbackDeployLocked(user, prog, result->plan);
    result->error = {ErrorCode::kVerification, Stage::kCommit,
                     result->verify.summary()};
    result->impact = Impact{};
    journalAbort();
    return;
  }

  result->impact.affected_pods = podsCrossing(result->impact.affected_devices);
  result->ok = true;
  ++next_user_;
}

// Best-effort unwind of a half-applied deployment: strip the user from
// every device program and the emulator, and return the claimed
// resources. The user id was never published, so co-resident programs
// only see a lazy-strip enforcement.
void ClickIncService::rollbackDeployLocked(
    int user, const std::shared_ptr<ir::IrProgram>& prog,
    const place::PlacementPlan& plan) {
  stripLocked(user, place::claimedDevices(plan));
  ledger_.release(plan, *prog);
}

void ClickIncService::stripLocked(int user, const std::set<int>& devices,
                                  const std::function<bool(int)>& surviving) {
  for (int device : devices) {
    if (surviving && !surviving(device)) continue;
    deviceProgram(device).removeUser(user, /*lazy=*/false);
    emu_.undeploy(device, user);
  }
}

void ClickIncService::deployPlan(
    int user, const std::shared_ptr<ir::IrProgram>& prog,
    const std::shared_ptr<const ir::ParamLayout>& layout,
    const place::PlacementPlan& plan, Impact* impact,
    const std::vector<char>* skip_assignments) {
  // Visits every non-empty segment in plan order with the block-step range
  // [step_from, step_to) it implements.
  const auto forEachSegment = [&](const auto& visit) {
    for (std::size_t ai = 0; ai < plan.assignments.size(); ++ai) {
      const auto& a = plan.assignments[ai];
      if (skip_assignments != nullptr && (*skip_assignments)[ai]) continue;
      if (a.to_block <= a.from_block) continue;
      const int split = a.bypass_from >= 0 ? a.bypass_from : a.to_block;
      for (const auto& [dev, p] : a.on_device) {
        if (!p.instr_idxs.empty()) visit(dev, p, a.from_block, split);
      }
      for (const auto& [dev, p] : a.on_bypass) {
        if (!p.instr_idxs.empty()) visit(dev, p, split, a.to_block);
      }
    }
  };
  // Every snippet is merged (sharing the tenant's program) before the
  // first emulator deploy, so a failed deploy always leaves the same
  // state for the caller's strip to unwind.
  forEachSegment([&](int dev, const place::IntraPlacement& p, int, int) {
    const auto stats =
        deviceProgram(dev).addSnippet({user, prog, p.instr_idxs});
    impact->affected_devices.insert(dev);
    impact->affected_users.insert(stats.other_users_affected.begin(),
                                  stats.other_users_affected.end());
  });
  forEachSegment([&](int dev, const place::IntraPlacement& p, int step_from,
                     int step_to) {
    if (inject_deploy_fail_ == 0) {
      inject_deploy_fail_ = -1;
      throw SynthesisError("injected deploy failure (test hook)");
    }
    if (inject_deploy_fail_ > 0) --inject_deploy_fail_;
    emu::DeploymentEntry entry;
    entry.user_id = user;
    entry.prog = prog;
    entry.params.layout = layout;
    entry.instr_idxs = p.instr_idxs;
    entry.step_from = step_from;
    entry.step_to = step_to;
    emu_.deploy(dev, std::move(entry));
  });
}

// --- failure-domain runtime ---------------------------------------------

void ClickIncService::setRetryPolicy(RetryPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  retry_policy_ = policy;
}

RetryPolicy ClickIncService::retryPolicy() {
  std::lock_guard<std::mutex> lock(mu_);
  return retry_policy_;
}

void ClickIncService::setFailoverPolicy(FailoverPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  failover_policy_ = policy;
}

FailoverReport ClickIncService::applyFault(const emu::FaultAction& action) {
  std::lock_guard<std::mutex> lock(mu_);
  emu::applyAction(topo_, action);
  return handleEventsLocked();
}

void ClickIncService::armFaultInjector(std::uint64_t seed,
                                       emu::FaultOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = std::make_unique<emu::FaultInjector>(&topo_, seed, opts);
}

FailoverReport ClickIncService::stepFault() {
  std::lock_guard<std::mutex> lock(mu_);
  CLICKINC_CHECK(injector_ != nullptr,
                 "stepFault() before armFaultInjector()");
  injector_->step();
  return handleEventsLocked();
}

FailoverReport ClickIncService::processFailures() {
  std::lock_guard<std::mutex> lock(mu_);
  return handleEventsLocked();
}

void ClickIncService::injectDeployFailureAfter(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  inject_deploy_fail_ = n;
}

void ClickIncService::setCompileGate(std::function<void()> gate) {
  std::lock_guard<std::mutex> lock(mu_);
  compile_gate_ = std::move(gate);
}

// --- plan verification --------------------------------------------------

void ClickIncService::setVerifyPolicy(VerifyPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  verify_policy_ = policy;
}

verify::VerifyReport ClickIncService::verifyDeployments() {
  std::lock_guard<std::mutex> lock(mu_);
  return auditLocked({});
}

verify::VerifyReport ClickIncService::verifyDomain(int pod) {
  std::lock_guard<std::mutex> lock(mu_);
  verify::VerifyOptions opts;
  const scale::DomainIndex* domains = ledger_.domainIndex();
  if (domains != nullptr && pod >= 0 && pod < domains->domainCount()) {
    const auto& devs = domains->domainDevices(pod);
    opts.scope_devices.insert(devs.begin(), devs.end());
    // Per-tenant checks cover every tenant whose plan touches the pod —
    // the same field-for-field occupancy reconciliation the full audit
    // runs, restricted to this domain's slice of the ledger.
    for (const auto& [user, dep] : ledger_.deployments()) {
      for (int dev : place::claimedDevices(dep.plan)) {
        if (opts.scope_devices.count(dev) != 0) {
          opts.scope_users.insert(user);
          break;
        }
      }
    }
    if (opts.scope_users.empty()) {
      // No tenant touches the pod: scope to an impossible user id so the
      // per-tenant passes stay empty instead of widening to everyone.
      opts.scope_users.insert(-1);
    }
  }
  return auditLocked(opts);
}

verify::Snapshot ClickIncService::verifySnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  verify::Snapshot snap(&topo_);
  snap.occ = ledger_.occupancy();
  snap.plan_options.fuse = emu_.options().fuse_plans;
  for (const auto& [user, dep] : ledger_.deployments()) {
    snap.tenants.push_back({user, *dep.prog, dep.plan});
  }
  return snap;
}

verify::VerifyReport ClickIncService::commitGateLocked(
    int user, std::set<int> devices) {
  if (!verify_policy_.at_commit || replaying_) return {};
  verify::VerifyOptions opts;
  opts.scope_users = {user};
  opts.scope_devices = std::move(devices);
  return auditLocked(opts);
}

verify::VerifyReport ClickIncService::auditLocked(
    const verify::VerifyOptions& opts) {
  const auto& deployed = ledger_.deployments();
  std::vector<verify::TenantView> views;
  views.reserve(deployed.size());
  for (const auto& [user, dep] : deployed) {
    views.push_back({user, dep.prog.get(), &dep.plan});
  }
  verify::VerifyOptions run = opts;
  // Match the emulator's plan compilation exactly and reuse its cache, so
  // the fused-plan scan inspects the very records the data plane runs
  // (and commit-stage checks are cache hits, not recompiles).
  run.plan_options = {};
  run.plan_options.fuse = emu_.options().fuse_plans;
  run.plan_cache = &plan_cache_;
  return verify::verifyDeployments(views, topo_, ledger_.occupancy(), run);
}

void ClickIncService::wipeDeviceLocked(int node) {
  ledger_.wipe(node);
  emu_.undeployDevice(node);
  device_programs_.erase(node);
}

FailoverReport ClickIncService::handleEventsLocked() {
  FailoverReport report;
  report.health_version = topo_.healthVersion();
  // Write-ahead: every new failure-log event becomes a kHealth record
  // before this batch mutates occupancy or deployments. The batch outcome
  // is summarized write-behind as one kFailover record at the end; a
  // crash in between is healed by recover()'s completion re-run.
  journalHealthLocked();
  std::vector<topo::FailureEvent> evs;
  for (const auto& ev : topo_.failureLog()) {
    if (ev.version > processed_health_version_) evs.push_back(ev);
  }
  processed_health_version_ = topo_.healthVersion();

  // Flap-damping classification (FailoverPolicy::flap_window; off at 0).
  // Disturbances (Down / Draining) always act. A heal whose entity was
  // disturbed within the window is deferred: the topology transition
  // stays applied, but the failover reaction (re-placement / server-only
  // upgrade toward the entity) waits until the entity is quiet past the
  // window. Windows are measured in health-version ticks, which advance
  // only with new events — deterministic and replayable, never wall
  // clock.
  const std::uint64_t window = failover_policy_.flap_window;
  struct Acted {
    topo::FailureEvent ev;
    bool fired = false;  // a previously deferred heal firing now
  };
  std::vector<Acted> acted;
  std::set<int> wiped;
  for (const auto& ev : evs) {
    const std::uint64_t key = durable::entityKey(ev);
    if (ev.to != topo::Health::kUp) {
      last_disturb_[key] = ev.version;
      deferred_heals_.erase(key);  // entity went back down: cancel upgrade
      acted.push_back({ev, false});
      continue;
    }
    auto disturb = last_disturb_.find(key);
    if (window > 0 && disturb != last_disturb_.end() &&
        ev.version - disturb->second <= window) {
      deferred_heals_[key] = ev;
      ++report.damped_events;
      // Reboot hygiene is never deferred: the device came back empty, so
      // stale claims/programs/state must go now even though the upgrade
      // back onto it waits.
      if (ev.kind == topo::FailureEvent::Kind::kNode &&
          ev.from == topo::Health::kDown) {
        wipeDeviceLocked(ev.node);
        wiped.insert(ev.node);
      }
      continue;
    }
    acted.push_back({ev, false});
  }

  // Deferred heals ripen when the log moves past their entity's quiet
  // window. Purely version-driven: a ripe check at an unchanged version
  // fired last batch already (or will fire when the next event lands).
  const std::uint64_t now_v = topo_.healthVersion();
  for (auto it = deferred_heals_.begin(); it != deferred_heals_.end();) {
    auto disturb = last_disturb_.find(it->first);
    const std::uint64_t base =
        disturb == last_disturb_.end() ? 0 : disturb->second;
    if (now_v - base > window) {
      acted.push_back({it->second, true});
      it = deferred_heals_.erase(it);
    } else {
      ++it;
    }
  }

  if (evs.empty() && acted.empty()) return report;

  // Phase 1 — device hygiene. A dead device loses everything: occupancy
  // back to fresh (claims on it must never leak), device program gone,
  // emulator entries and state store cleared. A reboot (Down -> Up) is
  // the same wipe: the device comes back empty, it does not resurrect
  // pre-failure claims. A *fired* reboot was wiped when it was damped and
  // must not be wiped again — a tenant may have legitimately placed onto
  // it through the live-health commit path during the quiet window.
  bool any_heal = false;
  for (const auto& a : acted) {
    const auto& ev = a.ev;
    if (ev.kind == topo::FailureEvent::Kind::kNode) {
      const bool died = ev.to == topo::Health::kDown;
      const bool rebooted =
          ev.to == topo::Health::kUp && ev.from == topo::Health::kDown;
      if ((died || rebooted) && !a.fired) {
        wipeDeviceLocked(ev.node);
        wiped.insert(ev.node);
      }
      if (ev.to == topo::Health::kUp) any_heal = true;
    } else if (ev.to == topo::Health::kUp) {
      any_heal = true;
    }
  }

  // Phase 2 — blast radius: a tenant is affected when a plan device is
  // no longer Up, when the healthy traffic path no longer covers a plan
  // device (rerouted around it), or — after a heal — when it runs
  // server-only and could win switch placement back. Ascending user id
  // keeps recovery deterministic. All checks run against the *effective*
  // health view — live health with deferred heals masked back to their
  // pre-heal state — so a damped entity attracts no re-placement.
  const topo::HealthView eff = effectiveHealthLocked();
  std::vector<int> affected;
  std::set<int> blast;
  for (const auto& [user, dep] : ledger_.deployments()) {
    const std::set<int> devs = place::claimedDevices(dep.plan);
    bool hit = false;
    if (devs.empty()) {
      hit = any_heal;  // server-only tenant: try the upgrade
    } else {
      for (int dev : devs) {
        if (eff.nodeAt(dev) != topo::Health::kUp) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        std::set<int> on_path;
        bool any_path = false;
        for (const auto& src : dep.traffic.sources) {
          const auto p =
              topo_.shortestPathUp(src.host, dep.traffic.dst_host, &eff);
          if (p.empty()) continue;
          any_path = true;
          for (int n : p) {
            on_path.insert(n);
            const int accel = topo_.node(n).attached_accel;
            if (accel >= 0) on_path.insert(accel);
          }
        }
        if (any_path) {
          for (int dev : devs) {
            if (on_path.count(dev) == 0) {
              hit = true;
              break;
            }
          }
        }
        // No healthy path at all: nothing to re-place onto. The tenant
        // stays pinned; its traffic reports kNoRoute until a heal.
      }
    }
    if (hit) {
      affected.push_back(user);
      blast.insert(devs.begin(), devs.end());
    }
  }
  blast.insert(wiped.begin(), wiped.end());
  report.blast_radius_devices = static_cast<int>(blast.size());

  // Phase 3 — recovery, per tenant in ascending id order, all against
  // one partition of the effective view.
  if (!affected.empty()) {
    const auto partition = partitionLocked(eff);
    for (int user : affected) {
      report.tenants.push_back(recoverTenantLocked(user, *partition));
    }
  }

  // Post-failover audit: re-placement, rollback, and device wipes all
  // mutated plans and the ledger; verify every surviving deployment
  // against the degraded topology before reporting success. Suppressed
  // during replay (recover() runs one full audit at the end).
  if (verify_policy_.at_failover && !replaying_) {
    report.verify = auditLocked({});
  }

  report.health_version = topo_.healthVersion();

  // Write-behind summary: replay re-runs this batch deterministically and
  // cross-checks these fields against the record.
  if (journal_ != nullptr && !replaying_) {
    durable::FailoverRecord rec;
    rec.processed_version = processed_health_version_;
    rec.damped_events = static_cast<std::uint32_t>(report.damped_events);
    rec.tenants = static_cast<std::uint32_t>(report.tenants.size());
    journalAppendLocked(durable::RecordType::kFailover,
                        durable::encodeFailover(rec));
  }
  return report;
}

TenantRecovery ClickIncService::recoverTenantLocked(
    int user, const topo::EcPartition& partition) {
  TenantRecovery rec;
  rec.user_id = user;
  const Deployed old = ledger_.deployments().at(user);

  auto surviving = [&](int dev) {
    return topo_.nodeHealth(dev) != topo::Health::kDown;
  };

  // 1. Release the tenant's surviving claims so the placer can reuse
  // them (claims on Down devices died with the device wipe). The old
  // data-plane — device programs and emulator entries — stays live until
  // the replacement commits below: make-before-break.
  ledger_.release(old.plan, *old.prog,
                  [&](int dev) { return !surviving(dev); });

  // 2. Re-place against the degraded topology (dead devices are not in
  // the EC tree; draining devices forward but take no placements). The
  // effective health view keeps flap-damped entities out of the tree.
  // The stored options carry no pool or ratio scope: both are service
  // config, re-resolved here.
  place::PlacementPlan new_plan;
  try {
    new_plan = placeLocked(*old.prog, old.traffic, partition,
                           ledger_.occupancy(), old.options);
    cumulative_stats_.add(new_plan.stats);
  } catch (...) {
    new_plan.feasible = false;
  }

  // Server-only degradation when no switch placement exists: a feasible
  // plan with no device assignments. The tenant's computation falls back
  // to its end hosts, its traffic crosses the fabric as plain packets,
  // and the program is preserved for a later upgrade on heal.
  const bool server_only = !new_plan.feasible;
  if (server_only) {
    new_plan = place::PlacementPlan{};
    new_plan.feasible = true;
  }

  // 3+4. Segment-diff pinning + make-before-break swap, shared with the
  // defragmentation executor (swapPlanLocked).
  const SwapResult swap =
      swapPlanLocked(user, old, new_plan, surviving, Stage::kFailover);
  if (!swap.swapped) {
    rec.error = swap.error;
    rec.outcome = swap.restored ? RecoveryOutcome::kPinned
                                : RecoveryOutcome::kInfeasible;
    return rec;
  }
  rec.segments_pinned = swap.segments_pinned;
  rec.segments_replaced =
      server_only ? static_cast<int>(old.plan.assignments.size())
                  : swap.segments_replaced;
  if (server_only) {
    rec.outcome = RecoveryOutcome::kServerOnly;
  } else if (rec.segments_replaced == 0) {
    rec.outcome = RecoveryOutcome::kPinned;  // re-placed onto itself
  } else {
    rec.outcome = RecoveryOutcome::kReplaced;
  }
  return rec;
}

ClickIncService::SwapResult ClickIncService::swapPlanLocked(
    int user, const Deployed& old, const place::PlacementPlan& new_plan,
    const std::function<bool(int)>& surviving, Stage stage) {
  SwapResult res;
  const place::PinDiff pins = place::pinUnchanged(old.plan, new_plan);

  // Swap: claim the new plan, strip the replaced part of the old
  // data-plane (pinned devices untouched by construction), deploy the new
  // segments.
  ledger_.claim(new_plan, *old.prog);
  stripLocked(user, pins.unpinned_old_devices, surviving);

  Impact impact;
  try {
    deployPlan(user, old.prog, old.layout, new_plan, &impact,
               &pins.pinned_new);
  } catch (...) {
    res.error = errorFromCurrentException(stage);
    // Roll the replacement back: strip its non-pinned deployments,
    // release every claim the new plan took, then restore the old
    // deployment (pruned to surviving devices). State stores are
    // per-device and survive strips, so restored segments keep their
    // registers.
    stripLocked(user, pins.unpinned_new_devices);
    ledger_.release(new_plan, *old.prog);
    place::PlacementPlan restore = old.plan;
    const auto dead = [&](const auto& kv) { return !surviving(kv.first); };
    for (auto& a : restore.assignments) {
      std::erase_if(a.on_device, dead);
      std::erase_if(a.on_bypass, dead);
    }
    ledger_.claim(restore, *old.prog);
    try {
      // Pruning keeps every assignment, so the old pins still line up.
      Impact dummy;
      deployPlan(user, old.prog, old.layout, restore, &dummy,
                 &pins.pinned_old);
      ledger_.add(user,
                  {old.prog, old.layout, restore, old.traffic, old.options});
      res.restored = true;  // old deployment live again
    } catch (...) {
      // Restore failed too: release everything and drop the tenant.
      rollbackDeployLocked(user, old.prog, restore);
      ledger_.erase(user);
    }
    return res;
  }

  ledger_.add(user,
              {old.prog, old.layout, new_plan, old.traffic, old.options});
  res.swapped = true;
  res.segments_pinned = static_cast<int>(
      std::count(pins.pinned_new.begin(), pins.pinned_new.end(), 1));
  res.segments_replaced =
      static_cast<int>(new_plan.assignments.size()) - res.segments_pinned;
  return res;
}

// --- defragmentation (docs/defrag.md) -----------------------------------

std::vector<defrag::TenantPlanView> ClickIncService::tenantViewsLocked()
    const {
  const auto& deployed = ledger_.deployments();
  std::vector<defrag::TenantPlanView> views;
  views.reserve(deployed.size());
  for (const auto& [user, dep] : deployed) views.push_back({user, &dep.plan});
  return views;
}

ClickIncService::SwapResult ClickIncService::applyMigrationLocked(
    int user, const place::PlacementPlan& new_plan, Stage stage) {
  const Deployed old = ledger_.deployments().at(user);
  // Release every old claim. Migration only targets fully-healthy
  // footprints, and kMigrate / kMigrateAbort replay re-runs this very
  // function, so the occupancy arithmetic is bit-identical on both paths.
  ledger_.release(old.plan, *old.prog);
  return swapPlanLocked(user, old, new_plan, [](int) { return true; },
                        stage);
}

MigrationRecord ClickIncService::migrateVictimLocked(
    const defrag::VictimPick& v,
    std::shared_ptr<const topo::EcPartition>& partition) {
  MigrationRecord mig;
  mig.user_id = v.user;
  mig.evacuated = v.evacuate;
  // A copy: the swap rewrites the ledger entry.
  const Deployed old = ledger_.deployments().at(v.user);

  // Unhealthy footprints belong to the failover pipeline, not defrag.
  for (int dev : place::claimedDevices(old.plan)) {
    if (topo_.nodeHealth(dev) != topo::Health::kUp) {
      mig.error = {ErrorCode::kUnavailable, Stage::kDefrag,
                   cat("user ", v.user, ": footprint not fully healthy")};
      return mig;
    }
  }

  // Re-place against the evacuation what-if snapshot: the victim's own
  // claims freed everywhere, the hot targets zeroed out, so a feasible
  // plan is guaranteed to fit the live ledger after the release.
  place::PlacementPlan new_plan;
  try {
    const auto snapshot = defrag::evacuationSnapshot(
        ledger_.occupancy(), *old.prog, old.plan, v.evacuate);
    if (partition == nullptr) {
      partition = partitionLocked(effectiveHealthLocked());
    }
    new_plan = placeLocked(*old.prog, old.traffic, *partition, snapshot,
                           old.options);
    cumulative_stats_.add(new_plan.stats);
  } catch (...) {
    mig.error = errorFromCurrentException(Stage::kDefrag);
    return mig;
  }
  if (!new_plan.feasible) {
    mig.error = placementFailure(new_plan, Stage::kDefrag);
    return mig;
  }
  const std::uint64_t old_fp = durable::planFingerprint(old.plan);
  if (defrag::touchesAny(new_plan, v.evacuate) ||
      durable::planFingerprint(new_plan) == old_fp) {
    return mig;
  }

  // Write-ahead: the kMigrate record lands before any mutation. A crash
  // before it recovers to the old plan; any later cut replays the full
  // swap (plus whatever compensation landed) — exactly-one of
  // {old, new} at every cut (docs/defrag.md#crash-safety).
  if (journal_ != nullptr && !replaying_) {
    durable::MigrateRecord rec;
    rec.user = v.user;
    rec.plan = new_plan;
    rec.old_plan_fp = old_fp;
    journalAppendLocked(durable::RecordType::kMigrate,
                        durable::encodeMigrate(rec));
  }
  // Compensate the write-ahead: replaying kMigrate then kMigrateAbort
  // swaps forward and straight back.
  auto rolledBack = [&] {
    durable::MigrateAbortRecord rec;
    rec.user = v.user;
    rec.plan = old.plan;
    journalAppendLocked(durable::RecordType::kMigrateAbort,
                        durable::encodeMigrateAbort(rec));
    mig.outcome = MigrationOutcome::kRolledBack;
    return mig;
  };
  // Swap AND restore failed; the tenant is gone. kMigrate replays the
  // (deterministically successful) swap, kRemove strips it.
  auto dropped = [&] {
    durable::RemoveRecord rec;
    rec.user = v.user;
    rec.lazy = false;
    journalAppendLocked(durable::RecordType::kRemove,
                        durable::encodeRemove(rec));
    mig.outcome = MigrationOutcome::kDropped;
    return mig;
  };

  const SwapResult swap =
      applyMigrationLocked(v.user, new_plan, Stage::kDefrag);
  mig.segments_pinned = swap.segments_pinned;
  mig.segments_replaced = swap.segments_replaced;
  if (!swap.swapped) {
    mig.error = swap.error;
    return swap.restored ? rolledBack() : dropped();
  }

  // Commit gate, scoped to the victim and every device either plan
  // touches. A violation migrates the victim straight back.
  mig.outcome = MigrationOutcome::kMigrated;
  auto scope = place::claimedDevices(old.plan);
  const auto nd = place::claimedDevices(new_plan);
  scope.insert(nd.begin(), nd.end());
  const verify::VerifyReport vrep = commitGateLocked(v.user, std::move(scope));
  if (vrep.ok()) return mig;
  mig.error = {ErrorCode::kVerification, Stage::kDefrag, vrep.summary()};
  const SwapResult back =
      applyMigrationLocked(v.user, old.plan, Stage::kDefrag);
  if (back.swapped) return rolledBack();
  if (!back.restored) return dropped();
  // The migrate-back's own deploy failed and restored the NEW plan —
  // which the journal's kMigrate already describes, so no compensation
  // record: the migration stands, error attached.
  return mig;
}

DefragReport ClickIncService::defragmentLocked(
    const defrag::DefragOptions& opts) {
  DefragReport report;
  report.drops_before = emu_.stats().packets_dropped;
  const auto views = tenantViewsLocked();
  report.before = defrag::scoreFragmentation(topo_, ledger_.occupancy(), views,
                                             ledger_.domainIndex(), opts);
  // The effective view's partition, built on the first victim that
  // re-places and shared by the rest (migrations never move health).
  std::shared_ptr<const topo::EcPartition> partition;
  for (const auto& v : defrag::selectVictims(report.before, views, opts)) {
    if (ledger_.deployments().count(v.user) == 0) continue;
    report.migrations.push_back(migrateVictimLocked(v, partition));
  }
  for (const auto& mig : report.migrations) {
    switch (mig.outcome) {
      case MigrationOutcome::kMigrated: ++report.migrated; break;
      case MigrationOutcome::kSkipped: ++report.skipped; break;
      case MigrationOutcome::kRolledBack: ++report.rolled_back; break;
      case MigrationOutcome::kDropped:
        ++report.dropped;
        report.error = mig.error;
        break;
    }
  }

  report.after =
      defrag::scoreFragmentation(topo_, ledger_.occupancy(),
                                 tenantViewsLocked(), ledger_.domainIndex(),
                                 opts);
  report.drops_after = emu_.stats().packets_dropped;
  report.ok = report.dropped == 0;
  return report;
}

DefragReport ClickIncService::defragment(const defrag::DefragOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  return defragmentLocked(opts);
}

void ClickIncService::setDefragPolicy(DefragPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  defrag_policy_ = policy;
}

// Reactive targeted compaction (DefragPolicy::reactive): a submission
// that failed on stranded capacity gets one bounded defragment pass and
// one re-place against the compacted ledger before the failure stands.
// Returns true when the retry produced a feasible plan in result->plan.
bool ClickIncService::reactiveCompactionLocked(
    SubmitResult* result, const ir::IrProgram& prog,
    const topo::TrafficSpec& traffic,
    const place::PlacementOptions& options) {
  if (!defrag_policy_.reactive || replaying_) return false;
  if (!result->plan.resource_limited) return false;
  if (!defrag::diagnoseStranded(prog, ledger_.occupancy(), topo_).stranded) {
    return false;
  }
  const DefragReport dr = defragmentLocked(defrag_policy_.options);
  result->compaction_migrations = dr.migrated;
  if (dr.migrated == 0) return false;
  try {
    const auto partition = partitionLocked(effectiveHealthLocked());
    place::PlacementPlan plan =
        placeLocked(prog, traffic, *partition, ledger_.occupancy(), options);
    cumulative_stats_.add(plan.stats);
    if (!plan.feasible) return false;  // the original failure plan stands
    result->plan = std::move(plan);
    result->recompiled = true;
    return true;
  } catch (...) {
    return false;
  }
}

// --- durability (docs/recovery.md) --------------------------------------

void ClickIncService::journalAppendLocked(
    durable::RecordType type, std::span<const std::uint8_t> payload) {
  if (journal_ == nullptr || replaying_) return;
  durable::appendRecord(*journal_, ++journal_seq_, type, payload);
}

void ClickIncService::journalHealthLocked() {
  if (journal_ == nullptr || replaying_) return;
  for (const auto& ev : topo_.failureLog()) {
    if (ev.version <= journaled_health_version_) continue;
    durable::HealthRecord rec;
    rec.event = ev;
    journalAppendLocked(durable::RecordType::kHealth,
                        durable::encodeHealth(rec));
  }
  journaled_health_version_ = topo_.healthVersion();
}

topo::HealthView ClickIncService::effectiveHealthLocked() const {
  topo::HealthView hv = topo_.healthView();
  for (const auto& [key, dh] : deferred_heals_) {
    (void)key;
    if (dh.kind == topo::FailureEvent::Kind::kNode) {
      hv.node[static_cast<std::size_t>(dh.node)] = dh.from;
    } else {
      const int idx = topo_.linkIndex(dh.link_a, dh.link_b);
      if (idx >= 0) hv.link[static_cast<std::size_t>(idx)] = dh.from;
    }
  }
  return hv;
}

void ClickIncService::resetStateLocked() {
  ledger_.reset();
  device_programs_.clear();
  emu_.reset();
  next_user_ = 1;
  processed_health_version_ = 0;
  journaled_health_version_ = 0;
  deferred_heals_.clear();
  last_disturb_.clear();
  cancelled_users_.clear();
  injector_.reset();
  inject_deploy_fail_ = -1;
  journal_ = nullptr;
  journal_seq_ = 0;
}

void ClickIncService::attachJournal(durable::JournalSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  CLICKINC_CHECK(sink != nullptr, "attachJournal: null sink");
  CLICKINC_CHECK(ledger_.deployments().empty() && topo_.healthVersion() == 0,
                 "attachJournal: service must be fresh "
                 "(use recover() to attach to a used journal)");
  const auto scan = durable::scanJournal(sink->readAll());
  CLICKINC_CHECK(
      sink->size() == 0 ||
          (scan.magic_ok && scan.records.empty() && !scan.torn),
      "attachJournal: sink already holds records (use recover())");
  if (sink->size() == 0) durable::writeMagic(*sink);
  journal_ = sink;
  journal_seq_ = 0;
  journaled_health_version_ = 0;
}

void ClickIncService::detachJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  journal_ = nullptr;
}

bool ClickIncService::journalAttached() {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_ != nullptr;
}

std::uint64_t ClickIncService::epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

durable::CheckpointRecord ClickIncService::buildCheckpointLocked() {
  durable::CheckpointRecord cp;
  cp.next_user = next_user_;
  cp.health_version = topo_.healthVersion();
  cp.processed_health_version = processed_health_version_;
  const auto hv = topo_.healthView();
  cp.node_health.reserve(hv.node.size());
  for (auto h : hv.node) {
    cp.node_health.push_back(static_cast<std::uint8_t>(h));
  }
  cp.link_health.reserve(hv.link.size());
  for (auto h : hv.link) {
    cp.link_health.push_back(static_cast<std::uint8_t>(h));
  }
  for (const auto& n : topo_.nodes()) {
    if (!n.programmable) continue;
    const auto& occ = ledger_.occupancy().of(n.id);
    durable::CheckpointDevice dev;
    dev.node = n.id;
    dev.free_stage = occ.free_stage;
    dev.free_whole = occ.free_whole;
    cp.devices.push_back(std::move(dev));
  }
  for (const auto& [user, dep] : ledger_.deployments()) {
    durable::CheckpointTenant t;
    t.user = user;
    t.prog = *dep.prog;
    t.plan = dep.plan;
    t.traffic = dep.traffic;
    t.options = dep.options;
    t.plan_fp = durable::planFingerprint(dep.plan);
    cp.tenants.push_back(std::move(t));
  }
  cp.deferred_heals = deferred_heals_;
  cp.last_disturb = last_disturb_;
  return cp;
}

void ClickIncService::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  CLICKINC_CHECK(journal_ != nullptr, "checkpoint: no journal attached");
  // Operation boundary only: a checkpoint must never cut a kHealth /
  // kFailover pair in half, or the restored watermarks would lie.
  CLICKINC_CHECK(processed_health_version_ == topo_.healthVersion(),
                 "checkpoint: unprocessed failure events");
  const durable::CheckpointRecord cp = buildCheckpointLocked();
  journalAppendLocked(durable::RecordType::kCheckpoint,
                      durable::encodeCheckpoint(cp));
}

void ClickIncService::restoreCheckpointLocked(
    const durable::CheckpointRecord& cp) {
  validateCheckpointHealth(cp, topo_);
  next_user_ = cp.next_user;
  std::vector<topo::Health> nodes, links;
  nodes.reserve(cp.node_health.size());
  for (auto b : cp.node_health) {
    nodes.push_back(static_cast<topo::Health>(b));
  }
  links.reserve(cp.link_health.size());
  for (auto b : cp.link_health) {
    links.push_back(static_cast<topo::Health>(b));
  }
  topo_.restoreHealth(nodes, links, cp.health_version);
  processed_health_version_ = cp.processed_health_version;
  deferred_heals_ = cp.deferred_heals;
  last_disturb_ = cp.last_disturb;
  // Ledger verbatim: tenants are re-deployed below WITHOUT re-claiming —
  // the checkpointed free vectors already account for every claim.
  ledger_.restore(cp.devices);
  for (const auto& t : cp.tenants) {
    CLICKINC_CHECK(durable::planFingerprint(t.plan) == t.plan_fp,
                   cat("checkpoint restore: plan fingerprint mismatch for "
                       "user ",
                       t.user));
    redeployLocked(t.user, t.prog, t.plan, t.traffic, t.options,
                   /*claim=*/false);
  }
}

void ClickIncService::redeployLocked(int user, ir::IrProgram prog,
                                     const place::PlacementPlan& plan,
                                     const topo::TrafficSpec& traffic,
                                     const place::PlacementOptions& options,
                                     bool claim) {
  auto shared = std::make_shared<ir::IrProgram>(std::move(prog));
  validateReplayPlan(plan, *shared, ledger_.occupancy());
  if (claim) ledger_.claim(plan, *shared);
  Impact impact;
  const auto layout = ir::ParamLayout::of(*shared);
  deployPlan(user, shared, layout, plan, &impact);
  ledger_.add(user, {shared, layout, plan, traffic, options});
}

void ClickIncService::applyRecordLocked(const durable::RecordRef& rec) {
  switch (rec.type) {
    case durable::RecordType::kCheckpoint:
      // Replay starts after the last checkpoint, so one can never appear
      // in the suffix.
      throw InternalError("checkpoint record inside the replay suffix");
    case durable::RecordType::kCommit: {
      auto cr = durable::decodeCommit(rec.payload);
      redeployLocked(cr.user, std::move(cr.prog), cr.plan, cr.traffic,
                     cr.options, /*claim=*/true);
      next_user_ = std::max(next_user_, cr.user + 1);
      break;
    }
    case durable::RecordType::kAbort: {
      const auto ar = durable::decodeAbort(rec.payload);
      const auto it = ledger_.deployments().find(ar.user);
      CLICKINC_CHECK(it != ledger_.deployments().end(),
                     cat("abort replay: user ", ar.user, " not deployed"));
      rollbackDeployLocked(ar.user, it->second.prog, it->second.plan);
      ledger_.erase(ar.user);
      // The id was never published; the abort rewinds the assignment.
      next_user_ = ar.user;
      break;
    }
    case durable::RecordType::kRemove: {
      const auto rr = durable::decodeRemove(rec.payload);
      CLICKINC_CHECK(ledger_.deployments().count(rr.user) != 0,
                     cat("remove replay: user ", rr.user, " not deployed"));
      RemoveResult out;
      doRemoveLocked(rr.user, rr.lazy, &out);
      break;
    }
    case durable::RecordType::kHealth: {
      const auto hr = durable::decodeHealth(rec.payload);
      // The event bytes are untrusted like a checkpoint's: a health or
      // kind byte out of range must fail replay closed, never be applied.
      const auto valid = [](topo::Health h) {
        return static_cast<std::uint8_t>(h) <=
               static_cast<std::uint8_t>(topo::Health::kDown);
      };
      CLICKINC_CHECK(valid(hr.event.from) && valid(hr.event.to),
                     cat("health replay: health ",
                         static_cast<int>(hr.event.from), " -> ",
                         static_cast<int>(hr.event.to)));
      CLICKINC_CHECK(hr.event.kind == topo::FailureEvent::Kind::kNode ||
                         hr.event.kind == topo::FailureEvent::Kind::kLink,
                     cat("health replay: event kind ",
                         static_cast<int>(hr.event.kind)));
      topo::FailureEvent applied;
      if (hr.event.kind == topo::FailureEvent::Kind::kNode) {
        applied = topo_.setNodeHealth(hr.event.node, hr.event.to);
      } else {
        applied =
            topo_.setLinkHealth(hr.event.link_a, hr.event.link_b, hr.event.to);
      }
      CLICKINC_CHECK(applied.version == hr.event.version,
                     cat("health replay: version ", applied.version,
                         " != journaled ", hr.event.version));
      break;
    }
    case durable::RecordType::kFailover: {
      const auto fr = durable::decodeFailover(rec.payload);
      // Replay re-runs the batch through the very code path that produced
      // it; the record's summary fields cross-check the re-run.
      const FailoverReport rep = handleEventsLocked();
      CLICKINC_CHECK(processed_health_version_ == fr.processed_version,
                     "failover replay: watermark mismatch");
      CLICKINC_CHECK(static_cast<std::uint32_t>(rep.damped_events) ==
                         fr.damped_events,
                     "failover replay: damped-event count mismatch");
      CLICKINC_CHECK(static_cast<std::uint32_t>(rep.tenants.size()) ==
                         fr.tenants,
                     "failover replay: affected-tenant count mismatch");
      break;
    }
    case durable::RecordType::kMigrate:
    case durable::RecordType::kMigrateAbort: {
      // Both replay the live executor's swap; only a forward migration
      // names the plan it replaced.
      const bool forward = rec.type == durable::RecordType::kMigrate;
      const char* what = forward ? "migrate replay" : "migrate-abort replay";
      durable::MigrateRecord mr;
      if (forward) {
        mr = durable::decodeMigrate(rec.payload);
      } else {
        auto ar = durable::decodeMigrateAbort(rec.payload);
        mr.user = ar.user;
        mr.plan = std::move(ar.plan);
      }
      const auto it = ledger_.deployments().find(mr.user);
      CLICKINC_CHECK(it != ledger_.deployments().end(),
                     cat(what, ": user ", mr.user, " not deployed"));
      CLICKINC_CHECK(
          !forward ||
              durable::planFingerprint(it->second.plan) == mr.old_plan_fp,
          cat(what, ": old-plan fingerprint mismatch for user ", mr.user));
      validateReplayPlan(mr.plan, *it->second.prog, ledger_.occupancy());
      const SwapResult swap =
          applyMigrationLocked(mr.user, mr.plan, Stage::kRecovery);
      CLICKINC_CHECK(swap.swapped, cat(what, ": swap failed for user ",
                                       mr.user, ": ", swap.error.message()));
      break;
    }
  }
}

RecoveryReport ClickIncService::recover(durable::JournalSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  RecoveryReport rep;
  // Every recovery — successful or not — opens a new epoch: staged
  // submissions that compiled against the pre-recovery world refuse to
  // commit (kUnavailable, retryable).
  ++epoch_;
  CLICKINC_CHECK(sink != nullptr, "recover: null sink");
  const auto bytes = sink->readAll();
  const auto scan = durable::scanJournal(bytes);
  rep.journal_bytes = bytes.size();
  rep.records_total = scan.records.size();
  rep.torn_tail = scan.torn;
  resetStateLocked();
  topo_.resetHealth();
  replaying_ = true;
  try {
    // Anchor at the LAST checkpoint: a checkpoint is cumulative, so every
    // earlier record is subsumed.
    std::size_t start = 0;
    for (std::size_t i = scan.records.size(); i-- > 0;) {
      if (scan.records[i].type == durable::RecordType::kCheckpoint) {
        restoreCheckpointLocked(
            durable::decodeCheckpoint(scan.records[i].payload));
        start = i + 1;
        rep.from_checkpoint = true;
        break;
      }
    }
    for (std::size_t i = start; i < scan.records.size(); ++i) {
      applyRecordLocked(scan.records[i]);
      ++rep.records_replayed;
    }
    if (!scan.records.empty()) journal_seq_ = scan.records.back().seq;
    replaying_ = false;
    // Drop the torn tail (and a corrupt header) so appends resume right
    // after the replayed prefix; then attach.
    if (scan.torn) sink->truncate(scan.clean_end);
    journal_ = sink;
    if (sink->size() == 0) durable::writeMagic(*sink);
    journaled_health_version_ = topo_.healthVersion();
    if (topo_.healthVersion() > processed_health_version_) {
      // Crash landed between a kHealth write and its kFailover summary:
      // finish the batch. The re-run writes the healing kFailover record
      // itself (journal attached, replay over).
      handleEventsLocked();
      rep.completed_failover = true;
    }
    rep.verify = auditLocked({});
    if (!rep.verify.ok()) {
      throw InternalError(
          cat("post-recovery audit failed: ", rep.verify.summary()));
    }
    rep.tenants_restored = static_cast<int>(ledger_.deployments().size());
    rep.ok = true;
  } catch (const std::exception& e) {
    // Never leave a half-replayed service: empty, journal detached, and a
    // structured error beats a silently-wrong control plane.
    replaying_ = false;
    resetStateLocked();
    topo_.resetHealth();
    rep.ok = false;
    rep.error = {ErrorCode::kRecovery, Stage::kRecovery, e.what()};
  }
  return rep;
}

std::set<int> ClickIncService::podsCrossing(
    const std::set<int>& devices) const {
  std::set<int> pods;
  for (int d : devices) {
    const auto& node = topo_.node(d);
    if (node.pod >= 0) {
      pods.insert(node.pod);
    } else {
      // Core-layer device: traffic from every pod crosses it.
      for (const auto& n : topo_.nodes()) {
        if (n.pod >= 0 && n.kind == topo::NodeKind::kHost) {
          pods.insert(n.pod);
        }
      }
    }
  }
  return pods;
}

}  // namespace clickinc::core
