#include "emu/emulator.h"

#include <algorithm>
#include <set>

#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace clickinc::emu {

const char* dropReasonName(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kProgram: return "program";
    case DropReason::kNodeDown: return "node-down";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kNoRoute: return "no-route";
    case DropReason::kUndeployed: return "undeployed";
  }
  return "?";
}

Emulator::Emulator(const topo::Topology* topo, std::uint64_t seed,
                   ir::ExecPlanCache* plan_cache)
    : topo_(topo),
      rng_(seed),
      plan_cache_(plan_cache != nullptr ? plan_cache : &own_cache_),
      stores_(static_cast<std::size_t>(topo->nodeCount())) {}

void Emulator::deploy(int device_node, DeploymentEntry entry) {
  CLICKINC_CHECK(topo_->node(device_node).programmable,
                 "deploying on a non-programmable node");
  // Draining devices keep serving what they already host (the failover
  // restore path may legitimately re-deploy there); Down ones are gone.
  if (topo_->nodeHealth(device_node) == topo::Health::kDown) {
    throw UnavailableError(cat("deploy on down device ",
                               topo_->node(device_node).name));
  }
  if (entry.plan == nullptr && entry.prog != nullptr) {
    entry.plan = plan_cache_->get(*entry.prog, entry.instr_idxs,
                                  {.fuse = options_.fuse_plans});
  }
  if (entry.plan != nullptr) {
    entry.params = entry.params.layout != nullptr
                       ? entry.plan->bind(std::move(entry.params.layout))
                       : entry.plan->ownBinding();
  }
  deployments_[device_node].push_back(std::move(entry));
  // Keep snippets ordered by step so earlier program segments run first.
  auto& list = deployments_[device_node];
  std::stable_sort(list.begin(), list.end(),
                   [](const DeploymentEntry& a, const DeploymentEntry& b) {
                     return a.step_from < b.step_from;
                   });
}

void Emulator::undeploy(int device_node, int user_id) {
  auto it = deployments_.find(device_node);
  if (it == deployments_.end()) return;
  auto& list = it->second;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const DeploymentEntry& e) {
                              return e.user_id == user_id;
                            }),
             list.end());
}

void Emulator::undeployDevice(int device_node) {
  deployments_.erase(device_node);
  if (device_node >= 0 &&
      device_node < static_cast<int>(stores_.size())) {
    stores_[static_cast<std::size_t>(device_node)] = ir::StateStore{};
  }
}

void Emulator::setFailed(int device_node, bool failed) {
  failed_[device_node] = failed;
}

ir::StateStore& Emulator::storeOf(int device_node) {
  CLICKINC_CHECK(device_node >= 0 &&
                     device_node < static_cast<int>(stores_.size()),
                 "state store for a node outside the topology");
  return stores_[static_cast<std::size_t>(device_node)];
}

void Emulator::resetStats() {
  stats_ = EmuStats{};
  link_busy_ns_.clear();
}

std::uint64_t Emulator::deploymentDigest() const {
  std::uint64_t h = 0xE1F0'D161'7A81'E000ULL;
  for (const auto& [node, entries] : deployments_) {  // std::map: ascending
    // Emptied devices keep their map key after undeploy(); a device with
    // no entries must digest the same as one never deployed to.
    if (entries.empty()) continue;
    // Sort a view of the entries so deploy() call order never leaks in.
    std::vector<const DeploymentEntry*> view;
    view.reserve(entries.size());
    for (const auto& e : entries) view.push_back(&e);
    std::sort(view.begin(), view.end(),
              [](const DeploymentEntry* a, const DeploymentEntry* b) {
                if (a->user_id != b->user_id) return a->user_id < b->user_id;
                if (a->step_from != b->step_from) {
                  return a->step_from < b->step_from;
                }
                return a->step_to < b->step_to;
              });
    h = mix64(h ^ static_cast<std::uint64_t>(node));
    for (const DeploymentEntry* e : view) {
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->user_id)));
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->step_from)));
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(e->step_to)));
      h = mix64(h ^ e->instr_idxs.size());
      for (int idx : e->instr_idxs) {
        h = mix64(h ^ static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(idx)));
      }
    }
  }
  return h;
}

void Emulator::reset() {
  deployments_.clear();
  stores_.clear();
  stores_.resize(static_cast<std::size_t>(topo_->nodeCount()));
  failed_.clear();
  link_busy_ns_.clear();
  stats_ = EmuStats{};
}

double Emulator::maxLinkBusyNs() const {
  double best = 0;
  for (const auto& [k, v] : link_busy_ns_) {
    (void)k;
    best = std::max(best, v);
  }
  return best;
}

double Emulator::linkBusyNs(int a, int b) const {
  auto it = link_busy_ns_.find({std::min(a, b), std::max(a, b)});
  return it == link_busy_ns_.end() ? 0 : it->second;
}

void Emulator::chargeLink(int a, int b, int bytes) {
  const topo::Link* link = topo_->linkBetween(a, b);
  const double gbps = link != nullptr ? link->gbps : 100.0;
  link_busy_ns_[{std::min(a, b), std::max(a, b)}] +=
      static_cast<double>(bytes) * 8.0 / gbps;
}

bool Emulator::entryEligible(const DeploymentEntry& entry,
                             const ir::PacketView& view) {
  if (entry.user_id >= 0 && entry.user_id != view.user_id) return false;
  // Step gate: execute only the expected next segment; skip segments the
  // packet has already passed (replicas) — §6.
  if (view.step >= entry.step_to) return false;
  if (view.step != entry.step_from) return false;
  return view.verdict == ir::Verdict::kNone;  // else already decided
}

std::vector<ir::Instruction> Emulator::materializeSegment(
    const DeploymentEntry& entry) {
  std::vector<ir::Instruction> segment;
  segment.reserve(entry.instr_idxs.size());
  for (int i : entry.instr_idxs) {
    segment.push_back(entry.prog->instrs[static_cast<std::size_t>(i)]);
  }
  return segment;
}

double Emulator::runEntry(int node, const DeploymentEntry& entry,
                          std::span<ir::PacketView* const> views,
                          ir::ExecPlan::Scratch& scratch) {
  ir::StateStore& store = storeOf(node);
  std::size_t seg_size;
  if (use_reference_ || entry.plan == nullptr) {
    // Reference path: re-decode the segment through the switch
    // interpreter (cross-checked against the compiled path by the
    // emulator equivalence tests).
    const auto segment = materializeSegment(entry);
    ir::Interpreter interp(&store, &rng_);
    for (ir::PacketView* view : views) {
      view->params.bind(entry.params.layout);
      interp.run(*entry.prog, std::span<const ir::Instruction>(segment),
                 *view);
    }
    seg_size = segment.size();
  } else {
    entry.plan->runBatch(&store, &rng_, views, scratch, &entry.params);
    seg_size = entry.plan->instrCount();
  }
  for (ir::PacketView* view : views) view->step = entry.step_to;
  const auto& model = topo_->node(node).model;
  return model.base_latency_ns +
         model.per_instr_ns * static_cast<double>(seg_size);
}

void Emulator::processBatchAt(int node,
                              std::span<ir::PacketView* const> views,
                              std::span<double> latency_out, BurstCtx& ctx) {
  auto it = deployments_.find(node);
  if (it == deployments_.end() || it->second.empty()) return;
  auto failed_it = failed_.find(node);
  if (failed_it != failed_.end() && failed_it->second) return;
  const std::vector<DeploymentEntry>& entries = it->second;
  // Device hosts INC but nothing matched: plain pipeline traversal.
  const double idle = topo_->node(node).model.base_latency_ns * 0.5;

  // Multiple entries on one device must run packet-major: with shared
  // state, running all packets through entry A before any reaches entry B
  // would leak later packets' writes into earlier packets' reads.
  // Batching is only taken on the (common) single-entry device.
  if (entries.size() > 1) {
    for (std::size_t k = 0; k < views.size(); ++k) {
      double latency = 0;
      for (const auto& entry : entries) {
        if (entryEligible(entry, *views[k])) {
          latency += runEntry(node, entry, views.subspan(k, 1), ctx.scratch);
        }
      }
      latency_out[k] += latency == 0 ? idle : latency;
    }
    return;
  }

  const DeploymentEntry& entry = entries.front();
  auto& eligible = ctx.batch_eligible;
  auto& eligible_idx = ctx.batch_eligible_idx;
  eligible.clear();
  eligible_idx.clear();
  for (std::size_t k = 0; k < views.size(); ++k) {
    if (entryEligible(entry, *views[k])) {
      eligible.push_back(views[k]);
      eligible_idx.push_back(k);
    } else {
      latency_out[k] += idle;
    }
  }
  if (eligible.empty()) return;
  const double latency = runEntry(node, entry, eligible, ctx.scratch);
  for (std::size_t k : eligible_idx) {
    latency_out[k] += latency == 0 ? idle : latency;
  }
}

std::vector<int> Emulator::routeOf(int src, int dst) const {
  return options_.reroute_on_failure ? topo_->shortestPathUp(src, dst)
                                     : topo_->shortestPath(src, dst);
}

bool Emulator::userServedOnPath(const std::vector<int>& path,
                                int user) const {
  // A user with no deployments at all keeps the legacy pass-through
  // semantics (their traffic is plain). The undeployed drop only fires
  // when the user's program exists somewhere but the packet's path misses
  // every device carrying it — silently succeeding there would fake INC
  // results the program never computed.
  bool has_any = false;
  for (const auto& [node, entries] : deployments_) {
    for (const auto& e : entries) {
      if (e.user_id == user) {
        has_any = true;
        break;
      }
    }
    if (has_any) break;
  }
  if (!has_any) return true;
  auto serves = [&](int node) {
    auto it = deployments_.find(node);
    if (it == deployments_.end()) return false;
    for (const auto& e : it->second) {
      if (e.user_id < 0 || e.user_id == user) return true;
    }
    return false;
  };
  for (std::size_t h = 1; h < path.size(); ++h) {
    if (serves(path[h])) return true;
    const int accel = topo_->node(path[h]).attached_accel;
    if (accel >= 0 && serves(accel)) return true;
  }
  return false;
}

PacketResult Emulator::send(int src, int dst, ir::PacketView view,
                            int wire_bytes, int useful_bytes) {
  std::vector<ir::PacketView> one;
  one.push_back(std::move(view));
  return std::move(
      sendBurst(src, dst, std::move(one), wire_bytes, useful_bytes).front());
}

void Emulator::finishPacket(BurstRun& r, std::size_t i, int at) {
  r.results[i].view = std::move(r.flight[i]);
  r.results[i].final_node = at;
  r.results[i].wire_bytes_out =
      static_cast<int>(r.results[i].view.field("hdr._len"));
  r.ctx->finishes.push_back(
      {r.results[i].latency_ns, r.results[i].inc_latency_ns});
  r.alive[i] = false;
  --r.live;
}

void Emulator::dropPacket(BurstRun& r, std::size_t i, int at,
                          DropReason reason) {
  r.results[i].dropped = true;
  r.results[i].drop_reason = reason;
  ++r.ctx->counters.packets_dropped;
  if (reason == DropReason::kUndeployed) {
    ++r.ctx->counters.packets_dropped_undeployed;
  } else if (reason != DropReason::kProgram) {
    ++r.ctx->counters.packets_dropped_fault;
  }
  finishPacket(r, i, at);
}

void Emulator::startBurstRun(BurstRun& r, int src, int dst,
                             std::vector<ir::PacketView> views,
                             int wire_bytes, int useful_bytes) {
  const std::size_t n = views.size();
  r.src = src;
  r.dst = dst;
  r.wire_bytes = wire_bytes;
  r.useful_bytes = useful_bytes;
  r.results.assign(n, PacketResult{});
  r.flight = std::move(views);
  r.alive.assign(n, true);
  r.live = n;
  if (n == 0) return;  // empty bursts skip path resolution entirely
  r.ctx->counters.packets_sent += n;
  for (auto& view : r.flight) {
    view.setField("hdr._len", static_cast<std::uint64_t>(wire_bytes));
  }
  r.path = routeOf(src, dst);
  if (r.path.empty()) {
    // No (healthy) route: the whole burst drops at the source. r.path
    // stays empty, so the hop walk sees nothing to do.
    for (std::size_t i = 0; i < n; ++i) {
      dropPacket(r, i, src, DropReason::kNoRoute);
    }
    return;
  }
  // Undeployed-user gate, per packet (bursts usually share one user, so
  // memoize the last verdict).
  int cached_user = -2;
  bool cached_served = false;
  for (std::size_t i = 0; i < n; ++i) {
    const int user = r.flight[i].user_id;
    if (user < 0) continue;
    if (user != cached_user) {
      cached_user = user;
      cached_served = userServedOnPath(r.path, user);
    }
    if (!cached_served) dropPacket(r, i, src, DropReason::kUndeployed);
  }
}

void Emulator::runBurstHops(BurstRun& r) {
  const std::size_t n = r.flight.size();
  BurstCtx& ctx = *r.ctx;
  auto& sub = ctx.hop_sub;
  auto& sub_idx = ctx.hop_sub_idx;
  auto& sub_lat = ctx.hop_sub_lat;

  for (std::size_t h = 0; h + 1 < r.path.size(); ++h) {
    if (r.live == 0) break;
    const int cur = r.path[h];
    const int next = r.path[h + 1];
    if (topo_->linkHealth(cur, next) == topo::Health::kDown) {
      // The link died after the path was resolved (health-oblivious
      // routing, or a kill later in a schedule): everything still in
      // flight drops before the wire.
      for (std::size_t i = 0; i < n; ++i) {
        if (r.alive[i]) dropPacket(r, i, cur, DropReason::kLinkDown);
      }
      break;
    }
    const topo::Link* link = topo_->linkBetween(cur, next);
    const double hop_latency = link != nullptr ? link->latency_ns : 1000.0;

    sub.clear();
    sub_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!r.alive[i]) continue;
      ctx.charges.push_back(
          {cur, next, static_cast<int>(r.flight[i].field("hdr._len"))});
      r.results[i].latency_ns += hop_latency;
      ++r.results[i].hops;
      sub.push_back(&r.flight[i]);
      sub_idx.push_back(i);
    }

    if (topo_->nodeHealth(next) == topo::Health::kDown) {
      // Charged onto the wire, swallowed by the dead device.
      for (std::size_t k = 0; k < sub.size(); ++k) {
        dropPacket(r, sub_idx[k], next, DropReason::kNodeDown);
      }
      break;
    }

    const auto& node = topo_->node(next);
    if (node.programmable || node.kind != topo::NodeKind::kHost) {
      sub_lat.assign(sub.size(), 0.0);
      processBatchAt(next, std::span<ir::PacketView* const>(sub),
                     std::span<double>(sub_lat), ctx);
      if (node.attached_accel >= 0) {
        processBatchAt(node.attached_accel,
                       std::span<ir::PacketView* const>(sub),
                       std::span<double>(sub_lat), ctx);
      }
      for (std::size_t k = 0; k < sub.size(); ++k) {
        r.results[sub_idx[k]].latency_ns += sub_lat[k];
        r.results[sub_idx[k]].inc_latency_ns += sub_lat[k];
      }
    }

    for (std::size_t k = 0; k < sub.size(); ++k) {
      const std::size_t i = sub_idx[k];
      ir::PacketView& view = r.flight[i];
      if (view.verdict == ir::Verdict::kDrop) {
        dropPacket(r, i, next, DropReason::kProgram);
        continue;
      }
      if (view.verdict == ir::Verdict::kSendBack) {
        for (std::size_t back = h + 1; back > 0; --back) {
          const int from = r.path[back];
          const int to = r.path[back - 1];
          ctx.charges.push_back(
              {from, to, static_cast<int>(view.field("hdr._len"))});
          r.results[i].latency_ns +=
              topo_->linkBetween(from, to) != nullptr
                  ? topo_->linkBetween(from, to)->latency_ns
                  : 1000.0;
          ++r.results[i].hops;
        }
        r.results[i].bounced = true;
        ++ctx.counters.packets_bounced;
        ctx.counters.useful_bytes_delivered +=
            static_cast<std::uint64_t>(r.useful_bytes);
        finishPacket(r, i, r.src);
      }
    }
  }
}

void Emulator::finishBurstRun(BurstRun& r) {
  for (std::size_t i = 0; i < r.flight.size(); ++i) {
    if (!r.alive[i]) continue;
    r.results[i].delivered = true;
    ++r.ctx->counters.packets_delivered;
    r.ctx->counters.useful_bytes_delivered +=
        static_cast<std::uint64_t>(r.useful_bytes);
    finishPacket(r, i, r.dst);
  }
}

std::vector<PacketResult> Emulator::runBurst(int src, int dst,
                                             std::vector<ir::PacketView> views,
                                             int wire_bytes, int useful_bytes,
                                             BurstCtx& ctx) {
  BurstRun r;
  r.ctx = &ctx;
  startBurstRun(r, src, dst, std::move(views), wire_bytes, useful_bytes);
  runBurstHops(r);
  finishBurstRun(r);
  return std::move(r.results);
}

void Emulator::applyBurstEffects(const BurstCtx& ctx) {
  // Replay in recorded order: per-accumulator addition sequences are then
  // exactly the sequential path's, so double sums match bit for bit.
  for (const auto& c : ctx.charges) chargeLink(c.a, c.b, c.bytes);
  stats_.packets_sent += ctx.counters.packets_sent;
  stats_.packets_delivered += ctx.counters.packets_delivered;
  stats_.packets_dropped += ctx.counters.packets_dropped;
  stats_.packets_bounced += ctx.counters.packets_bounced;
  stats_.packets_dropped_fault += ctx.counters.packets_dropped_fault;
  stats_.packets_dropped_undeployed +=
      ctx.counters.packets_dropped_undeployed;
  stats_.useful_bytes_delivered += ctx.counters.useful_bytes_delivered;
  for (const auto& [latency, inc] : ctx.finishes) {
    stats_.total_latency_ns += latency;
    stats_.total_inc_latency_ns += inc;
  }
}

std::vector<PacketResult> Emulator::sendBurst(
    int src, int dst, std::vector<ir::PacketView> views, int wire_bytes,
    int useful_bytes) {
  burst_ctx_.resetEffects();
  auto results = runBurst(src, dst, std::move(views), wire_bytes,
                          useful_bytes, burst_ctx_);
  applyBurstEffects(burst_ctx_);
  return results;
}

bool Emulator::deploymentsUseRandom() const {
  for (const auto& [node, entries] : deployments_) {
    (void)node;
    for (const auto& entry : entries) {
      if (entry.prog == nullptr) continue;
      for (int i : entry.instr_idxs) {
        if (entry.prog->instrs[static_cast<std::size_t>(i)].op ==
            ir::Opcode::kRandInt) {
          return true;
        }
      }
    }
  }
  return false;
}

std::vector<int> Emulator::processingNodesOnPath(
    const std::vector<int>& path) const {
  std::vector<int> nodes;
  for (std::size_t h = 1; h < path.size(); ++h) {
    const auto& node = topo_->node(path[h]);
    if (node.programmable || node.kind != topo::NodeKind::kHost) {
      nodes.push_back(path[h]);
      if (node.attached_accel >= 0) nodes.push_back(node.attached_accel);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

std::vector<std::vector<std::size_t>> Emulator::frontierGroups(
    const std::vector<Burst>& bursts) const {
  // A burst goes into the group right after the last (highest-indexed)
  // group it aliases — which is disjoint by that very maximality — or
  // opens a new one. Every conflicting predecessor then sits in a strictly
  // earlier group, and groups execute in order, so aliasing bursts keep
  // their sequential relative order on every shared store. (First-fit
  // would not: a later burst could slip into an earlier group it happens
  // to be disjoint with, overtaking a conflicting predecessor parked
  // further back.)
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::set<int>> group_nodes;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    // A routeless burst touches nothing: runBurst drops it at the source.
    const auto touched =
        processingNodesOnPath(routeOf(bursts[i].src, bursts[i].dst));
    std::size_t g = 0;
    for (std::size_t k = groups.size(); k-- > 0;) {
      const bool aliases = std::any_of(
          touched.begin(), touched.end(),
          [&](int node) { return group_nodes[k].count(node) != 0; });
      if (aliases) {
        g = k + 1;
        break;
      }
    }
    if (g == groups.size()) {
      groups.emplace_back();
      group_nodes.emplace_back();
    }
    groups[g].push_back(i);
    group_nodes[g].insert(touched.begin(), touched.end());
  }
  return groups;
}

std::vector<std::vector<PacketResult>> Emulator::sendBursts(
    std::vector<Burst> bursts) {
  const std::size_t n = bursts.size();
  std::vector<std::vector<PacketResult>> results(n);
  std::vector<BurstCtx> ctxs(n);
  auto runOne = [&](std::size_t i) {
    results[i] = runBurst(bursts[i].src, bursts[i].dst,
                          std::move(bursts[i].views), bursts[i].wire_bytes,
                          bursts[i].useful_bytes, ctxs[i]);
  };

  // A burst mutates only the state stores of its path's processing nodes
  // (hosts pass traffic through untouched), so device-disjoint bursts can
  // run concurrently. RandInt draws come from the one shared Rng, whose
  // order no schedule could preserve — any deployed RandInt forces the
  // sequential path.
  if (pool_ == nullptr || n < 2 || deploymentsUseRandom()) {
    for (std::size_t i = 0; i < n; ++i) runOne(i);
  } else {
    for (const auto& group : frontierGroups(bursts)) {
      if (group.size() > 1) {
        pool_->parallelFor(group.size(),
                           [&](std::size_t k) { runOne(group[k]); });
      } else {
        runOne(group.front());
      }
    }
  }

  // All effects replay in original burst order — identical to calling
  // sendBurst() once per element.
  for (const auto& ctx : ctxs) applyBurstEffects(ctx);
  return results;
}

}  // namespace clickinc::emu
