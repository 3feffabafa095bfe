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

void Emulator::clearDeployments() { deployments_.clear(); }

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

double Emulator::runEntriesOn(int node,
                              const std::vector<DeploymentEntry>& entries,
                              ir::PacketView& view,
                              ir::ExecPlan::Scratch& scratch) {
  const auto& model = topo_->node(node).model;
  ir::StateStore& store = storeOf(node);
  double latency = 0;
  for (const auto& entry : entries) {
    if (!entryEligible(entry, view)) continue;

    std::size_t seg_size;
    if (use_reference_ || entry.plan == nullptr) {
      // Reference path: re-decode the segment through the switch
      // interpreter (cross-checked against the compiled path by the
      // emulator equivalence tests).
      const auto segment = materializeSegment(entry);
      ir::Interpreter interp(&store, &rng_);
      interp.run(*entry.prog, std::span<const ir::Instruction>(segment),
                 view);
      seg_size = segment.size();
    } else {
      entry.plan->run(&store, &rng_, view, scratch);
      seg_size = entry.plan->instrCount();
    }
    view.step = entry.step_to;
    latency += model.base_latency_ns +
               model.per_instr_ns * static_cast<double>(seg_size);
  }
  if (latency == 0 && !entries.empty()) {
    // Device hosts INC but nothing matched: plain pipeline traversal.
    latency = model.base_latency_ns * 0.5;
  }
  return latency;
}

void Emulator::processBatchAt(int node,
                              std::span<ir::PacketView* const> views,
                              std::span<double> latency_out, BurstCtx& ctx) {
  auto it = deployments_.find(node);
  if (it == deployments_.end()) return;
  auto failed_it = failed_.find(node);
  if (failed_it != failed_.end() && failed_it->second) return;

  // Multiple entries on one device must run packet-major: with shared
  // state, running all packets through entry A before any reaches entry B
  // would leak later packets' writes into earlier packets' reads.
  // Batching is only taken on the (common) single-entry device, and only
  // for more than one packet: a lone packet (every send()) skips the
  // batch bookkeeping.
  if (it->second.size() > 1 || views.size() == 1) {
    for (std::size_t k = 0; k < views.size(); ++k) {
      latency_out[k] += runEntriesOn(node, it->second, *views[k],
                                     ctx.scratch);
    }
    return;
  }

  const auto& model = topo_->node(node).model;
  ir::StateStore& store = storeOf(node);
  auto& added = ctx.batch_added;
  auto& eligible = ctx.batch_eligible;
  auto& eligible_idx = ctx.batch_eligible_idx;
  added.assign(views.size(), 0.0);
  for (const auto& entry : it->second) {
    eligible.clear();
    eligible_idx.clear();
    for (std::size_t k = 0; k < views.size(); ++k) {
      if (!entryEligible(entry, *views[k])) continue;
      eligible.push_back(views[k]);
      eligible_idx.push_back(k);
    }
    if (eligible.empty()) continue;

    std::size_t seg_size;
    if (use_reference_ || entry.plan == nullptr) {
      const auto segment = materializeSegment(entry);
      ir::Interpreter interp(&store, &rng_);
      for (ir::PacketView* view : eligible) {
        interp.run(*entry.prog, std::span<const ir::Instruction>(segment),
                   *view);
      }
      seg_size = segment.size();
    } else {
      entry.plan->runBatch(&store, &rng_,
                           std::span<ir::PacketView* const>(eligible),
                           ctx.scratch);
      seg_size = entry.plan->instrCount();
    }
    const double entry_latency =
        model.base_latency_ns +
        model.per_instr_ns * static_cast<double>(seg_size);
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      eligible[k]->step = entry.step_to;
      added[eligible_idx[k]] += entry_latency;
    }
  }
  for (std::size_t k = 0; k < views.size(); ++k) {
    if (added[k] == 0 && !it->second.empty()) {
      added[k] = model.base_latency_ns * 0.5;
    }
    latency_out[k] += added[k];
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
    // stays empty, so the hop walk and schedulers see nothing to do.
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

void Emulator::runBurstHops(BurstRun& r, std::size_t h_begin,
                            std::size_t h_end) {
  const std::size_t n = r.flight.size();
  BurstCtx& ctx = *r.ctx;
  auto& sub = ctx.hop_sub;
  auto& sub_idx = ctx.hop_sub_idx;
  auto& sub_lat = ctx.hop_sub_lat;

  for (std::size_t h = h_begin; h < h_end && h + 1 < r.path.size(); ++h) {
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
  runBurstHops(r, 0, r.path.empty() ? 0 : r.path.size() - 1);
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

std::vector<std::vector<PacketResult>> Emulator::sendBursts(
    std::vector<Burst> bursts) {
  const std::size_t n = bursts.size();
  std::vector<std::vector<PacketResult>> results(n);
  if (n == 0) return results;

  // A burst mutates only the state stores of its path's processing nodes
  // (hosts pass traffic through untouched), so bursts with disjoint
  // processing-node sets can run concurrently, and bursts sharing a node
  // only need per-node ordering. RandInt draws come from the one shared
  // Rng, whose order no schedule could preserve — any deployed RandInt
  // forces the sequential path.
  const bool parallel = pool_ != nullptr && n > 1 && !deploymentsUseRandom();

  if (!parallel) {
    // Sequential: no schedule to compute (runBurst resolves paths
    // itself); just run in order with per-burst contexts and replay.
    std::vector<BurstCtx> ctxs(n);
    for (std::size_t i = 0; i < n; ++i) {
      results[i] = runBurst(bursts[i].src, bursts[i].dst,
                            std::move(bursts[i].views), bursts[i].wire_bytes,
                            bursts[i].useful_bytes, ctxs[i]);
    }
    for (const auto& ctx : ctxs) applyBurstEffects(ctx);
    return results;
  }

  if (options_.pipeline_bursts) return sendBurstsPipelined(std::move(bursts));
  return sendBurstsGrouped(std::move(bursts));
}

std::vector<std::vector<PacketResult>> Emulator::sendBurstsGrouped(
    std::vector<Burst> bursts) {
  const std::size_t n = bursts.size();
  std::vector<std::vector<PacketResult>> results(n);
  std::vector<std::vector<int>> touched(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A routeless burst touches nothing: runBurst drops it at the source.
    const auto path = routeOf(bursts[i].src, bursts[i].dst);
    touched[i] = processingNodesOnPath(path);
  }

  // Frontier grouping: a burst goes into the group right after the last
  // (highest-indexed) group it aliases — which is disjoint by that very
  // maximality — or opens a new one. Every conflicting predecessor then
  // sits in a strictly earlier group, and groups execute in order, so
  // aliasing bursts keep their sequential relative order on every shared
  // store. (First-fit would not: a later burst could slip into an earlier
  // group it happens to be disjoint with, overtaking a conflicting
  // predecessor parked further back.)
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::set<int>> group_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t g = 0;
    for (std::size_t k = groups.size(); k-- > 0;) {
      bool aliases = false;
      for (int node : touched[i]) {
        if (group_nodes[k].count(node) != 0) {
          aliases = true;
          break;
        }
      }
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
    group_nodes[g].insert(touched[i].begin(), touched[i].end());
  }

  std::vector<BurstCtx> ctxs(n);
  for (const auto& group : groups) {
    auto runOne = [&](std::size_t i) {
      results[i] = runBurst(bursts[i].src, bursts[i].dst,
                            std::move(bursts[i].views), bursts[i].wire_bytes,
                            bursts[i].useful_bytes, ctxs[i]);
    };
    if (group.size() > 1) {
      pool_->parallelFor(group.size(),
                         [&](std::size_t k) { runOne(group[k]); });
    } else {
      for (std::size_t i : group) runOne(i);
    }
  }

  // All effects replay in original burst order — identical to calling
  // sendBurst() once per element.
  for (const auto& ctx : ctxs) applyBurstEffects(ctx);
  return results;
}

void Emulator::deployedNodesAtHop(const std::vector<int>& path,
                                  std::size_t h,
                                  std::vector<int>* out) const {
  out->clear();
  const int next = path[h + 1];
  auto consider = [&](int node) {
    // Mirrors processBatchAt's gates: a node with no deployments — or a
    // failed one, whose processing is skipped wholesale — never touches
    // its store, so it needs no cross-burst ordering edge.
    auto it = deployments_.find(node);
    if (it == deployments_.end() || it->second.empty()) return;
    auto failed_it = failed_.find(node);
    if (failed_it != failed_.end() && failed_it->second) return;
    out->push_back(node);
  };
  consider(next);
  const int accel = topo_->node(next).attached_accel;
  if (accel >= 0) consider(accel);
}

// Stage-pipelined executor. Each burst's hop walk is cut into segments:
// a new segment starts at every hop where the burst meets a device some
// earlier burst also visits (only devices carrying deployments matter —
// they are the only shared mutable state). Dependencies:
//   - segment k of a burst waits for segment k-1 of the same burst
//     (hops advance in order);
//   - a segment containing a visit to device D waits for the segment of
//     the latest earlier burst that visits D.
// Cross-burst edges always point from a lower to a higher burst index,
// so the segment graph is acyclic, and every device's store sees bursts
// in submission order — the sequential arrival sequence. The segments
// execute on the pool as a dependency-counting work crew: W workers
// drain a ready queue, releasing successors as segments complete. Each
// burst's link/stats effects stay in its private context and replay in
// burst order afterwards, so results, stats, and double-addition
// sequences are bit-identical to the sequential path.
std::vector<std::vector<PacketResult>> Emulator::sendBurstsPipelined(
    std::vector<Burst> bursts) {
  const std::size_t n = bursts.size();
  std::vector<std::vector<PacketResult>> results(n);
  std::vector<BurstCtx> ctxs(n);
  std::vector<BurstRun> runs(n);
  for (std::size_t i = 0; i < n; ++i) {
    runs[i].ctx = &ctxs[i];
    startBurstRun(runs[i], bursts[i].src, bursts[i].dst,
                  std::move(bursts[i].views), bursts[i].wire_bytes,
                  bursts[i].useful_bytes);
  }

  // --- build the segment DAG ---
  struct Segment {
    std::size_t burst = 0;
    std::size_t h_begin = 0;
    std::size_t h_end = 0;
    bool final_hop = false;  // also runs finishBurstRun
  };
  std::vector<Segment> segs;
  std::vector<std::vector<std::size_t>> succ;
  std::vector<std::size_t> dep;
  std::map<int, std::size_t> last_seg_at;  // device -> latest visiting seg
  std::vector<int> hop_devs;

  for (std::size_t i = 0; i < n; ++i) {
    BurstRun& r = runs[i];
    // Empty bursts and routeless ones (already dropped whole at start)
    // have nothing to schedule.
    if (r.flight.empty() || r.path.empty()) continue;
    const std::size_t hops = r.path.size() - 1;
    // Pass 1: find the hops with cross-burst ordering constraints,
    // keeping each hop's deployed-device list for the recording pass.
    std::vector<char> boundary(std::max<std::size_t>(hops, 1), 0);
    std::vector<std::pair<std::size_t, std::size_t>> in_edges;  // (seg, hop)
    std::vector<std::vector<int>> devs_at_hop(hops);
    for (std::size_t h = 0; h < hops; ++h) {
      deployedNodesAtHop(r.path, h, &hop_devs);
      devs_at_hop[h] = hop_devs;
      for (int d : hop_devs) {
        auto it = last_seg_at.find(d);
        if (it != last_seg_at.end()) {
          in_edges.push_back({it->second, h});
          boundary[h] = 1;
        }
      }
    }
    // Pass 2: cut segments at the boundaries (hop 0 always starts one;
    // a hopless burst still gets one segment for its finish step).
    const std::size_t first_seg = segs.size();
    std::vector<std::size_t> seg_of_hop(hops, first_seg);
    if (hops == 0) {
      segs.push_back({i, 0, 0, true});
    } else {
      for (std::size_t h = 0; h < hops; ++h) {
        if (h == 0 || boundary[h]) {
          if (!segs.empty() && segs.size() > first_seg) {
            segs.back().h_end = h;
          }
          segs.push_back({i, h, hops, false});
        }
        seg_of_hop[h] = segs.size() - 1;
      }
      segs.back().final_hop = true;
    }
    succ.resize(segs.size());
    dep.resize(segs.size(), 0);
    // Intra-burst chain.
    for (std::size_t s = first_seg + 1; s < segs.size(); ++s) {
      succ[s - 1].push_back(s);
      ++dep[s];
    }
    // Cross-burst device-order edges.
    for (const auto& [src_seg, h] : in_edges) {
      succ[src_seg].push_back(seg_of_hop[h]);
      ++dep[seg_of_hop[h]];
    }
    // Record this burst's visits for later bursts.
    for (std::size_t h = 0; h < hops; ++h) {
      for (int d : devs_at_hop[h]) last_seg_at[d] = seg_of_hop[h];
    }
  }

  // --- run the DAG on a work crew ---
  if (!segs.empty()) {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::size_t> ready;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (dep[s] == 0) ready.push_back(s);
    }
    std::size_t remaining = segs.size();
    std::exception_ptr error;

    auto runSegment = [&](std::size_t s) {
      BurstRun& r = runs[segs[s].burst];
      runBurstHops(r, segs[s].h_begin, segs[s].h_end);
      if (segs[s].final_hop) finishBurstRun(r);
    };
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(pool_->threadCount()), segs.size());
    pool_->parallelFor(workers, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      while (remaining > 0) {
        if (ready.empty()) {
          // Some segment is in flight on another worker (the DAG is
          // acyclic and releases are made before the matching notify),
          // so waiting here always terminates.
          cv.wait(lock,
                  [&] { return !ready.empty() || remaining == 0; });
          continue;
        }
        const std::size_t s = ready.back();
        ready.pop_back();
        lock.unlock();
        try {
          runSegment(s);
        } catch (...) {
          lock.lock();
          if (error == nullptr) error = std::current_exception();
          remaining = 0;  // abandon; effects are never applied on error
          cv.notify_all();
          return;
        }
        lock.lock();
        --remaining;
        for (std::size_t t : succ[s]) {
          if (--dep[t] == 0) ready.push_back(t);
        }
        cv.notify_all();
      }
      cv.notify_all();
    });
    if (error != nullptr) std::rethrow_exception(error);
  }

  // All effects replay in original burst order — identical to calling
  // sendBurst() once per element.
  for (std::size_t i = 0; i < n; ++i) {
    results[i] = std::move(runs[i].results);
    applyBurstEffects(ctxs[i]);
  }
  return results;
}

}  // namespace clickinc::emu
