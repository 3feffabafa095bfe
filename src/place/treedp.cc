#include "place/treedp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace clickinc::place {

Weights adaptiveWeights(double remaining_ratio) {
  Weights w;
  w.wt = 0.5;
  w.wr = 1.0 - std::pow(2.0, remaining_ratio - 1.0);
  w.wp = 0.5 - w.wr;
  return w;
}

OccupancyMap::OccupancyMap(const topo::Topology* topo) : topo_(topo) {
  slot_of_.assign(static_cast<std::size_t>(topo->nodeCount()), -1);
  for (const auto& n : topo->nodes()) {
    if (n.programmable) {
      slot_of_[static_cast<std::size_t>(n.id)] =
          static_cast<int>(slots_.size());
      slots_.push_back(DeviceOccupancy::fresh(n.model));
    }
  }
}

DeviceOccupancy& OccupancyMap::of(int node_id) {
  CLICKINC_CHECK(node_id >= 0 &&
                     node_id < static_cast<int>(slot_of_.size()) &&
                     slot_of_[static_cast<std::size_t>(node_id)] >= 0,
                 "node is not programmable");
  return slots_[static_cast<std::size_t>(
      slot_of_[static_cast<std::size_t>(node_id)])];
}

const DeviceOccupancy& OccupancyMap::of(int node_id) const {
  CLICKINC_CHECK(node_id >= 0 &&
                     node_id < static_cast<int>(slot_of_.size()) &&
                     slot_of_[static_cast<std::size_t>(node_id)] >= 0,
                 "node is not programmable");
  return slots_[static_cast<std::size_t>(
      slot_of_[static_cast<std::size_t>(node_id)])];
}

OccupancyMap::OccupancyMap(const topo::Topology* topo,
                           const OccupancyMap& src,
                           const std::vector<int>& devices)
    : topo_(topo) {
  slot_of_.assign(static_cast<std::size_t>(topo->nodeCount()), -1);
  slots_.reserve(devices.size());
  for (int dev : devices) {
    CLICKINC_CHECK(slot_of_[static_cast<std::size_t>(dev)] < 0,
                   "restricted occupancy copy: duplicate device");
    slot_of_[static_cast<std::size_t>(dev)] = static_cast<int>(slots_.size());
    slots_.push_back(src.of(dev));
  }
}

double OccupancyMap::remainingRatio() const {
  if (slots_.empty()) return 1.0;
  double sum = 0;
  for (const auto& occ : slots_) sum += occ.remainingRatio();
  return sum / static_cast<double>(slots_.size());
}

double OccupancyMap::remainingRatioOver(
    const std::vector<int>& devices) const {
  if (devices.empty()) return 1.0;
  double sum = 0;
  for (int dev : devices) sum += of(dev).remainingRatio();
  return sum / static_cast<double>(devices.size());
}

std::vector<int> PlacementPlan::devicesUsed() const {
  std::vector<int> out;
  for (const auto& a : assignments) {
    if (a.to_block <= a.from_block) continue;
    for (const auto& [dev, p] : a.on_device) {
      (void)p;
      out.push_back(dev);
    }
    for (const auto& [dev, p] : a.on_bypass) {
      (void)p;
      out.push_back(dev);
    }
  }
  return out;
}

// Grants the placer references to the arena's private scratch buffers
// without exposing them in the public header.
class TreePlacerAccess {
 public:
  struct Buffers {
    std::vector<double>& client_dp;
    std::vector<int>& client_choice;
    std::vector<double>& server_dp;
    std::vector<int>& server_choice;
    std::vector<detail::Segment>& seg_cache;
    std::vector<std::uint64_t>& seg_fp;
    std::vector<std::uint8_t>& seg_fp_set;
    std::vector<double>& traffic_frac;
    std::vector<double>& hop_order;
  };
  static Buffers buffers(PlacementArena& a) {
    return {a.client_dp, a.client_choice, a.server_dp,  a.server_choice,
            a.seg_cache, a.seg_fp,        a.seg_fp_set, a.traffic_frac,
            a.hop_order};
  }
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using detail::Segment;

class TreePlacer {
 public:
  TreePlacer(const BlockDag& dag, const topo::EcTree& tree,
             const topo::Topology& topo, const OccupancyMap& occ,
             const PlacementOptions& opts, PlacementArena* arena)
      : t0_(std::chrono::steady_clock::now()),
        dag_(dag),
        analysis_(dag.analysis()),
        tree_(tree),
        topo_(topo),
        occ_(occ),
        opts_(opts),
        arena_(arena != nullptr ? arena : &local_arena_),
        buf_(TreePlacerAccess::buffers(*arena_)) {
    // The pool drives only the fast path: the reference path (fast ==
    // false) is the executable specification and stays strictly
    // sequential. A 1-thread pool degenerates to sequential execution.
    pool_ = opts.fast && opts.pool != nullptr && opts.pool->threadCount() > 1
                ? opts.pool
                : nullptr;
    m_ = dag.size();
    nn_ = static_cast<int>(tree.nodes.size());
    stride_ = m_ + 1;
    seg_stride_ = static_cast<long>(stride_) * stride_;
    weights_ = opts.adaptive
                   ? adaptiveWeights(opts.ratio_devices != nullptr
                                         ? occ.remainingRatioOver(
                                               *opts.ratio_devices)
                                         : occ.remainingRatio())
                   : opts.weights;
    // Normalizers for h_r / h_p.
    score_norm_ = std::max(1.0, dag.totalScore());
    double cut_total = 0;
    for (int i = 1; i < m_; ++i) cut_total += dag.cutBits(i);
    cut_norm_ = std::max(1.0, cut_total);
    // Flat tables, one allocation each; assign() reuses arena capacity.
    buf_.seg_cache.assign(
        static_cast<std::size_t>(nn_) * static_cast<std::size_t>(seg_stride_),
        Segment{});
    buf_.seg_fp.assign(static_cast<std::size_t>(seg_stride_), 0);
    buf_.seg_fp_set.assign(static_cast<std::size_t>(seg_stride_), 0);
    buf_.client_dp.assign(
        static_cast<std::size_t>(nn_) * static_cast<std::size_t>(stride_),
        kInf);
    buf_.client_choice.assign(
        static_cast<std::size_t>(nn_) * static_cast<std::size_t>(stride_),
        -1);
    buf_.traffic_frac.assign(static_cast<std::size_t>(nn_), 0.0);
    computeTrafficFrac();
    computeHopOrder();
    if (opts_.fast) computeOccFingerprints();
    if (pool_ != nullptr) precomputeSegFingerprints();
  }

  PlacementPlan run() {
    PlacementPlan plan;
    plan.weights_used = weights_;

    if (m_ == 0) {
      plan.feasible = true;
      plan.ht = 1;
      return plan;
    }

    WorkCtx ctx;

    // Client side (includes the root).
    solveClient(tree_.root, ctx);

    // Server chain, backwards: T[t][j] = cost of placing [j, m) on chain
    // nodes t..end.
    const int chain_len = static_cast<int>(tree_.server_chain.size());
    buf_.server_dp.assign(
        static_cast<std::size_t>(chain_len + 1) *
            static_cast<std::size_t>(stride_),
        kInf);
    buf_.server_choice.assign(static_cast<std::size_t>(std::max(chain_len, 1)) *
                                  static_cast<std::size_t>(stride_),
                              -1);
    serverDp(chain_len, m_) = 0;
    for (int t = chain_len - 1; t >= 0; --t) {
      const int node = tree_.server_chain[static_cast<std::size_t>(t)];
      if (pool_ != nullptr) {
        // Rows j are independent: row j probes only segments [j, j2) and
        // writes only T[t][j], so each runs as one task, keeping its own
        // scan order (and early-exit behavior) identical to the
        // sequential loop. Contexts merge in row order.
        const std::size_t rows = static_cast<std::size_t>(m_) + 1;
        std::vector<WorkCtx> sub(rows);
        ctx.stats.parallel_tasks += static_cast<long>(rows);
        pool_->parallelFor(rows, [&](std::size_t j) {
          serverRow(t, node, static_cast<int>(j), sub[j]);
        });
        for (auto& s : sub) ctx.merge(s);
      } else {
        for (int j = 0; j <= m_; ++j) serverRow(t, node, j, ctx);
      }
    }

    // Join at the root.
    double best = kInf;
    int best_b = -1;
    for (int b = 0; b <= m_; ++b) {
      const double left = clientDp(tree_.root, b);
      if (left == kInf) continue;
      const double right = chain_len == 0 ? (b == m_ ? 0.0 : kInf)
                                          : serverDp(0, b);
      if (right == kInf) continue;
      if (left + right < best) {
        best = left + right;
        best_b = b;
      }
    }
    ctx.stats.threads_used = pool_ != nullptr ? pool_->threadCount() : 1;
    plan.steps = ctx.steps;
    plan.stats = ctx.stats;
    // Clocked from the constructor so table/fingerprint setup counts.
    plan.elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0_)
            .count();
    if (best_b < 0) {
      plan.failure = "no feasible placement covers all paths";
      // Classify the failure for the service's error taxonomy: a probed
      // segment that failed placement without being monotone-infeasible
      // failed for resource (capacity) reasons. The set of probed
      // segments is identical between the sequential and worker-pool
      // paths, so this flag is deterministic across thread counts.
      for (const auto& seg : buf_.seg_cache) {
        if (seg.state == Segment::State::kDone && !seg.feasible &&
            !seg.monotone_infeasible) {
          plan.resource_limited = true;
          break;
        }
      }
      return plan;
    }

    // Backtrack client side then server chain.
    backtrackClient(tree_.root, best_b, &plan, ctx);
    int j = best_b;
    for (int t = 0; t < chain_len; ++t) {
      const int node = tree_.server_chain[static_cast<std::size_t>(t)];
      const int j2 = serverChoice(t, j);
      emitAssignment(node, j, j2, &plan, ctx);
      j = j2;
    }

    plan.feasible = true;
    plan.ht = 1.0;
    double res = 0;
    double cut = 0;
    for (const auto& a : plan.assignments) {
      const Segment& seg = *cachedSegment(a.tree_node, a.from_block,
                                          a.to_block, ctx);
      res += seg.resource_score;
      cut += static_cast<double>(seg.internal_cut_bits) * 0.25;
      if (a.from_block > 0 && a.to_block > a.from_block) {
        cut += dag_.cutBits(a.from_block) *
               buf_.traffic_frac[static_cast<std::size_t>(a.tree_node)];
      }
    }
    plan.hr = res / score_norm_;
    plan.hp = cut / cut_norm_;
    plan.gain = weights_.wt * plan.ht - weights_.wr * plan.hr -
                weights_.wp * plan.hp;
    return plan;
  }

 private:
  // Per-task accumulation of search counters. Parallel sections give each
  // task its own context and merge them in task order, so every counter's
  // total is identical to the sequential run's (integer sums commute; the
  // work set itself is identical thanks to the memo's exactly-once
  // claims).
  struct WorkCtx {
    PlacementStats stats;
    long steps = 0;

    void merge(const WorkCtx& o) {
      stats.add(o.stats);
      steps += o.steps;
    }
  };

  std::chrono::steady_clock::time_point t0_;
  const BlockDag& dag_;
  const ir::Analysis& analysis_;  // dag_'s, built once with it
  const topo::EcTree& tree_;
  const topo::Topology& topo_;
  const OccupancyMap& occ_;
  PlacementOptions opts_;
  PlacementArena local_arena_;
  PlacementArena* arena_;
  TreePlacerAccess::Buffers buf_;
  util::ThreadPool* pool_ = nullptr;
  Weights weights_;
  int m_ = 0;
  int nn_ = 0;
  int stride_ = 1;
  long seg_stride_ = 1;
  double score_norm_ = 1;
  double cut_norm_ = 1;
  std::vector<std::uint64_t> occ_fp_;  // node id -> occupancy fingerprint

  // --- flat-table accessors ---

  double& clientDp(int node, int j) {
    return buf_.client_dp[static_cast<std::size_t>(node) *
                              static_cast<std::size_t>(stride_) +
                          static_cast<std::size_t>(j)];
  }
  int& clientChoice(int node, int j) {
    return buf_.client_choice[static_cast<std::size_t>(node) *
                                  static_cast<std::size_t>(stride_) +
                              static_cast<std::size_t>(j)];
  }
  double& serverDp(int t, int j) {
    return buf_.server_dp[static_cast<std::size_t>(t) *
                              static_cast<std::size_t>(stride_) +
                          static_cast<std::size_t>(j)];
  }
  int& serverChoice(int t, int j) {
    return buf_.server_choice[static_cast<std::size_t>(t) *
                                  static_cast<std::size_t>(stride_) +
                              static_cast<std::size_t>(j)];
  }
  Segment& segSlot(int node, int i, int j) {
    return buf_.seg_cache[static_cast<std::size_t>(node) *
                              static_cast<std::size_t>(seg_stride_) +
                          static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(stride_) +
                          static_cast<std::size_t>(j)];
  }

  // placeOn probes only the EC tree's devices and their attached
  // accelerators (the bypass split), so only those are hashed, not every
  // device of the ledger. Non-programmable devices never host a segment,
  // and a sparse domain snapshot carries only its pod's devices.
  void computeOccFingerprints() {
    occ_fp_.assign(static_cast<std::size_t>(topo_.nodeCount()), 0);
    auto fingerprint = [&](int dev) {
      if (dev < 0 || occ_fp_[static_cast<std::size_t>(dev)] != 0) return;
      if (topo_.node(dev).programmable && occ_.contains(dev)) {
        occ_fp_[static_cast<std::size_t>(dev)] =
            occupancyFingerprint(occ_.of(dev));
      }
    };
    for (const auto& tn : tree_.nodes) {
      for (int dev : tn.devices) {
        fingerprint(dev);
        fingerprint(topo_.node(dev).attached_accel);
      }
    }
  }

  // Content fingerprint of block range [i, j), salted with the search
  // options that change placeOn results; computed lazily per range on the
  // sequential path. The parallel path precomputes every range up front
  // (precomputeSegFingerprints), so this lazy fill never races.
  std::uint64_t segFp(int i, int j) {
    const std::size_t idx = static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(stride_) +
                            static_cast<std::size_t>(j);
    if (!buf_.seg_fp_set[idx]) {
      std::uint64_t h =
          segmentFingerprint(dag_.prog(), analysis_, dag_.instrsOf(i, j));
      h = mix64(h ^ (opts_.prune
                         ? 0x51ULL
                         : mix64(0x52ULL ^ static_cast<std::uint64_t>(
                                               opts_.max_steps))));
      buf_.seg_fp[idx] = h;
      buf_.seg_fp_set[idx] = 1;
    }
    return buf_.seg_fp[idx];
  }

  // Eagerly fingerprint every block range so parallel tasks read the
  // tables without synchronization. Distinct (i, j) slots are distinct
  // memory locations, so the fill itself fans out on the pool; the
  // parallelFor join publishes the writes to every later task.
  void precomputeSegFingerprints() {
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(static_cast<std::size_t>(m_ + 1) *
                  static_cast<std::size_t>(m_ + 2) / 2);
    for (int i = 0; i <= m_; ++i) {
      for (int j = i; j <= m_; ++j) pairs.push_back({i, j});
    }
    pool_->parallelFor(pairs.size(), [&](std::size_t k) {
      segFp(pairs[k].first, pairs[k].second);
    });
  }

  // Single post-order traversal over the client tree (server-side nodes
  // are forced to 1.0 below; they never appear in children lists).
  void computeTrafficFrac() {
    const double total = std::max(1e-9, tree_.total_traffic);
    std::vector<double> subtree(tree_.nodes.size(), 0.0);
    std::vector<int> order;
    order.reserve(tree_.nodes.size());
    std::vector<int> stack = {tree_.root};
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      order.push_back(n);
      for (int c : tree_.at(n).children) stack.push_back(c);
    }
    // Reverse pre-order visits every child before its parent.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int n = *it;
      double sum = tree_.at(n).leaf_traffic;
      for (int c : tree_.at(n).children) {
        sum += subtree[static_cast<std::size_t>(c)];
      }
      subtree[static_cast<std::size_t>(n)] = sum;
    }
    for (std::size_t i = 0; i < tree_.nodes.size(); ++i) {
      buf_.traffic_frac[i] =
          tree_.nodes[i].server_side ? 1.0 : subtree[i] / total;
    }
    buf_.traffic_frac[static_cast<std::size_t>(tree_.root)] = 1.0;
  }

  // One intra-device placement of blocks [i, j) on `dev`, memoized by
  // (occupancy fingerprint, segment fingerprint) on the fast path so every
  // identical (device state, segment) pair pays for a single search. The
  // memo claim is exactly-once even under the pool: concurrent requests
  // for one key elect a single leader to run the search and the rest wait
  // for its published result, keeping intra_calls / steps deterministic.
  // A hit shares the leader's handle; the result carries no instruction
  // list (emitAssignment builds it for the segments that reach the plan).
  Segment::Probe placeOn(int dev, int i, int j, WorkCtx& ctx) {
    const DeviceOccupancy& occ = occ_.of(dev);
    Segment::Probe probe{dev, true, nullptr};
    IntraMemo::Claim claim;
    if (opts_.fast) {
      const MemoKey key{occ_fp_[static_cast<std::size_t>(dev)], segFp(i, j)};
      claim = arena_->memo().claim(key, &probe.placement);
      if (!claim.leader) {
        ++ctx.stats.intra_memo_hits;
        probe.leader = false;
        return probe;
      }
    }
    ++ctx.stats.intra_calls;
    const std::vector<int> instrs = dag_.instrsOf(i, j);
    IntraPlacement p;
    try {
      p = opts_.prune
              ? placeCompact(occ, dag_.prog(), instrs, 0, &analysis_)
              : placeExhaustive(occ, dag_.prog(), instrs, opts_.max_steps, 0,
                                &analysis_);
    } catch (...) {
      // Followers may be blocked on this claim; never leave it
      // unpublished — but never cache a fabricated result either (the
      // arena memo outlives this run). publishError wakes waiters and
      // lets the next claimant re-lead.
      if (opts_.fast) arena_->memo().publishError(claim);
      throw;
    }
    ctx.steps += p.steps;
    p.instr_idxs = std::vector<int>();  // program-agnostic; frees the list
    probe.placement = std::make_shared<const IntraPlacement>(std::move(p));
    if (opts_.fast) arena_->memo().publish(claim, probe.placement);
    return probe;
  }

  const Segment* cachedSegment(int node, int i, int j, WorkCtx& ctx) {
    Segment& seg = segSlot(node, i, j);
    if (seg.state == Segment::State::kDone) return &seg;
    seg.state = Segment::State::kDone;
    if (i == j) {
      seg.feasible = true;
      return &seg;
    }
    const auto& tn = tree_.at(node);
    // Stateful segments need full traffic visibility: a partial-traffic
    // node (leaf branch) would hold a replica that never sees the other
    // paths' packets, breaking aggregation/caching semantics.
    if (dag_.statefulIn(i, j) &&
        buf_.traffic_frac[static_cast<std::size_t>(node)] < 0.999) {
      seg.monotone_infeasible = true;  // supersets stay stateful
      return &seg;
    }
    // Non-programmable devices (plain switches on the path) can only pass
    // traffic through: empty segments only.
    for (int dev : tn.devices) {
      if (!topo_.node(dev).programmable) {
        seg.monotone_infeasible = true;
        return &seg;
      }
    }
    // Try the whole segment on the EC's main devices.
    bool all_ok = true;
    std::vector<Segment::Probe> main;
    main.reserve(tn.devices.size());
    for (int dev : tn.devices) {
      Segment::Probe p = placeOn(dev, i, j, ctx);
      if (!p.placement->feasible) {
        all_ok = false;
        break;
      }
      main.push_back(std::move(p));
    }
    if (all_ok) {
      seg.feasible = true;
      seg.on_device = std::move(main);
      seg.resource_score = dag_.scoreOf(i, j) *
                           static_cast<double>(tn.devices.size());
      return &seg;
    }
    // Overflow onto the bypass accelerator: main [i, k), bypass [k, j).
    if (tn.bypass != nullptr) {
      for (int k = j - 1; k >= i; --k) {
        std::vector<Segment::Probe> on_main, on_acc;
        bool ok = true;
        for (int dev : tn.devices) {
          const int acc = topo_.node(dev).attached_accel;
          if (acc < 0) {
            ok = false;
            break;
          }
          Segment::Probe pm = placeOn(dev, i, k, ctx);
          Segment::Probe pa = placeOn(acc, k, j, ctx);
          if (!pm.placement->feasible || !pa.placement->feasible) {
            ok = false;
            break;
          }
          on_main.push_back(std::move(pm));
          on_acc.push_back(std::move(pa));
        }
        if (!ok) continue;
        seg.feasible = true;
        seg.bypass_from = k;
        seg.on_device = std::move(on_main);
        seg.on_bypass = std::move(on_acc);
        seg.resource_score = dag_.scoreOf(i, j) *
                             static_cast<double>(tn.devices.size());
        seg.internal_cut_bits = k > i && k < j ? dag_.cutBits(k) : 0;
        break;
      }
    }
    if (!seg.feasible) seg.monotone_infeasible = opsUnplaceable(tn, i, j);
    return &seg;
  }

  // Some instruction in [i, j) is unsupported by the EC's main model and
  // by its bypass (or there is none): no split of any superset can host
  // it, so the infeasibility is monotone in j.
  bool opsUnplaceable(const topo::EcTreeNode& tn, int i, int j) {
    for (int b = i; b < j; ++b) {
      for (int idx : dag_.blocks()[static_cast<std::size_t>(b)].instrs) {
        const auto op = dag_.prog().instrs[static_cast<std::size_t>(idx)].op;
        if (!tn.model->supportsOpcode(op) &&
            (tn.bypass == nullptr || !tn.bypass->supportsOpcode(op))) {
          return true;
        }
      }
    }
    return false;
  }

  double segCost(int node, int i, int j, WorkCtx& ctx) {
    return segCostOf(node, cachedSegment(node, i, j, ctx), i, j);
  }

  double segCostOf(int node, const Segment* seg, int i, int j) {
    if (!seg->feasible) return kInf;
    if (i == j) return 0;
    // Epsilon tie-break toward the earliest position on the path (the
    // paper packs user logic "as early as possible"; early aggregation
    // also drops traffic sooner).
    const double eps = 1e-6 *
                       buf_.hop_order[static_cast<std::size_t>(node)] *
                       static_cast<double>(j - i);
    return weights_.wr * seg->resource_score / score_norm_ +
           weights_.wp * 0.25 *
               static_cast<double>(seg->internal_cut_bits) / cut_norm_ +
           eps;
  }

  // Distance of each node from the traffic sources: leaves first.
  void computeHopOrder() {
    buf_.hop_order.assign(tree_.nodes.size(), 0.0);
    std::vector<int> depth(tree_.nodes.size(), 0);
    int maxd = 0;
    std::vector<int> stack = {tree_.root};
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      for (int c : tree_.at(n).children) {
        depth[static_cast<std::size_t>(c)] =
            depth[static_cast<std::size_t>(n)] + 1;
        maxd = std::max(maxd, depth[static_cast<std::size_t>(c)]);
        stack.push_back(c);
      }
    }
    for (std::size_t n = 0; n < tree_.nodes.size(); ++n) {
      buf_.hop_order[n] = static_cast<double>(maxd - depth[n]);
    }
    for (std::size_t tpos = 0; tpos < tree_.server_chain.size(); ++tpos) {
      buf_.hop_order[static_cast<std::size_t>(tree_.server_chain[tpos])] =
          static_cast<double>(maxd) + 1.0 + static_cast<double>(tpos);
    }
  }

  double entryCharge(int node, int i, int j) {
    if (i <= 0 || i >= m_ || i == j) return 0;
    return weights_.wp * dag_.cutBits(i) *
           buf_.traffic_frac[static_cast<std::size_t>(node)] / cut_norm_;
  }

  // Fills the segment slots the node's DP loop will probe. The pair list
  // is derived from the children's finished DP tables — exactly the set
  // the sequential loop would touch, no more — so cache counters match
  // the sequential run and no segment is computed speculatively.
  void prefillNodeSegments(int node, WorkCtx& ctx) {
    const auto& children = tree_.at(node).children;
    std::vector<std::uint8_t> i_ok(static_cast<std::size_t>(m_) + 1, 1);
    for (int i = 0; i <= m_; ++i) {
      for (int c : children) {
        if (clientDp(c, i) == kInf) {
          i_ok[static_cast<std::size_t>(i)] = 0;
          break;
        }
      }
    }
    std::vector<std::pair<int, int>> pairs;
    for (int j = 0; j <= m_; ++j) {
      for (int i = 0; i <= j; ++i) {
        if (children.empty() && i != 0) break;
        if (!i_ok[static_cast<std::size_t>(i)]) continue;
        pairs.push_back({i, j});
      }
    }
    if (pairs.size() < 2) return;
    std::vector<WorkCtx> sub(pairs.size());
    ctx.stats.parallel_tasks += static_cast<long>(pairs.size());
    pool_->parallelFor(pairs.size(), [&](std::size_t k) {
      cachedSegment(node, pairs[k].first, pairs[k].second, sub[k]);
    });
    for (auto& s : sub) ctx.merge(s);
  }

  void solveClient(int node, WorkCtx& ctx) {
    const auto& children = tree_.at(node).children;
    if (pool_ != nullptr && children.size() > 1) {
      // Sibling subtrees touch disjoint DP rows and segment slots; each
      // solves in its own task (recursively fanning out further).
      std::vector<WorkCtx> sub(children.size());
      ctx.stats.parallel_tasks += static_cast<long>(children.size());
      pool_->parallelFor(children.size(), [&](std::size_t k) {
        solveClient(children[static_cast<std::size_t>(k)], sub[k]);
      });
      for (auto& s : sub) ctx.merge(s);
    } else {
      for (int c : children) solveClient(c, ctx);
    }
    if (pool_ != nullptr) prefillNodeSegments(node, ctx);
    for (int j = 0; j <= m_; ++j) {
      for (int i = 0; i <= j; ++i) {
        // Leaves must start the program themselves.
        if (children.empty() && i != 0) break;
        double child_sum = 0;
        for (int c : children) {
          const double hc = clientDp(c, i);
          if (hc == kInf) {
            child_sum = kInf;
            break;
          }
          child_sum += hc;
        }
        if (child_sum == kInf) continue;
        const double seg = segCost(node, i, j, ctx);
        if (seg == kInf) continue;
        const double total = child_sum + seg + entryCharge(node, i, j);
        if (total < clientDp(node, j)) {
          clientDp(node, j) = total;
          clientChoice(node, j) = i;
        }
      }
    }
  }

  // One row of the server-chain DP: T[t][j] over all j2. Kept as the
  // single implementation for both the sequential loop and the
  // row-parallel path so scan order and early exits cannot diverge.
  void serverRow(int t, int node, int j, WorkCtx& ctx) {
    for (int j2 = j; j2 <= m_; ++j2) {
      const double tail = serverDp(t + 1, j2);
      if (tail == kInf) continue;
      const Segment* s = cachedSegment(node, j, j2, ctx);
      if (!s->feasible) {
        // Early exit only on provably monotone causes: segments only
        // grow with j2, so a failure that persists for supersets
        // (unsupported opcode, non-programmable EC, stateful gating)
        // rules out every larger j2. Resource-driven failures may
        // not, so those keep scanning.
        if (opts_.fast && s->monotone_infeasible) {
          ++ctx.stats.early_breaks;
          break;
        }
        continue;
      }
      const double seg = segCostOf(node, s, j, j2);
      const double entry = entryCharge(node, j, j2);
      const double total = seg + entry + tail;
      double& cell = serverDp(t, j);
      if (total < cell) {
        cell = total;
        serverChoice(t, j) = j2;
      }
    }
  }

  void emitAssignment(int node, int i, int j, PlacementPlan* plan,
                      WorkCtx& ctx) {
    NodeAssignment a;
    a.tree_node = node;
    a.from_block = i;
    a.to_block = j;
    const Segment* seg = cachedSegment(node, i, j, ctx);
    CLICKINC_CHECK(seg->feasible, "backtracked into infeasible segment");
    a.bypass_from = seg->bypass_from;
    const int split = seg->bypass_from >= 0 ? seg->bypass_from : j;
    a.on_device = materialize(seg->on_device, i, split);
    if (!seg->on_bypass.empty()) {
      a.on_bypass = materialize(seg->on_bypass, split, j);
    }
    plan->assignments.push_back(std::move(a));
  }

  // The placements of one probed range as plan entries: one instruction
  // list for blocks [from, to), shared by every device; a memo follower
  // reports no search steps. The first probe of a device wins, as in a
  // map built by emplace.
  std::map<int, IntraPlacement> materialize(
      const std::vector<Segment::Probe>& probes, int from, int to) {
    const std::vector<int> instrs = dag_.instrsOf(from, to);
    std::map<int, IntraPlacement> out;
    for (const auto& probe : probes) {
      auto [it, inserted] = out.emplace(probe.dev, *probe.placement);
      if (!inserted) continue;
      it->second.instr_idxs = instrs;
      if (!probe.leader) it->second.steps = 0;  // no search performed
    }
    return out;
  }

  void backtrackClient(int node, int j, PlacementPlan* plan, WorkCtx& ctx) {
    const int i = clientChoice(node, j);
    CLICKINC_CHECK(i >= 0, "no choice recorded");
    emitAssignment(node, i, j, plan, ctx);
    for (int c : tree_.at(node).children) backtrackClient(c, i, plan, ctx);
  }
};

}  // namespace

PlacementPlan placeProgram(const BlockDag& dag, const topo::EcTree& tree,
                           const topo::Topology& topo,
                           const OccupancyMap& occ,
                           const PlacementOptions& opts,
                           PlacementArena* arena) {
  TreePlacer placer(dag, tree, topo, occ, opts, arena);
  return placer.run();
}

namespace {

// Invokes fn(device, placement) for every placement of the assignment that
// claims resources (device-resident and bypass alike).
template <typename Fn>
void forEachClaim(const NodeAssignment& a, Fn&& fn) {
  for (const auto& [dev, p] : a.on_device) {
    if (!p.instr_idxs.empty()) fn(dev, p);
  }
  for (const auto& [dev, p] : a.on_bypass) {
    if (!p.instr_idxs.empty()) fn(dev, p);
  }
}

}  // namespace

void commitPlan(const PlacementPlan& plan, const ir::IrProgram& prog,
                OccupancyMap& occ) {
  CLICKINC_CHECK(plan.feasible, "cannot commit infeasible plan");
  for (const auto& a : plan.assignments) {
    forEachClaim(a, [&](int dev, const IntraPlacement& p) {
      commitPlacement(occ.of(dev), prog, p);
    });
  }
}

void releasePlan(const PlacementPlan& plan, const ir::IrProgram& prog,
                 OccupancyMap& occ, const std::function<bool(int)>& keep) {
  for (const auto& a : plan.assignments) {
    forEachClaim(a, [&](int dev, const IntraPlacement& p) {
      if (!keep || !keep(dev)) releasePlacement(occ.of(dev), prog, p);
    });
  }
}

std::set<int> claimedDevices(const NodeAssignment& a) {
  std::set<int> devs;
  forEachClaim(a, [&](int dev, const IntraPlacement&) { devs.insert(dev); });
  return devs;
}

std::set<int> claimedDevices(const PlacementPlan& plan) {
  std::set<int> devs;
  for (const auto& a : plan.assignments) {
    forEachClaim(a, [&](int dev, const IntraPlacement&) { devs.insert(dev); });
  }
  return devs;
}

namespace {

bool samePlacementMap(const std::map<int, IntraPlacement>& a,
                      const std::map<int, IntraPlacement>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.instr_idxs == y.second.instr_idxs &&
                             x.second.stage_of == y.second.stage_of;
                    });
}

bool sameAssignment(const NodeAssignment& a, const NodeAssignment& b) {
  return a.from_block == b.from_block && a.to_block == b.to_block &&
         a.bypass_from == b.bypass_from &&
         samePlacementMap(a.on_device, b.on_device) &&
         samePlacementMap(a.on_bypass, b.on_bypass);
}

std::set<int> unpinnedDevices(const PlacementPlan& plan,
                              const std::vector<char>& pinned) {
  std::set<int> devs;
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    if (pinned[i]) continue;
    forEachClaim(plan.assignments[i],
                 [&](int dev, const IntraPlacement&) { devs.insert(dev); });
  }
  return devs;
}

}  // namespace

PinDiff pinUnchanged(const PlacementPlan& old_plan,
                     const PlacementPlan& new_plan) {
  const auto& olds = old_plan.assignments;
  const auto& news = new_plan.assignments;
  PinDiff d;
  d.pinned_old.assign(olds.size(), 0);
  d.pinned_new.assign(news.size(), 0);
  std::vector<std::size_t> match(news.size());
  for (std::size_t i = 0; i < news.size(); ++i) {
    for (std::size_t j = 0; j < olds.size(); ++j) {
      if (d.pinned_old[j] || !sameAssignment(news[i], olds[j])) continue;
      d.pinned_new[i] = d.pinned_old[j] = 1;
      match[i] = j;
      break;
    }
  }
  for (bool demoted = true; demoted;) {
    demoted = false;
    d.unpinned_old_devices = unpinnedDevices(old_plan, d.pinned_old);
    d.unpinned_new_devices = unpinnedDevices(new_plan, d.pinned_new);
    for (std::size_t i = 0; i < news.size(); ++i) {
      if (!d.pinned_new[i]) continue;
      for (int dev : claimedDevices(news[i])) {
        if (d.unpinned_old_devices.count(dev) != 0 ||
            d.unpinned_new_devices.count(dev) != 0) {
          d.pinned_new[i] = d.pinned_old[match[i]] = 0;
          demoted = true;
          break;
        }
      }
    }
  }
  return d;
}

}  // namespace clickinc::place
