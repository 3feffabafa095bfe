#include "topo/ec.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::topo {

namespace {

// Distinct values of `v`, counted by sort+unique in the reused `scratch`.
std::size_t countDistinct(const std::vector<std::uint64_t>& v,
                          std::vector<std::uint64_t>& scratch) {
  scratch.assign(v.begin(), v.end());
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

}  // namespace

std::vector<int> equivalenceClasses(const Topology& topo,
                                    const HealthView* health) {
  const HealthView live = health ? HealthView{} : topo.healthView();
  const HealthView& hv = health ? *health : live;
  // Down links are rare; precompute a per-node mask of severed neighbors.
  std::vector<std::pair<int, int>> down_pairs;
  const auto& links = topo.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (hv.linkAt(static_cast<int>(i)) == Health::kDown) {
      down_pairs.emplace_back(std::min(links[i].a, links[i].b),
                              std::max(links[i].a, links[i].b));
    }
  }
  auto edgeUp = [&](int a, int b) {
    if (hv.nodeAt(a) == Health::kDown || hv.nodeAt(b) == Health::kDown) {
      return false;
    }
    if (down_pairs.empty()) return true;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    return std::find(down_pairs.begin(), down_pairs.end(), key) ==
           down_pairs.end();
  };
  const int n = topo.nodeCount();
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::uint64_t> color(un);
  // Initial colors: hosts are unique (they anchor distinct traffic
  // endpoints); devices start from (kind, layer, health, model,
  // bypass-model). Health kUp contributes 0, keeping the all-healthy
  // partition identical to the health-oblivious one.
  std::string tag;
  for (int i = 0; i < n; ++i) {
    const Node& nd = topo.node(i);
    if (nd.kind == NodeKind::kHost) {
      color[static_cast<std::size_t>(i)] =
          mix64(0x1000 + static_cast<std::uint64_t>(i));
    } else {
      std::uint64_t c = mix64(static_cast<std::uint64_t>(nd.kind) * 131 +
                              static_cast<std::uint64_t>(nd.layer) +
                              static_cast<std::uint64_t>(hv.nodeAt(i)) * 7919);
      tag.assign(nd.model.name);
      if (nd.attached_accel >= 0) tag.append("+acc");
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(tag.data());
      c ^= crc32(std::span<const std::uint8_t>(bytes, tag.size()));
      color[static_cast<std::size_t>(i)] = c;
    }
  }
  // Refine: new color = hash(old, sorted neighbor colors). Fixpoint in at
  // most n rounds; fat-trees converge in a handful. Severed edges (Down
  // node or link on either side) do not contribute: a switch that lost its
  // uplink is wired differently from one that kept it. The buffers are
  // reused across nodes and rounds; stabilization is detected by the
  // distinct-color count, carried over from the previous round.
  std::vector<std::uint64_t> next(un);
  std::vector<std::uint64_t> nb;
  std::vector<std::uint64_t> scratch;
  std::size_t distinct = countDistinct(color, scratch);
  for (int round = 0; round < n; ++round) {
    for (int i = 0; i < n; ++i) {
      nb.clear();
      for (int j : topo.neighbors(i)) {
        if (edgeUp(i, j)) nb.push_back(color[static_cast<std::size_t>(j)]);
      }
      std::sort(nb.begin(), nb.end());
      std::uint64_t c = color[static_cast<std::size_t>(i)];
      for (std::uint64_t x : nb) c = mix64(c ^ x);
      next[static_cast<std::size_t>(i)] = c;
    }
    if (next == color) break;
    const std::size_t after = countDistinct(next, scratch);
    const bool changed = distinct != after;
    distinct = after;
    color.swap(next);
    if (!changed && round > 0) break;
  }
  // Compact to contiguous ids in first-occurrence order: sort node ids by
  // (color, id), so each color's run starts at its first node.
  std::vector<int> order(un);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto ca = color[static_cast<std::size_t>(a)];
    const auto cb = color[static_cast<std::size_t>(b)];
    return ca != cb ? ca < cb : a < b;
  });
  std::vector<int> first(un);  // node id -> first node of its color
  int leader = 0;
  for (std::size_t k = 0; k < un; ++k) {
    const auto node = static_cast<std::size_t>(order[k]);
    const auto prev = static_cast<std::size_t>(order[k == 0 ? 0 : k - 1]);
    if (k == 0 || color[node] != color[prev]) leader = order[k];
    first[node] = leader;
  }
  std::vector<int> ec(un);
  int ids = 0;
  for (std::size_t i = 0; i < un; ++i) {
    const auto f = static_cast<std::size_t>(first[i]);
    ec[i] = f == i ? ids++ : ec[f];  // f <= i: already assigned
  }
  return ec;
}

EcPartition EcPartition::build(const Topology& topo,
                               const HealthView* health) {
  EcPartition p;
  p.health = health ? *health : topo.healthView();
  p.ec_of = equivalenceClasses(topo, &p.health);
  // One pass groups devices by class (ascending node id per class) so each
  // tree node materializes in O(|EC|) instead of re-scanning the topology.
  for (int nid = 0; nid < topo.nodeCount(); ++nid) {
    if (topo.node(nid).kind == NodeKind::kHost) continue;
    if (p.health.nodeAt(nid) != Health::kUp) continue;
    const auto e =
        static_cast<std::size_t>(p.ec_of[static_cast<std::size_t>(nid)]);
    if (e >= p.devices_of_ec.size()) p.devices_of_ec.resize(e + 1);
    p.devices_of_ec[e].push_back(nid);
  }
  return p;
}

std::vector<int> EcTree::clientLeaves() const {
  std::vector<int> leaves;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].server_side && nodes[i].children.empty() &&
        static_cast<int>(i) != root) {
      leaves.push_back(static_cast<int>(i));
    }
  }
  return leaves;
}

EcTree buildEcTree(const Topology& topo, const TrafficSpec& spec,
                   const HealthView* health) {
  return buildEcTree(topo, spec, EcPartition::build(topo, health));
}

EcTree buildEcTree(const Topology& topo, const TrafficSpec& spec,
                   const EcPartition& partition) {
  CLICKINC_CHECK(!spec.sources.empty() && spec.dst_host >= 0,
                 "traffic spec needs sources and a destination");
  const HealthView& hv = partition.health;
  const std::vector<int>& ec = partition.ec_of;

  // Programmable path of each source: node ids sans hosts, mapped to EC
  // sequences with consecutive duplicates removed. Paths route around Down
  // elements; Draining devices still forward but are skipped as placement
  // targets, exactly like hosts.
  struct EcPath {
    std::vector<int> ecs;
    double volume;
  };
  std::vector<EcPath> paths;
  for (const auto& src : spec.sources) {
    const auto raw = topo.shortestPathUp(src.host, spec.dst_host, &hv);
    if (raw.empty()) {
      if (!topo.shortestPath(src.host, spec.dst_host).empty()) {
        throw UnavailableError(cat("no healthy path from host ", src.host,
                                   " to ", spec.dst_host));
      }
      throw PlacementError(cat("no path from host ", src.host, " to ",
                               spec.dst_host));
    }
    EcPath p;
    p.volume = src.volume;
    bool saw_device = false;
    for (int nid : raw) {
      const Node& nd = topo.node(nid);
      if (nd.kind == NodeKind::kHost) continue;
      saw_device = true;
      if (hv.nodeAt(nid) != Health::kUp) continue;
      const int e = ec[static_cast<std::size_t>(nid)];
      if (p.ecs.empty() || p.ecs.back() != e) p.ecs.push_back(e);
    }
    if (p.ecs.empty()) {
      if (saw_device) {
        throw UnavailableError("every device on the path is draining");
      }
      throw PlacementError("path contains no programmable devices");
    }
    paths.push_back(std::move(p));
  }

  // The server-side suffix common to all paths: longest common suffix of
  // the EC sequences. The root is the first EC of that suffix.
  std::vector<int> suffix = paths[0].ecs;
  for (const auto& p : paths) {
    std::vector<int> common;
    auto a = suffix.rbegin();
    auto b = p.ecs.rbegin();
    while (a != suffix.rend() && b != p.ecs.rend() && *a == *b) {
      common.push_back(*a);
      ++a;
      ++b;
    }
    std::reverse(common.begin(), common.end());
    suffix = std::move(common);
  }
  if (suffix.empty()) {
    throw PlacementError("traffic paths share no common device class");
  }
  const int root_ec = suffix.front();

  // Only Up devices qualify as replica targets (the partition's lists): a
  // Draining twin must not receive new segments and a Down one is gone.
  const auto& devices_of_ec = partition.devices_of_ec;
  EcTree tree;
  std::map<int, int> node_of_ec;  // ec id -> tree index
  auto getNode = [&](int e) -> int {
    auto it = node_of_ec.find(e);
    if (it != node_of_ec.end()) return it->second;
    EcTreeNode tn;
    tn.ec_id = e;
    if (e < static_cast<int>(devices_of_ec.size())) {
      tn.devices = devices_of_ec[static_cast<std::size_t>(e)];
    }
    CLICKINC_CHECK(!tn.devices.empty(), "empty EC");
    const Node& rep = topo.node(tn.devices.front());
    tn.model = &topo.node(tn.devices.front()).model;
    if (rep.attached_accel >= 0 &&
        hv.nodeAt(rep.attached_accel) == Health::kUp) {
      tn.bypass = &topo.node(rep.attached_accel).model;
    }
    const int idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(std::move(tn));
    node_of_ec[e] = idx;
    return idx;
  };

  tree.root = getNode(root_ec);

  // Client side: for each path, the prefix before root_ec builds
  // child->parent edges toward the root.
  for (const auto& p : paths) {
    std::size_t root_pos = 0;
    while (root_pos < p.ecs.size() && p.ecs[root_pos] != root_ec) ++root_pos;
    CLICKINC_CHECK(root_pos < p.ecs.size(), "root EC missing from path");
    int parent_idx = tree.root;
    // Walk from the root downwards to the source leaf.
    for (std::size_t i = root_pos; i-- > 0;) {
      const int idx = getNode(p.ecs[i]);
      auto& tn = tree.nodes[static_cast<std::size_t>(idx)];
      if (tn.parent == -1 && idx != tree.root) {
        tn.parent = parent_idx;
        tree.nodes[static_cast<std::size_t>(parent_idx)].children.push_back(
            idx);
      }
      parent_idx = idx;
    }
    // Leaf traffic enters at the first EC of the path (or at the root for
    // sources directly under it).
    const int leaf_idx = getNode(p.ecs[0]);
    tree.nodes[static_cast<std::size_t>(leaf_idx)].leaf_traffic += p.volume;
    tree.total_traffic += p.volume;
  }

  // Server side: suffix after the root, shared by all paths.
  int prev = tree.root;
  for (std::size_t i = 1; i < suffix.size(); ++i) {
    const int idx = getNode(suffix[i]);
    auto& tn = tree.nodes[static_cast<std::size_t>(idx)];
    tn.server_side = true;
    tn.parent = prev;
    tree.server_chain.push_back(idx);
    prev = idx;
  }
  return tree;
}

}  // namespace clickinc::topo
