#include <gtest/gtest.h>

#include <set>

#include "emu/fault.h"
#include "scale/fattree.h"
#include "topo/ec.h"
#include "topo/topology.h"
#include "util/crc.h"
#include "util/error.h"

namespace clickinc::topo {
namespace {

TEST(Topology, ChainShape) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino(), device::makeTofino()});
  EXPECT_EQ(t.nodeCount(), 5);  // client + 3 + server
  const auto path = t.shortestPath(0, 4);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 4);
}

TEST(Topology, FatTreeCounts) {
  const auto t = Topology::fatTree(4, 2, device::makeTofino(),
                                   device::makeTrident4(),
                                   device::makeTofino2());
  // k=4: 4 cores, 4 pods x (2 agg + 2 tor + 4 hosts).
  int cores = 0, aggs = 0, tors = 0, hosts = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 3) ++cores;
    if (n.layer == 2 && n.kind == NodeKind::kSwitch) ++aggs;
    if (n.layer == 1) ++tors;
    if (n.kind == NodeKind::kHost) ++hosts;
  }
  EXPECT_EQ(cores, 4);
  EXPECT_EQ(aggs, 8);
  EXPECT_EQ(tors, 8);
  EXPECT_EQ(hosts, 16);
}

TEST(Topology, FatTreePathsGoThroughCore) {
  const auto t = Topology::fatTree(4, 1, device::makeTofino(),
                                   device::makeTofino(),
                                   device::makeTofino());
  int h0 = -1, h1 = -1;
  for (const auto& n : t.nodes()) {
    if (n.kind == NodeKind::kHost && n.pod == 0 && h0 < 0) h0 = n.id;
    if (n.kind == NodeKind::kHost && n.pod == 2 && h1 < 0) h1 = n.id;
  }
  const auto path = t.shortestPath(h0, h1);
  ASSERT_FALSE(path.empty());
  bool through_core = false;
  for (int id : path) {
    if (t.node(id).layer == 3) through_core = true;
  }
  EXPECT_TRUE(through_core);
  EXPECT_EQ(path.size(), 7u);  // host-tor-agg-core-agg-tor-host
}

TEST(Topology, SpineLeafFullMesh) {
  const auto t = Topology::spineLeaf(3, 4, 2, device::makeTofino(),
                                     device::makeTofino2());
  int spines = 0, leaves = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 2) ++spines;
    if (n.layer == 1) ++leaves;
  }
  EXPECT_EQ(spines, 3);
  EXPECT_EQ(leaves, 4);
  // Each leaf reaches any other leaf in 2 hops via any spine.
  const int l0 = t.findNode("Leaf0");
  const int l3 = t.findNode("Leaf3");
  EXPECT_EQ(t.shortestPath(l0, l3).size(), 3u);
}

TEST(Topology, PaperEmulationInventory) {
  const auto t = Topology::paperEmulation();
  EXPECT_GE(t.findNode("Core0"), 0);
  EXPECT_GE(t.findNode("ToR5"), 0);
  EXPECT_GE(t.findNode("Agg4"), 0);
  EXPECT_GE(t.findNode("NFP0"), 0);
  EXPECT_GE(t.findNode("FNIC1"), 0);
  EXPECT_GE(t.findNode("BF0"), 0);
  EXPECT_GE(t.findNode("pod2b"), 0);
  // Bypass FPGA attached to pod2 aggs.
  const auto& agg4 = t.node(t.findNode("Agg4"));
  EXPECT_GE(agg4.attached_accel, 0);
  EXPECT_EQ(t.node(agg4.attached_accel).kind, NodeKind::kAccel);
}

TEST(Ec, ChainDevicesAreDistinct) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino(), device::makeTofino()});
  const auto ec = equivalenceClasses(t);
  // The middle switch differs from the end switches (host adjacency), and
  // the two end switches differ because their hosts are distinct anchors.
  std::set<int> classes(ec.begin(), ec.end());
  EXPECT_EQ(classes.size(), ec.size());  // everything distinct in a chain
}

TEST(Ec, FatTreeMergesAggsAndCores) {
  const auto t = Topology::fatTree(4, 1, device::makeTofino(),
                                   device::makeTrident4(),
                                   device::makeTofino2());
  const auto ec = equivalenceClasses(t);
  // Aggs within one pod share an EC.
  std::map<int, std::set<int>> agg_ecs_by_pod;
  std::set<int> core_ecs;
  for (const auto& n : t.nodes()) {
    if (n.layer == 2) agg_ecs_by_pod[n.pod].insert(ec[static_cast<std::size_t>(n.id)]);
    if (n.layer == 3) core_ecs.insert(ec[static_cast<std::size_t>(n.id)]);
  }
  for (const auto& [pod, ecs] : agg_ecs_by_pod) {
    EXPECT_EQ(ecs.size(), 1u) << "pod " << pod;
  }
  EXPECT_EQ(core_ecs.size(), 1u);
  // ToRs serve distinct hosts, so they stay distinct.
  std::set<int> tor_ecs;
  int tor_count = 0;
  for (const auto& n : t.nodes()) {
    if (n.layer == 1) {
      tor_ecs.insert(ec[static_cast<std::size_t>(n.id)]);
      ++tor_count;
    }
  }
  EXPECT_EQ(static_cast<int>(tor_ecs.size()), tor_count);
}

// Digest of equivalenceClasses at every step of a seeded kill/drain/heal
// walk.
std::uint64_t classWalkDigest(Topology t, std::uint64_t seed, int steps) {
  emu::FaultOptions opts;
  opts.max_down = 6;
  emu::FaultInjector inj(&t, seed, opts);
  std::uint64_t h = 0;
  for (int step = 0; step <= steps; ++step) {
    for (int e : equivalenceClasses(t)) {
      h = mix64(h ^ static_cast<std::uint64_t>(e));
    }
    inj.step();
  }
  return h;
}

// Class ids order the EC tree's nodes and so reach every plan: any change
// to the refinement must keep them exactly. The digests are pinned.
TEST(Ec, ClassIdsArePinnedAlongSeededFaultWalks) {
  EXPECT_EQ(classWalkDigest(Topology::fatTree(8, 2, device::makeTofino(),
                                              device::makeTrident4(),
                                              device::makeTofino2()),
                            5, 40),
            3494855303941213005ULL);
  scale::FatTreeParams k16;
  k16.k = 16;
  k16.hosts_per_tor = 8;
  EXPECT_EQ(classWalkDigest(scale::buildFatTree(k16).topo, 9, 12),
            7453852614096487331ULL);
  scale::FatTreeParams nics;
  nics.k = 4;
  nics.host_nics = true;
  EXPECT_EQ(classWalkDigest(scale::buildFatTree(nics).topo, 3, 30),
            11377702680124169568ULL);
  // paperEmulation attaches a bypass accelerator, tagged in initial colors.
  EXPECT_EQ(classWalkDigest(Topology::paperEmulation(), 7, 30),
            9347510418837122720ULL);
}

TEST(EcTree, SinglePathChainBecomesChainTree) {
  const auto t = Topology::chain(
      {device::makeTofino(), device::makeTofino2(), device::makeTrident4()});
  TrafficSpec spec;
  spec.sources = {{t.findNode("client"), 10.0}};
  spec.dst_host = t.findNode("server");
  const auto tree = buildEcTree(t, spec);
  // Root is d0 (the first common EC from the client side is... the whole
  // path is common, so root = first device), then server chain d1, d2.
  EXPECT_EQ(tree.nodes.size(), 3u);
  EXPECT_EQ(tree.server_chain.size(), 2u);
  EXPECT_DOUBLE_EQ(tree.total_traffic, 10.0);
}

TEST(EcTree, PaperTopologyTwoPodsToPod2) {
  const auto t = Topology::paperEmulation();
  TrafficSpec spec;
  spec.sources = {{t.findNode("pod0a"), 10.0}, {t.findNode("pod1a"), 20.0}};
  spec.dst_host = t.findNode("pod2b");
  const auto tree = buildEcTree(t, spec);

  // Root must be the core EC (both Tofino2 cores merged).
  const auto& root = tree.at(tree.root);
  EXPECT_EQ(root.model->chip, device::ChipKind::kTofino2);
  EXPECT_EQ(root.devices.size(), 2u);

  // Two client leaves: the pod0 NFP NIC and the pod1 FPGA NIC.
  const auto leaves = tree.clientLeaves();
  ASSERT_EQ(leaves.size(), 2u);
  std::set<device::ChipKind> leaf_chips;
  for (int l : leaves) leaf_chips.insert(tree.at(l).model->chip);
  EXPECT_TRUE(leaf_chips.count(device::ChipKind::kNfp));
  EXPECT_TRUE(leaf_chips.count(device::ChipKind::kFpgaNic));

  // Server chain: pod2 Agg EC (with bypass FPGA) then ToR5.
  ASSERT_EQ(tree.server_chain.size(), 2u);
  const auto& agg = tree.at(tree.server_chain[0]);
  EXPECT_EQ(agg.model->chip, device::ChipKind::kTrident4);
  ASSERT_NE(agg.bypass, nullptr);
  EXPECT_EQ(agg.bypass->chip, device::ChipKind::kFpga);
  const auto& tor = tree.at(tree.server_chain[1]);
  EXPECT_EQ(tor.model->chip, device::ChipKind::kTofino);
  EXPECT_EQ(tor.devices.size(), 1u);

  EXPECT_DOUBLE_EQ(tree.total_traffic, 30.0);
}

TEST(EcTree, UnreachableSourceThrows) {
  Topology t;
  Node a;
  a.name = "a";
  a.kind = NodeKind::kHost;
  const int ha = t.addNode(a);
  Node b;
  b.name = "b";
  b.kind = NodeKind::kHost;
  const int hb = t.addNode(b);  // no link
  TrafficSpec spec;
  spec.sources = {{ha, 1.0}};
  spec.dst_host = hb;
  EXPECT_THROW(buildEcTree(t, spec), PlacementError);
}

TEST(EcTree, LeafTrafficAccumulates) {
  const auto t = Topology::paperEmulation();
  TrafficSpec spec;
  spec.sources = {{t.findNode("pod0a"), 5.0}, {t.findNode("pod0b"), 7.0}};
  spec.dst_host = t.findNode("pod2a");
  const auto tree = buildEcTree(t, spec);
  double leaf_sum = 0;
  for (const auto& n : tree.nodes) leaf_sum += n.leaf_traffic;
  EXPECT_DOUBLE_EQ(leaf_sum, 12.0);
}

}  // namespace
}  // namespace clickinc::topo
