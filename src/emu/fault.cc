#include "emu/fault.h"

namespace clickinc::emu {

const char* faultActionName(FaultAction::Kind k) {
  switch (k) {
    case FaultAction::Kind::kNone: return "none";
    case FaultAction::Kind::kKillNode: return "kill-node";
    case FaultAction::Kind::kDrainNode: return "drain-node";
    case FaultAction::Kind::kHealNode: return "heal-node";
    case FaultAction::Kind::kKillLink: return "kill-link";
    case FaultAction::Kind::kHealLink: return "heal-link";
  }
  return "?";
}

FaultInjector::FaultInjector(topo::Topology* topo, std::uint64_t seed,
                             Options opts)
    : topo_(topo), rng_(seed), opts_(opts) {}

FaultAction FaultInjector::propose() {
  // Candidates are enumerated in node/link order, so the choice is a pure
  // function of (seed position, health state).
  std::vector<FaultAction> kills, heals;
  int non_up = 0;
  for (int i = 0; i < topo_->nodeCount(); ++i) {
    const topo::Health h = topo_->nodeHealth(i);
    if (h != topo::Health::kUp) {
      ++non_up;
      FaultAction a;
      a.kind = FaultAction::Kind::kHealNode;
      a.node = i;
      heals.push_back(a);
      continue;
    }
    if (opts_.spare_hosts && topo_->node(i).kind == topo::NodeKind::kHost) {
      continue;
    }
    FaultAction a;
    a.kind = FaultAction::Kind::kKillNode;
    a.node = i;
    kills.push_back(a);
    if (opts_.allow_drain) {
      a.kind = FaultAction::Kind::kDrainNode;
      kills.push_back(a);
    }
  }
  if (opts_.allow_links) {
    for (const auto& l : topo_->links()) {
      FaultAction a;
      a.link_a = l.a;
      a.link_b = l.b;
      if (topo_->linkHealth(l.a, l.b) == topo::Health::kDown) {
        ++non_up;
        a.kind = FaultAction::Kind::kHealLink;
        heals.push_back(a);
        continue;
      }
      if (opts_.spare_hosts &&
          (topo_->node(l.a).kind == topo::NodeKind::kHost ||
           topo_->node(l.b).kind == topo::NodeKind::kHost)) {
        continue;
      }
      a.kind = FaultAction::Kind::kKillLink;
      kills.push_back(a);
    }
  }
  const bool can_kill = !kills.empty() && non_up < opts_.max_down;
  const bool can_heal = !heals.empty();
  if (!can_kill && !can_heal) return FaultAction{};
  bool heal = can_heal;
  if (can_kill && can_heal) heal = rng_.nextDouble() < opts_.heal_bias;
  auto& pool = heal ? heals : kills;
  return pool[static_cast<std::size_t>(rng_.nextBelow(pool.size()))];
}

FaultAction FaultInjector::step() {
  const FaultAction a = propose();
  apply(a);
  return a;
}

void FaultInjector::apply(const FaultAction& a) {
  if (a.kind == FaultAction::Kind::kNone) return;
  applyAction(*topo_, a);
  history_.push_back(a);
}

void applyAction(topo::Topology& topo, const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::kNone:
      break;
    case FaultAction::Kind::kKillNode:
      topo.setNodeHealth(a.node, topo::Health::kDown);
      break;
    case FaultAction::Kind::kDrainNode:
      topo.setNodeHealth(a.node, topo::Health::kDraining);
      break;
    case FaultAction::Kind::kHealNode:
      topo.setNodeHealth(a.node, topo::Health::kUp);
      break;
    case FaultAction::Kind::kKillLink:
      topo.setLinkHealth(a.link_a, a.link_b, topo::Health::kDown);
      break;
    case FaultAction::Kind::kHealLink:
      topo.setLinkHealth(a.link_a, a.link_b, topo::Health::kUp);
      break;
  }
}

}  // namespace clickinc::emu
