// Deterministic fault injection for the failure-domain runtime.
//
// A FaultInjector draws kill/drain/heal decisions from a seeded SplitMix64
// stream over a topology's current health state: the same seed against the
// same topology evolution always yields the same action sequence, which is
// what lets the chaos suite assert bit-identical recovery across 1/2/8
// thread pools. Actions are meant to fire *between* bursts — the emulator
// resolves routes per send, so a kill lands before the next path lookup —
// and every applied action funnels through Topology::set{Node,Link}Health,
// i.e. into the monotonically-versioned FailureEvent log the service's
// failover pipeline consumes.
//
// Two driving modes:
//   - step(): propose + apply directly to the topology. For standalone
//     emulator scenarios where the caller owns everything single-threaded.
//   - propose() alone: callers that must apply under a lock (the service)
//     take the proposed action and hand it to ClickIncService::applyFault.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.h"
#include "util/crc.h"

namespace clickinc::emu {

// One kill/drain/heal decision. kNone means nothing was eligible (the
// concurrent-failure cap is reached and nothing is left to heal).
struct FaultAction {
  enum class Kind : std::uint8_t {
    kNone,
    kKillNode,   // -> Health::kDown
    kDrainNode,  // -> Health::kDraining
    kHealNode,   // -> Health::kUp
    kKillLink,   // -> Health::kDown
    kHealLink,   // -> Health::kUp
  };
  Kind kind = Kind::kNone;
  int node = -1;                 // node actions
  int link_a = -1, link_b = -1;  // link actions
};

const char* faultActionName(FaultAction::Kind k);

// The action's health transition on `topo` (no-op for kNone); the one
// mapping both FaultInjector::apply and ClickIncService::applyFault use.
void applyAction(topo::Topology& topo, const FaultAction& a);

struct FaultOptions {
  bool allow_links = true;   // also kill/heal links
  bool allow_drain = true;   // drain as well as hard-kill nodes
  double heal_bias = 0.3;    // chance of healing when both are possible
  int max_down = 2;          // cap on concurrently non-Up elements
  bool spare_hosts = true;   // never touch hosts or host-adjacent links
                             // (they anchor traffic endpoints)
};

class FaultInjector {
 public:
  using Options = FaultOptions;

  FaultInjector(topo::Topology* topo, std::uint64_t seed,
                Options opts = {});

  // Draws the next action from the seeded stream without applying it.
  // Deterministic given the seed and the topology's health history.
  FaultAction propose();

  // propose() + apply(); returns the applied action.
  FaultAction step();

  // Applies an action to the topology (no-op for kNone) and records it.
  void apply(const FaultAction& a);

  const std::vector<FaultAction>& history() const { return history_; }

 private:
  topo::Topology* topo_;
  Rng rng_;
  Options opts_;
  std::vector<FaultAction> history_;
};

}  // namespace clickinc::emu
