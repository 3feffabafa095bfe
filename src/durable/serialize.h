// Binary encodings of the durable control-plane core: the journal's record
// payloads and the checkpoint `ClickIncService::checkpoint()` snapshots
// (IR programs, placement plans, traffic specs, occupancy ledgers and
// health state; docs/recovery.md).
//
// The encoding is versioned only through the journal magic; field order is
// the contract, and serialize.cc writes it down once per type as a
// `fields` list. Non-semantic fields (PlacementPlan::elapsed_ms / stats,
// PlacementOptions::pool) are deliberately excluded, so two plans that
// deploy identically serialize identically — which is what makes
// planFingerprint() usable as a cross-restart plan identity.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ir/program.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "topo/topology.h"

namespace clickinc::durable {

// Content fingerprint of a plan's semantic fields (chained mix64 over the
// serialized bytes). Stable across processes; used to cross-check that a
// checkpointed plan survived the round-trip losslessly.
std::uint64_t planFingerprint(const place::PlacementPlan& plan);

// --- flap-damping bookkeeping (core service state, serialized here) -----

// One heal reaction deferred by flap damping: the health transition is
// already applied to the topology, but the failover response (re-placement
// / server-only upgrade) waits until the entity stays quiet past the
// policy window. `from` is the pre-heal state the effective health view
// masks the entity back to while deferred; `version` is the damped heal
// event's. Every deferred event is a heal, so `to` is always kUp.
using DeferredHeal = topo::FailureEvent;

// Map key of a health entity: node id, or a tagged link index.
std::uint64_t entityKey(const topo::FailureEvent& ev);

// --- journal record payloads --------------------------------------------

struct CommitRecord {
  int user = -1;
  ir::IrProgram prog;
  place::PlacementPlan plan;
  topo::TrafficSpec traffic;
  place::PlacementOptions options;
};

struct AbortRecord {
  int user = -1;  // the preceding kCommit's user; its id was never published
};

struct RemoveRecord {
  int user = -1;
  bool lazy = true;
};

struct HealthRecord {
  topo::FailureEvent event;
};

// Write-behind summary of one failover batch; replay re-runs the batch
// deterministically and cross-checks these fields.
struct FailoverRecord {
  std::uint64_t processed_version = 0;  // watermark after the batch
  std::uint32_t damped_events = 0;
  std::uint32_t tenants = 0;  // affected-tenant count of the batch
};

// Write-ahead of one defragmentation migration (docs/defrag.md): the new
// plan the make-before-break swap installs for `user`, plus the
// fingerprint of the plan it replaces — replay cross-checks the deployed
// plan before re-applying the swap.
struct MigrateRecord {
  int user = -1;
  place::PlacementPlan plan;         // the new (post-migration) plan
  std::uint64_t old_plan_fp = 0;     // fingerprint of the plan replaced
};

// Compensation for a kMigrate whose swap was undone (deploy failure or a
// dirty verify gate): migrate back to `plan`, the pre-migration plan.
struct MigrateAbortRecord {
  int user = -1;
  place::PlacementPlan plan;  // the old plan restored
};

struct CheckpointTenant {
  int user = -1;
  ir::IrProgram prog;
  place::PlacementPlan plan;
  topo::TrafficSpec traffic;
  place::PlacementOptions options;
  std::uint64_t plan_fp = 0;  // planFingerprint at checkpoint time
};

struct CheckpointDevice {
  int node = -1;
  std::vector<device::ResourceDemand> free_stage;
  device::ResourceDemand free_whole;
};

struct CheckpointRecord {
  int next_user = 1;
  std::uint64_t health_version = 0;
  std::uint64_t processed_health_version = 0;
  std::vector<std::uint8_t> node_health;  // topo::Health per node
  std::vector<std::uint8_t> link_health;  // topo::Health per link
  std::vector<CheckpointDevice> devices;  // programmable devices' ledger
  std::vector<CheckpointTenant> tenants;  // ascending user id
  std::map<std::uint64_t, DeferredHeal> deferred_heals;
  std::map<std::uint64_t, std::uint64_t> last_disturb;
};

std::vector<std::uint8_t> encodeCommit(const CommitRecord& rec);
CommitRecord decodeCommit(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeAbort(const AbortRecord& rec);
AbortRecord decodeAbort(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeRemove(const RemoveRecord& rec);
RemoveRecord decodeRemove(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeHealth(const HealthRecord& rec);
HealthRecord decodeHealth(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeFailover(const FailoverRecord& rec);
FailoverRecord decodeFailover(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeMigrate(const MigrateRecord& rec);
MigrateRecord decodeMigrate(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeMigrateAbort(const MigrateAbortRecord& rec);
MigrateAbortRecord decodeMigrateAbort(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeCheckpoint(const CheckpointRecord& rec);
CheckpointRecord decodeCheckpoint(std::span<const std::uint8_t> payload);

}  // namespace clickinc::durable
