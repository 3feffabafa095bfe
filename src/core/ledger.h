// Ledger: the one occupancy ledger every tenant shares (paper §3
// "One-Big-INC", §6 incremental deploy and release).
//
// It owns the free-resource map of every programmable device, the live
// deployments, the optimistic-concurrency versions (one global, one per
// pod) and the pod DomainIndex. Each occupancy mutator bumps the global
// version and the version of every pod owning a device it touched, so no
// caller pairs a claim or release with a version bump by hand. There is
// no lock: ClickIncService's mutex guards the ledger together with the
// device programs and emulator state it is kept consistent with.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "durable/serialize.h"
#include "ir/param_frame.h"
#include "place/treedp.h"
#include "scale/domains.h"

namespace clickinc::core {

// One live tenant. `options` are the original submission's placement
// options, kept so failover re-placement honours them; the borrowed pool
// and ratio scope are never stored.
struct Deployed {
  std::shared_ptr<ir::IrProgram> prog;
  // prog's Param layout, built once at commit; every redeploy (failover,
  // defrag, recovery) binds the tenant's emulator entries to it.
  std::shared_ptr<const ir::ParamLayout> layout;
  place::PlacementPlan plan;
  topo::TrafficSpec traffic;
  place::PlacementOptions options;
};

class Ledger {
 public:
  explicit Ledger(const topo::Topology* topo);

  const place::OccupancyMap& occupancy() const { return occ_; }
  // Unversioned access behind ClickIncService::occupancy(), which verifier
  // tests use to corrupt the ledger on purpose.
  place::OccupancyMap& rawOccupancy() { return occ_; }
  const std::map<int, Deployed>& deployments() const { return deployed_; }

  std::uint64_t version() const { return version_; }
  // The version a snapshot of `domain` validates against: the pod's own,
  // or the global one for kCrossDomain or when sharding is off.
  std::uint64_t version(int domain) const {
    return domain == scale::kCrossDomain || domains_ == nullptr
               ? version_
               : pod_version_[static_cast<std::size_t>(domain)];
  }

  // The pod index, or nullptr when domain sharding is off.
  const scale::DomainIndex* domainIndex() const { return domains_.get(); }
  // The pod holding every endpoint of `traffic`, else kCrossDomain.
  int domainOf(const topo::TrafficSpec& traffic) const {
    return domains_ == nullptr ? scale::kCrossDomain
                               : domains_->domainOfTraffic(traffic);
  }
  // A pod's devices (the adaptive-ratio scope); nullptr for kCrossDomain.
  const std::vector<int>* domainDevices(int domain) const {
    return domain == scale::kCrossDomain ? nullptr
                                         : &domains_->domainDevices(domain);
  }

  // --- occupancy mutators (each bumps the versions) ---
  void claim(const place::PlacementPlan& plan, const ir::IrProgram& prog);
  // Claims on devices `keep` selects stay (a wiped device's claims died
  // with it); versions still move for every claimed device.
  void release(const place::PlacementPlan& plan, const ir::IrProgram& prog,
               const std::function<bool(int)>& keep = nullptr);
  void wipe(int node);  // device death or reboot: fresh occupancy
  // Checkpointed free vectors, verbatim; bumps every version.
  void restore(const std::vector<durable::CheckpointDevice>& devices);
  void reset();  // empty ledger, no tenants; bumps every version

  // --- deployments ---
  void add(int user, Deployed dep);  // drops the borrowed option pointers
  void erase(int user) { deployed_.erase(user); }

  // Builds (or drops) the pod index; pod versions restart at 0.
  void setDomainSharding(bool on);

 private:
  void touch(const std::set<int>& devices);
  void touchAll();

  const topo::Topology* topo_;
  place::OccupancyMap occ_;
  std::map<int, Deployed> deployed_;
  std::uint64_t version_ = 0;
  std::unique_ptr<scale::DomainIndex> domains_;
  std::vector<std::uint64_t> pod_version_;
};

}  // namespace clickinc::core
