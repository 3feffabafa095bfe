#include "core/ledger.h"

#include <utility>

namespace clickinc::core {

Ledger::Ledger(const topo::Topology* topo) : topo_(topo), occ_(topo) {}

void Ledger::claim(const place::PlacementPlan& plan,
                   const ir::IrProgram& prog) {
  place::commitPlan(plan, prog, occ_);
  touch(place::claimedDevices(plan));
}

void Ledger::release(const place::PlacementPlan& plan,
                     const ir::IrProgram& prog,
                     const std::function<bool(int)>& keep) {
  place::releasePlan(plan, prog, occ_, keep);
  touch(place::claimedDevices(plan));
}

void Ledger::wipe(int node) {
  const auto& n = topo_->node(node);
  if (n.programmable) occ_.of(node) = place::DeviceOccupancy::fresh(n.model);
  touch({node});
}

void Ledger::restore(const std::vector<durable::CheckpointDevice>& devices) {
  for (const auto& dev : devices) {
    auto& occ = occ_.of(dev.node);
    occ.free_stage = dev.free_stage;
    occ.free_whole = dev.free_whole;
  }
  touchAll();
}

void Ledger::reset() {
  deployed_.clear();
  occ_ = place::OccupancyMap(topo_);
  touchAll();
}

void Ledger::add(int user, Deployed dep) {
  dep.options.pool = nullptr;  // borrowed; re-resolved at failover
  dep.options.ratio_devices = nullptr;
  deployed_[user] = std::move(dep);
}

void Ledger::setDomainSharding(bool on) {
  domains_.reset();
  pod_version_.clear();
  if (!on) return;
  domains_ = std::make_unique<scale::DomainIndex>(*topo_);
  pod_version_.assign(static_cast<std::size_t>(domains_->domainCount()), 0);
}

// The global version plus every pod owning one of `devices`; core devices
// belong to no pod.
void Ledger::touch(const std::set<int>& devices) {
  ++version_;
  if (domains_ == nullptr) return;
  for (int dev : devices) {
    const int d = domains_->domainOf(dev);
    if (d != scale::kCrossDomain) ++pod_version_[static_cast<std::size_t>(d)];
  }
}

void Ledger::touchAll() {
  ++version_;
  for (auto& v : pod_version_) ++v;
}

}  // namespace clickinc::core
