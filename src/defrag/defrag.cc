#include "defrag/defrag.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

namespace clickinc::defrag {

FragReport scoreFragmentation(const topo::Topology& topo,
                              const place::OccupancyMap& occ,
                              const std::vector<TenantPlanView>& tenants,
                              const scale::DomainIndex* domains,
                              const DefragOptions& opts) {
  FragReport rep;

  std::map<int, int> tenants_on;  // device -> claiming-tenant count
  for (const auto& t : tenants) {
    if (t.plan == nullptr) continue;
    for (int dev : place::claimedDevices(*t.plan)) ++tenants_on[dev];
  }

  double sum = 0, sq = 0;
  std::vector<DeviceFrag> all;
  for (const auto& node : topo.nodes()) {
    if (!node.programmable || !occ.contains(node.id)) continue;
    const double free = occ.of(node.id).remainingRatio();
    sum += free;
    sq += free * free;
    rep.min_free = std::min(rep.min_free, free);
    const auto it = tenants_on.find(node.id);
    all.push_back({node.id, 1.0 - free,
                   it == tenants_on.end() ? 0 : it->second});
  }
  rep.devices = static_cast<int>(all.size());
  if (rep.devices == 0) return rep;
  const double n = static_cast<double>(rep.devices);
  rep.mean_free = sum / n;
  const double var = sq / n - rep.mean_free * rep.mean_free;
  rep.stddev_free = var > 0 ? std::sqrt(var) : 0;

  const double mean_pressure = 1.0 - rep.mean_free;
  double excess = 0;
  for (const auto& d : all) {
    excess += std::max(0.0, d.pressure - mean_pressure);
  }
  rep.frag_score = excess / n;

  for (const auto& d : all) {
    if (d.pressure > mean_pressure &&
        d.pressure - mean_pressure >= opts.hot_threshold && d.tenants > 0) {
      rep.hot.push_back(d);
    }
  }
  std::sort(rep.hot.begin(), rep.hot.end(),
            [](const DeviceFrag& a, const DeviceFrag& b) {
              if (a.pressure != b.pressure) return a.pressure > b.pressure;
              return a.node < b.node;
            });
  if (opts.max_hot_devices >= 0 &&
      static_cast<int>(rep.hot.size()) > opts.max_hot_devices) {
    rep.hot.resize(static_cast<std::size_t>(opts.max_hot_devices));
  }

  if (domains != nullptr && domains->domainCount() > 0) {
    rep.pod_pressure.assign(
        static_cast<std::size_t>(domains->domainCount()), 0.0);
    for (int pod = 0; pod < domains->domainCount(); ++pod) {
      double psum = 0;
      int pn = 0;
      for (int dev : domains->domainDevices(pod)) {
        if (!occ.contains(dev)) continue;
        psum += 1.0 - occ.of(dev).remainingRatio();
        ++pn;
      }
      rep.pod_pressure[static_cast<std::size_t>(pod)] =
          pn == 0 ? 0.0 : psum / static_cast<double>(pn);
    }
  }
  return rep;
}

std::vector<VictimPick> selectVictims(
    const FragReport& report, const std::vector<TenantPlanView>& tenants,
    const DefragOptions& opts) {
  std::vector<VictimPick> picks;
  if (report.hot.empty() || opts.max_migrations <= 0) return picks;

  std::set<int> hot_set;
  for (const auto& d : report.hot) hot_set.insert(d.node);

  // Per-tenant claim sets in ascending user order (deterministic walk
  // regardless of the caller's view order).
  std::map<int, std::set<int>> claims_of;
  for (const auto& t : tenants) {
    if (t.plan != nullptr) claims_of[t.user] = place::claimedDevices(*t.plan);
  }

  std::set<int> picked;
  for (const auto& hot : report.hot) {
    for (const auto& [user, claims] : claims_of) {
      if (static_cast<int>(picks.size()) >= opts.max_migrations) {
        return picks;
      }
      if (picked.count(user) != 0 || claims.count(hot.node) == 0) continue;
      VictimPick pick;
      pick.user = user;
      for (int dev : claims) {
        if (hot_set.count(dev) != 0) pick.evacuate.push_back(dev);
      }
      picked.insert(user);
      picks.push_back(std::move(pick));
    }
  }
  return picks;
}

place::OccupancyMap evacuationSnapshot(const place::OccupancyMap& occ,
                                       const ir::IrProgram& prog,
                                       const place::PlacementPlan& plan,
                                       const std::vector<int>& evacuate) {
  place::OccupancyMap snapshot = occ;
  place::releasePlan(plan, prog, snapshot,
                     [&](int dev) { return !snapshot.contains(dev); });
  for (int dev : evacuate) {
    if (!snapshot.contains(dev)) continue;
    auto& docc = snapshot.of(dev);
    for (auto& stage : docc.free_stage) stage = device::ResourceDemand{};
    docc.free_whole = device::ResourceDemand{};
  }
  return snapshot;
}

bool touchesAny(const place::PlacementPlan& plan,
                const std::vector<int>& devices) {
  const auto claims = place::claimedDevices(plan);
  for (int dev : devices) {
    if (claims.count(dev) != 0) return true;
  }
  return false;
}

StrandedDiagnosis diagnoseStranded(const ir::IrProgram& prog,
                                   const place::OccupancyMap& occ,
                                   const topo::Topology& topo) {
  StrandedDiagnosis diag;
  std::vector<int> all_instrs(prog.instrs.size());
  std::iota(all_instrs.begin(), all_instrs.end(), 0);
  diag.demand = device::demandOfInstrs(prog, all_instrs);
  for (const auto& node : topo.nodes()) {
    if (!node.programmable || !occ.contains(node.id)) continue;
    const auto& docc = occ.of(node.id);
    diag.aggregate_free.add(docc.free_whole);
    for (const auto& stage : docc.free_stage) diag.aggregate_free.add(stage);
    ++diag.devices;
  }
  // Compaction only moves tenants between devices, so capacity cannot be
  // stranded on a fabric with a single programmable device.
  diag.stranded =
      diag.devices >= 2 && diag.demand.fitsWithin(diag.aggregate_free);
  return diag;
}

}  // namespace clickinc::defrag
