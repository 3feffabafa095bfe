#include "scale/churn.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <queue>
#include <utility>

#include "defrag/defrag.h"
#include "util/crc.h"
#include "util/error.h"

namespace clickinc::scale {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Small-parameter draws of the three paper templates: cheap enough to
// place tens of thousands of times, varied enough to fragment occupancy
// unevenly (the point of the harness).
core::SubmitRequest pickRequest(clickinc::Rng* rng, const FatTree& ft,
                                double cross_pod_fraction) {
  const auto& pods = ft.pods;
  const int npods = static_cast<int>(pods.size());
  const bool cross =
      npods >= 2 && rng->nextDouble() < cross_pod_fraction;
  const int dst_pod = static_cast<int>(rng->nextBelow(
      static_cast<std::uint64_t>(npods)));
  int src_pod = dst_pod;
  if (cross) {
    while (src_pod == dst_pod) {
      src_pod = static_cast<int>(rng->nextBelow(
          static_cast<std::uint64_t>(npods)));
    }
  }
  const auto& dst_hosts = pods[static_cast<std::size_t>(dst_pod)].hosts;
  const auto& src_hosts = pods[static_cast<std::size_t>(src_pod)].hosts;
  topo::TrafficSpec traffic;
  traffic.dst_host = dst_hosts[rng->nextBelow(dst_hosts.size())];
  int src = traffic.dst_host;
  while (src == traffic.dst_host) {
    src = src_hosts[rng->nextBelow(src_hosts.size())];
  }
  traffic.sources.push_back(
      {src, 1.0 + static_cast<double>(rng->nextBelow(20))});
  // KVS needs the bypass-accelerator (smartNIC) tier; on a NIC-less tree
  // every draw would fail structurally, so draw from the other two.
  const auto tmpl = ft.params.host_nics ? rng->nextBelow(3)
                                        : 1 + rng->nextBelow(2);
  switch (tmpl) {
    case 0:
      return core::SubmitRequest::fromTemplate(
          "KVS",
          {{"CacheSize", 64 << rng->nextBelow(2)},
           {"ValDim", 4},
           {"TH", 16 + rng->nextBelow(32)}},
          traffic);
    case 1:
      // IsConvert stays 0: the FP-convert variant needs an accelerator
      // class no fat-tree tier carries (it is a paper-fabric feature).
      return core::SubmitRequest::fromTemplate(
          "MLAgg",
          {{"NumAgg", 128},
           {"Dim", 8},
           {"NumWorker", 2 + rng->nextBelow(2)},
           {"IsConvert", 0}},
          traffic);
    default:
      return core::SubmitRequest::fromTemplate(
          "DQAcc",
          {{"CacheDepth", 64 << rng->nextBelow(2)},
           {"CacheLen", 2 + rng->nextBelow(2)}},
          traffic);
  }
}

}  // namespace

ChurnDriver::ChurnDriver(core::ClickIncService* svc, const FatTree* ft,
                         ChurnParams params)
    : svc_(svc), ft_(ft), params_(std::move(params)) {
  CLICKINC_CHECK(svc_ != nullptr && ft_ != nullptr,
                 "ChurnDriver: null service or fat tree");
  CLICKINC_CHECK(!ft_->pods.empty() && !ft_->pods.front().hosts.empty(),
                 "ChurnDriver: fat tree has no hosts");
  CLICKINC_CHECK(params_.inflight >= 1, "ChurnDriver: inflight must be >= 1");
}

const ChurnMetrics& ChurnDriver::run() {
  const auto run_t0 = Clock::now();
  clickinc::Rng rng(mix64(params_.seed + 0xC4A11ULL));

  if (params_.fault_every > 0) {
    svc_->armFaultInjector(params_.fault_seed, params_.fault_opts);
  }

  struct InFlight {
    core::SubmissionTicket ticket;
    Clock::time_point issued;
    long cycle = 0;
  };
  std::deque<InFlight> window;
  // (expiry cycle, user id), earliest first.
  std::priority_queue<std::pair<long, int>,
                      std::vector<std::pair<long, int>>,
                      std::greater<std::pair<long, int>>>
      expiries;
  std::vector<double> window_lat;   // since the last sample
  std::vector<double> all_lat;
  long window_reaped = 0, window_failed = 0;

  const double mean_life = std::max(1, params_.target_live);

  auto reapOne = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    const core::SubmitResult& r = f.ticket.get();
    const double lat = msSince(f.issued);
    window_lat.push_back(lat);
    all_lat.push_back(lat);
    ++window_reaped;
    if (r.recompiled) ++metrics_.recompiles;
    if (r.ok) {
      // Exponential lifetime, mean = target_live cycles: steady-state
      // live population ~= target_live (one arrival per cycle).
      const long life = 1 + static_cast<long>(
          -mean_life * std::log(1.0 - rng.nextDouble()));
      expiries.push({f.cycle + life, r.user_id});
    } else {
      ++metrics_.failures;
      ++window_failed;
      if (r.error.code == core::ErrorCode::kResourceExhausted) {
        ++metrics_.resource_failures;
        if (r.error.stranded) ++metrics_.stranded_failures;
      }
      if (r.error.code == core::ErrorCode::kVerification) {
        ++metrics_.verify_violations;
      }
    }
  };
  auto drain = [&] {
    while (!window.empty()) reapOne();
  };

  // One background compaction step (ChurnParams::defrag_every): quiesce,
  // defragment, then probe each migrated tenant's live traffic end to end.
  // Make-before-break means a migration is never observable as loss, so
  // every probe drop is charged to probe_drops and the soak asserts 0.
  auto defragStep = [&] {
    drain();
    const auto rep = svc_->defragment(params_.defrag_opts);
    ++metrics_.defrag_passes;
    metrics_.migrations += rep.migrated;
    metrics_.migration_rollbacks += rep.rolled_back;
    metrics_.migration_drops += rep.dropped;
    for (const auto& m : rep.migrations) {
      if (m.outcome != core::MigrationOutcome::kMigrated) continue;
      const auto it = svc_->deployments().find(m.user_id);
      if (it == svc_->deployments().end()) continue;
      const auto& dep = it->second;
      if (dep.traffic.dst_host < 0) continue;
      for (const auto& src : dep.traffic.sources) {
        ir::PacketView view;
        view.user_id = m.user_id;
        view.setField("hdr.value", 11);
        const auto pr =
            svc_->emulator().send(src.host, dep.traffic.dst_host,
                                  std::move(view), 100, 100);
        ++metrics_.probe_packets;
        if (!pr.dropped) continue;
        if (pr.drop_reason == emu::DropReason::kUndeployed) {
          ++metrics_.probe_drops;
        } else if (pr.drop_reason != emu::DropReason::kProgram) {
          ++metrics_.probe_drops_faulted;
        }
      }
    }
  };

  auto sampleNow = [&](long cycle) {
    drain();
    ChurnSample s;
    s.cycle = cycle;
    s.live = static_cast<int>(svc_->deployments().size());
    s.submits = metrics_.submits;
    s.removes = metrics_.removes;
    s.failures = metrics_.failures;
    s.failure_rate = window_reaped == 0
                         ? 0
                         : static_cast<double>(window_failed) /
                               static_cast<double>(window_reaped);
    s.p50_ms = percentile(window_lat, 0.50);
    s.p99_ms = percentile(window_lat, 0.99);
    if (s.live > 0) {
      long claimed = 0;
      for (const auto& [user, dep] : svc_->deployments()) {
        (void)user;
        claimed += static_cast<int>(place::claimedDevices(dep.plan).size());
      }
      s.claim_spread = static_cast<double>(claimed) /
                       static_cast<double>(s.live);
    }
    double sum = 0, sq = 0, mn = 1.0;
    long n = 0;
    for (const auto& node : svc_->topology().nodes()) {
      if (!node.programmable) continue;
      const double r = svc_->occupancy().of(node.id).remainingRatio();
      sum += r;
      sq += r * r;
      mn = std::min(mn, r);
      ++n;
    }
    if (n > 0) {
      s.free_ratio_mean = sum / static_cast<double>(n);
      s.free_ratio_min = mn;
      const double var =
          sq / static_cast<double>(n) -
          s.free_ratio_mean * s.free_ratio_mean;
      s.free_ratio_stddev = var > 0 ? std::sqrt(var) : 0;
    }
    s.verify_violations = metrics_.verify_violations;
    {
      std::vector<defrag::TenantPlanView> views;
      views.reserve(svc_->deployments().size());
      for (const auto& [user, dep] : svc_->deployments()) {
        views.push_back({user, &dep.plan});
      }
      s.frag_score =
          defrag::scoreFragmentation(svc_->topology(), svc_->occupancy(),
                                     views, svc_->domainIndex(),
                                     params_.defrag_opts)
              .frag_score;
    }
    s.migrations = metrics_.migrations;
    metrics_.samples.push_back(s);
    window_lat.clear();
    window_reaped = window_failed = 0;
  };

  for (long cycle = 0; cycle < params_.cycles; ++cycle) {
    if (params_.fault_every > 0 && cycle > 0 &&
        cycle % params_.fault_every == 0) {
      svc_->stepFault();
      ++metrics_.faults_applied;
    }
    if (params_.defrag_every > 0 && cycle > 0 &&
        cycle % params_.defrag_every == 0) {
      defragStep();
    }
    // Retire expired tenants. A tenant may already be gone when failover
    // declared it infeasible and dropped it — that is not an error.
    while (!expiries.empty() && expiries.top().first <= cycle) {
      const int user = expiries.top().second;
      expiries.pop();
      const auto rr = svc_->remove(user);
      if (rr.ok) {
        ++metrics_.removes;
      } else {
        ++metrics_.removed_already_gone;
      }
    }
    window.push_back(
        {svc_->submitAsync(pickRequest(&rng, *ft_,
                                       params_.cross_pod_fraction)),
         Clock::now(), cycle});
    ++metrics_.submits;
    while (static_cast<int>(window.size()) >= params_.inflight) reapOne();

    if (params_.audit_every > 0 && cycle > 0 &&
        cycle % params_.audit_every == 0) {
      drain();
      const auto rep = svc_->verifyDeployments();
      ++metrics_.audits;
      metrics_.verify_violations +=
          static_cast<long>(rep.violations.size());
    }
    if (params_.sample_every > 0 && cycle > 0 &&
        cycle % params_.sample_every == 0) {
      sampleNow(cycle);
    }
  }

  drain();
  metrics_.final_audit = svc_->verifyDeployments();
  ++metrics_.audits;
  metrics_.verify_violations +=
      static_cast<long>(metrics_.final_audit.violations.size());
  sampleNow(params_.cycles);
  metrics_.p50_ms = percentile(all_lat, 0.50);
  metrics_.p99_ms = percentile(all_lat, 0.99);
  metrics_.elapsed_ms = msSince(run_t0);
  return metrics_;
}

}  // namespace clickinc::scale
