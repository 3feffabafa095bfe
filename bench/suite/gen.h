// Seeded input generators of bench_suite. Every tenant request, failure
// and packet the suite sends is drawn here as a pure function of
// (--seed, stream, index), so the program under test never picks its own
// inputs and the same seed always yields the same inputs.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "core/api.h"
#include "emu/emulator.h"
#include "modules/templates.h"
#include "scale/fattree.h"
#include "suite.h"
#include "util/crc.h"
#include "util/strings.h"

namespace clickinc::suite {

// Independent random streams, one per kind of input.
enum class Stream : std::uint64_t {
  kTenants = 2,
  kPrefill = 3,
  kFill = 4,
  kFaults = 5,
  kPackets = 6,
  kProbe = 7,
  kWarmup = 8,
};

inline Rng rngFor(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return Rng(mix64(mix64(seed * 0x9E3779B97F4A7C15ULL +
                         static_cast<std::uint64_t>(stream)) ^
                   mix64(index + 1)));
}

// --- tenants --------------------------------------------------------------

enum class App : std::uint8_t { kMlagg, kKvs, kDqacc, kSparseMlagg };

inline const char* appName(App app) {
  switch (app) {
    case App::kMlagg: return "MLAgg";
    case App::kKvs: return "KVS";
    case App::kDqacc: return "DQAcc";
    case App::kSparseMlagg: return "SparseMLAgg";
  }
  return "?";
}

// One tenant submission: a template (or, for kSparseMlagg, the Fig. 7
// ClickINC source) with its parameters, plus traffic.
struct TenantSpec {
  App app = App::kDqacc;
  std::map<std::string, std::uint64_t> params;
  topo::TrafficSpec traffic;
};

inline lang::HeaderSpec mlaggHeader(std::uint64_t dim) {
  lang::HeaderSpec h;
  h.add("op", 8);
  h.add("seq", 32);
  h.add("bitmap", 32);
  h.add("overflow", 8);
  h.add("data", 32, static_cast<int>(dim));
  return h;
}

inline core::SubmitRequest toRequest(const TenantSpec& t) {
  if (t.app == App::kSparseMlagg) {
    return core::SubmitRequest::fromSource(modules::sparseMlaggSource(),
                                           mlaggHeader(t.params.at("Dim")),
                                           t.params, t.traffic);
  }
  return core::SubmitRequest::fromTemplate(appName(t.app), t.params,
                                           t.traffic);
}

inline void digestTenant(Digest& d, const TenantSpec& t) {
  d.add(static_cast<std::uint64_t>(t.app));
  for (const auto& [k, v] : t.params) {
    d.add(k);
    d.add(v);
  }
  d.addInt(t.traffic.dst_host);
  for (const auto& s : t.traffic.sources) {
    d.addInt(s.host);
    d.add(s.volume);
  }
}

// Traffic towards one destination host in pod `dst_pod` from `nsrc`
// distinct other hosts. Sources share the destination's pod unless `cross`,
// in which case they come from one other pod.
inline topo::TrafficSpec drawTraffic(Rng& rng, const scale::FatTree& ft,
                                     std::uint64_t dst_pod, int nsrc,
                                     bool cross) {
  const auto npods = static_cast<std::uint64_t>(ft.pods.size());
  const auto src_pod =
      cross && npods > 1 ? (dst_pod + 1 + rng.nextBelow(npods - 1)) % npods
                         : dst_pod;
  const auto& dst_hosts = ft.pods[dst_pod].hosts;
  const auto& src_hosts = ft.pods[src_pod].hosts;
  topo::TrafficSpec traffic;
  traffic.dst_host = dst_hosts[rng.nextBelow(dst_hosts.size())];
  while (static_cast<int>(traffic.sources.size()) < nsrc) {
    const int h = src_hosts[rng.nextBelow(src_hosts.size())];
    bool taken = h == traffic.dst_host;
    for (const auto& s : traffic.sources) taken = taken || s.host == h;
    if (!taken) {
      traffic.sources.push_back(
          {h, 1.0 + static_cast<double>(rng.nextBelow(20))});
    }
  }
  return traffic;
}

// churn: small-parameter MLAgg / DQAcc on a NIC-less fat tree, 5% of them
// cross-pod — cheap to place thousands of times, the mix real tenants
// produce in steady state. Tenant `index` fixes the app (alternating), the
// parameters (cycling through their combinations), the destination pod
// (round robin) and whether it is cross-pod (the last pair of every 40),
// so every seed offers the same mix and load per pod, and draws only the
// hosts and lifetimes: cross-pod tenants are the slowest to place, and
// drawn shares of them, drawn parameters and drawn pods moved the
// latencies and admit_ratio from seed to seed.
inline TenantSpec churnTenant(Rng& rng, const scale::FatTree& ft,
                              std::uint64_t index) {
  const bool cross = index % 40 >= 38;
  const std::uint64_t pod = index / 2 % ft.pods.size();
  const std::uint64_t variant = index / 2 / ft.pods.size();
  TenantSpec t;
  if (index % 2 == 0) {
    t.app = App::kMlagg;
    t.traffic = drawTraffic(rng, ft, pod, 1 + static_cast<int>(variant % 2),
                            cross);
    t.params = {{"NumAgg", 128},
                {"Dim", 8},
                {"NumWorker", 2 + variant / 2 % 2},
                {"IsConvert", 0}};
  } else {
    t.app = App::kDqacc;
    t.traffic = drawTraffic(rng, ft, pod, 1, cross);
    t.params = {{"CacheDepth", 64ULL << (variant % 2)},
                {"CacheLen", 2 + variant / 2 % 2}};
  }
  return t;
}

// fill / failover: larger heterogeneous tenants on the NIC-tier fat tree —
// MLAgg Dim 16-32, KVS CacheSize 256-1024, DQAcc and 25% Fig. 7 sparse
// MLAgg source, with 2-4 sources and 30% cross-pod traffic. Tenant `index`
// cycles through the four apps, 3 of every 10 rounds of the four are
// cross-pod, and each app cycles through its parameter values, source
// counts and destination pods, so every seed offers the same mix and load
// per pod, and draws only the hosts.
inline TenantSpec fillTenant(Rng& rng, const scale::FatTree& ft,
                             std::uint64_t index) {
  const bool cross = index / 4 % 10 < 3;
  const std::uint64_t round = index / 4;
  const int nsrc = 2 + static_cast<int>(round % 3);
  // index + round, not index: with 4 apps and an even pod count, each app
  // would otherwise see only some of the pods.
  const std::uint64_t pod = (index + round) % ft.pods.size();
  TenantSpec t;
  t.traffic = drawTraffic(rng, ft, pod, nsrc, cross);
  const auto workers = static_cast<std::uint64_t>(nsrc);
  switch (index % 4) {
    case 0: {
      t.app = App::kSparseMlagg;
      const std::uint64_t dim = 16ULL << (round / 3 % 2);
      t.params = {{"BlockNum", dim / 4}, {"BlockSize", 4},
                  {"NumAgg", 1024},      {"Dim", dim},
                  {"NumWorker", workers}, {"IsConvert", 0},
                  {"Scale", 1},          {"DATA", 1},
                  {"ACK", 2},            {"CheckOverflow", 1}};
      break;
    }
    case 1:
      t.app = App::kMlagg;
      t.params = {{"NumAgg", 1024},
                  {"Dim", 16 + 8 * (round / 3 % 3)},
                  {"NumWorker", workers},
                  {"IsConvert", 0}};
      break;
    case 2:
      t.app = App::kKvs;
      t.params = {{"CacheSize", 256ULL << (round / 3 % 3)},
                  {"ValDim", 4},
                  {"TH", 16 + round % 32}};
      break;
    default:
      t.app = App::kDqacc;
      t.params = {{"CacheDepth", 1024ULL << (round / 3 % 2)},
                  {"CacheLen", 2 + round / 6 % 3}};
      break;
  }
  return t;
}

// --- churn lifetimes -------------------------------------------------------

// A churn tenant and its lifetime, counted in churn steps (one submission
// per step).
struct Lived {
  double life = 0;
  TenantSpec tenant;
};

inline double expDraw(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.nextDouble());
}

// `count` churn tenants with exponential lifetimes of mean `mean_life`
// steps: the pre-fill (lifetimes count from the first step) or the steps.
inline std::vector<Lived> churnTenants(std::uint64_t seed, Stream stream,
                                       const scale::FatTree& ft, long count,
                                       double mean_life) {
  std::vector<Lived> out(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < out.size(); ++i) {
    Rng rng = rngFor(seed, stream, i);
    out[i].life = expDraw(rng, mean_life);
    out[i].tenant = churnTenant(rng, ft, i);
  }
  return out;
}

// --- failures -------------------------------------------------------------

// The element classes failures hit, in rotation, so that every run offers
// the same mix of blast radii.
enum class FaultClass : std::uint8_t {
  kTor,
  kAgg,
  kCore,
  kTorAggLink,
  kAggCoreLink,
};
inline constexpr std::size_t kFaultClasses = 5;

// A seeded permutation of [0, n): the order in which the failover workload
// visits the n elements of fault class `cls`.
inline std::vector<std::size_t> faultOrder(std::uint64_t seed, Stream stream,
                                           std::size_t cls, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng = rngFor(seed, stream, cls);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  }
  return order;
}

// --- packets --------------------------------------------------------------

inline int wireBytes(const TenantSpec& t) {
  switch (t.app) {
    case App::kKvs: return 64 + 4 * static_cast<int>(t.params.at("ValDim"));
    case App::kDqacc: return 64;
    default: return 64 + 4 * static_cast<int>(t.params.at("Dim"));
  }
}

inline int usefulBytes(const TenantSpec& t) {
  return t.app == App::kDqacc ? 4 : wireBytes(t) - 64;
}

inline constexpr std::uint64_t kKvsKeys = 4096;
inline constexpr double kKvsZipf = 1.1;

// One packet of tenant `user`'s application. KVS: 80% GET, 20% UPDATE on
// zipf-1.1 keys. DQAcc: values from a 2048-value domain (duplicates are
// filtered in-network). MLAgg: gradient `seq` from worker `worker`, with
// half of its 4-element blocks all-zero.
inline ir::PacketView tenantPacket(Rng& rng, const TenantSpec& t, int user,
                                   std::uint64_t seq, int worker) {
  ir::PacketView v;
  v.user_id = user;
  v.setField("hdr._uid", static_cast<std::uint64_t>(user));
  switch (t.app) {
    case App::kKvs: {
      const bool get = rng.nextDouble() < 0.8;
      v.setField("hdr.op", get ? 1 : 3);
      v.setField("hdr.key", rng.nextZipf(kKvsKeys, kKvsZipf));
      if (!get) {
        for (std::uint64_t d = 0; d < t.params.at("ValDim"); ++d) {
          v.setField(cat("hdr.val.", d), rng.nextBelow(1u << 20));
        }
      }
      break;
    }
    case App::kDqacc:
      v.setField("hdr.op", 0);
      v.setField("hdr.value", 1 + rng.nextBelow(2048));
      break;
    default: {
      const auto dim = t.params.at("Dim");
      const auto workers = std::max<std::uint64_t>(1, t.params.at("NumWorker"));
      v.setField("hdr.op", 1);
      v.setField("hdr.seq", seq);
      v.setField("hdr.bitmap",
                 1ULL << (static_cast<std::uint64_t>(worker) % workers));
      v.setField("hdr.overflow", 0);
      for (std::uint64_t b = 0; b < dim / 4; ++b) {
        const bool zero = rng.nextDouble() < 0.5;
        for (std::uint64_t j = 0; j < 4; ++j) {
          v.setField(cat("hdr.data.", 4 * b + j),
                     zero ? 0 : 1 + rng.nextBelow(1000));
        }
      }
      break;
    }
  }
  return v;
}

inline void digestBursts(Digest& d, const std::vector<emu::Burst>& bursts) {
  for (const auto& b : bursts) {
    d.addInt(b.src);
    d.addInt(b.dst);
    d.addInt(b.wire_bytes);
    d.addInt(b.useful_bytes);
    for (const auto& v : b.views) {
      d.addInt(v.user_id);
      for (const auto& [k, val] : v.fields) {
        d.add(k);
        d.add(val);
      }
    }
  }
}

}  // namespace clickinc::suite
