// Table 3 — developer productivity placing six INC program instances over
// the Fig. 11 multi-device topology: placement time, chosen devices,
// normalized resource consumption, and communication overhead.
//
// ClickINC rows are fully measured (automatic placement + synthesis).
// The paper's manual/P4-16 rows came from a human study; they are shown
// as reference values.
//
// The scenario also doubles as the multi-user benchmark for the
// worker-pool placement path: the whole six-submission sequence is run at
// concurrency 1 and concurrency 4 (fresh service each), with identical
// plans required. Set CLICKINC_BENCH_SMOKE=1 for a single-rep CI run;
// either way a machine-readable BENCH_table3.json is written.
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_util.h"
#include "core/service.h"
#include "durable/journal.h"
#include "util/thread_pool.h"

namespace clickinc {
namespace {

struct Instance {
  const char* label;
  const char* tmpl;
  std::map<std::string, std::uint64_t> params;
  std::vector<const char*> srcs;
  const char* dst;
};

struct InstanceResult {
  std::string label;
  bool ok = false;
  std::string failure;
  double ms = 0;
  std::vector<std::string> devices;
  double hr = 0, hp = 0, gain = 0;
};

struct ScenarioResult {
  std::vector<InstanceResult> instances;
  double total_ms = 0;
  int placed = 0;
  place::PlacementStats stats;
};

std::vector<Instance> instanceSet() {
  const std::map<std::string, std::uint64_t> kvs_params = {
      {"CacheSize", 1024}, {"ValDim", 4}, {"TH", 32}};
  const std::map<std::string, std::uint64_t> dq_params = {
      {"CacheDepth", 1024}, {"CacheLen", 4}};
  const std::map<std::string, std::uint64_t> agg_params = {
      {"NumAgg", 1024}, {"Dim", 8}, {"NumWorker", 2}};
  return {
      {"KVS0", "KVS", kvs_params, {"pod0a", "pod1a"}, "pod2b"},
      {"DQAcc0", "DQAcc", dq_params, {"pod0a", "pod0b"}, "pod2b"},
      {"MLAgg0", "MLAgg", agg_params, {"pod0b", "pod1b"}, "pod2b"},
      {"DQAcc1", "DQAcc", dq_params, {"pod0b", "pod1a"}, "pod2b"},
      {"MLAgg1", "MLAgg", agg_params, {"pod1a", "pod1b"}, "pod2b"},
      {"KVS1", "KVS", kvs_params, {"pod0b", "pod1b"}, "pod2b"},
  };
}

std::vector<core::SubmitRequest> requestSet(
    const core::ClickIncService& svc) {
  std::vector<core::SubmitRequest> reqs;
  for (const auto& inst : instanceSet()) {
    topo::TrafficSpec spec;
    for (const char* s : inst.srcs) {
      spec.sources.push_back({svc.topology().findNode(s), 10.0});
    }
    spec.dst_host = svc.topology().findNode(inst.dst);
    reqs.push_back(
        core::SubmitRequest::fromTemplate(inst.tmpl, inst.params, spec));
  }
  return reqs;
}

void recordInstance(const core::ClickIncService& svc, const char* label,
                    const core::SubmitResult& r, double ms,
                    ScenarioResult* out) {
  out->total_ms += ms;
  InstanceResult ir;
  ir.label = label;
  ir.ok = r.ok;
  ir.ms = ms;
  if (!r.ok) {
    ir.failure = r.error.message();
    out->instances.push_back(std::move(ir));
    return;
  }
  ++out->placed;
  for (int d : r.plan.devicesUsed()) {
    ir.devices.push_back(svc.topology().node(d).name);
  }
  std::sort(ir.devices.begin(), ir.devices.end());
  ir.devices.erase(std::unique(ir.devices.begin(), ir.devices.end()),
                   ir.devices.end());
  ir.hr = r.plan.hr;
  ir.hp = r.plan.hp;
  ir.gain = r.plan.gain;
  out->instances.push_back(std::move(ir));
}

// One full six-submission scenario against a fresh service, one
// synchronous submit at a time (the placement itself may use the pool).
// verify_at_commit toggles the commit-stage plan verifier (on by
// default in the service) so its cost can be isolated; with_journal
// attaches an in-memory write-ahead journal so the per-commit
// journaling cost can be isolated the same way.
ScenarioResult runScenario(int concurrency, bool verify_at_commit = true,
                           durable::JournalSink* journal = nullptr) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(concurrency);
  if (!verify_at_commit) {
    svc.setVerifyPolicy({.at_commit = false, .at_failover = false});
  }
  if (journal != nullptr) svc.attachJournal(journal);
  ScenarioResult out;
  auto reqs = requestSet(svc);
  const auto& insts = instanceSet();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = svc.submit(std::move(reqs[i]));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    recordInstance(svc, insts[i].label, r, ms, &out);
  }
  out.stats = svc.placementStats();
  return out;
}

// The same six tenants through the pipelined path: submitAll compiles
// every request concurrently against one occupancy snapshot and commits
// in request order — results must be bit-identical to runScenario.
ScenarioResult runPipelined(int concurrency) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(concurrency);
  ScenarioResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = svc.submitAll(requestSet(svc));
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  const auto& insts = instanceSet();
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Per-instance wall-clock is not meaningful under pipelining; charge
    // the batch time evenly so the table still renders.
    recordInstance(svc, insts[i].label, results[i],
                   total_ms / static_cast<double>(results.size()), &out);
  }
  out.total_ms = total_ms;
  out.stats = svc.placementStats();
  return out;
}

bool sameOutcomes(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.instances.size() != b.instances.size()) return false;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    if (a.instances[i].ok != b.instances[i].ok ||
        a.instances[i].gain != b.instances[i].gain ||
        a.instances[i].devices != b.instances[i].devices) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace clickinc

int main() {
  using namespace clickinc;
  const bool smoke = std::getenv("CLICKINC_BENCH_SMOKE") != nullptr;
  const int reps = smoke ? 1 : 3;
  bench::printHeader(
      "Table 3 — multi-user program placement over the Fig. 11 topology",
      "ClickINC: measured automatic placement (all six instances). Paper's "
      "manual-P4 reference:\n2-31 trials and minutes-to-hours per instance; "
      "ClickINC <10s, error-free, for all six.");

  // Sequential reference scenario (reported in the table) plus repeated
  // timed runs at concurrency 1 and 4 for the worker-pool trajectory.
  const ScenarioResult seq = runScenario(1);

  TextTable table({"instance", "time (ms)", "devices", "h_r (resource)",
                   "h_p (comm)", "gain"});
  for (const auto& inst : seq.instances) {
    if (!inst.ok) {
      table.addRow({inst.label, fmtDouble(inst.ms, 1),
                    "FAILED: " + inst.failure, "-", "-", "-"});
      continue;
    }
    table.addRow({inst.label, fmtDouble(inst.ms, 1),
                  joinStrings(inst.devices, ","), fmtDouble(inst.hr, 3),
                  fmtDouble(inst.hp, 3), fmtDouble(inst.gain, 3)});
  }
  bench::printTable(table);
  std::printf("ClickINC placed %d/6 instances automatically in %s ms total "
              "(paper: <10 s, zero trials-and-error).\n\n",
              seq.placed, fmtDouble(seq.total_ms, 1).c_str());

  std::vector<double> ms_1t, ms_4t;
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto r1 = runScenario(1);
    const auto r4 = runScenario(4);
    ms_1t.push_back(r1.total_ms);
    ms_4t.push_back(r4.total_ms);
    identical = identical && sameOutcomes(r1, r4) && sameOutcomes(r1, seq);
  }
  const double median_1t = bench::medianOf(ms_1t);
  const double median_4t = bench::medianOf(ms_4t);
  bench::printHeader(
      "Worker-pool placement — six-submission scenario end to end",
      cat("Median of ", reps, " runs; fresh service per run. Hardware "
          "threads on this machine: ",
          util::ThreadPool::hardwareConcurrency(), "."));
  TextTable par({"concurrency", "total (ms)", "speedup", "plans identical"});
  par.addRow({"1", fmtDouble(median_1t, 1), "1.00x", "-"});
  par.addRow({"4", fmtDouble(median_4t, 1),
              cat(fmtDouble(median_4t > 0 ? median_1t / median_4t : 0, 2),
                  "x"),
              identical ? "yes" : "NO"});
  bench::printTable(par);

  // Pipelined submission sweep: the same six tenants through submitAll,
  // which overlaps the per-tenant compile stages (parse -> lower -> DAG ->
  // speculative placement) on the worker pool and serializes only the
  // commit stage. Outcomes must stay bit-identical to one-at-a-time
  // submits.
  std::vector<double> pipe_ms_1t, pipe_ms_4t;
  bool pipe_identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto p1 = runPipelined(1);
    const auto p4 = runPipelined(4);
    pipe_ms_1t.push_back(p1.total_ms);
    pipe_ms_4t.push_back(p4.total_ms);
    pipe_identical =
        pipe_identical && sameOutcomes(p1, seq) && sameOutcomes(p4, seq);
  }
  const double pipe_median_1t = bench::medianOf(pipe_ms_1t);
  const double pipe_median_4t = bench::medianOf(pipe_ms_4t);
  bench::printHeader(
      "Pipelined submissions — submitAll over the six-tenant batch",
      cat("Median of ", reps, " runs; fresh service per run. Concurrency 1 "
          "falls back to sequential submits."));
  TextTable pipe(
      {"concurrency", "total (ms)", "speedup", "results identical"});
  pipe.addRow({"1", fmtDouble(pipe_median_1t, 1), "1.00x", "-"});
  pipe.addRow(
      {"4", fmtDouble(pipe_median_4t, 1),
       cat(fmtDouble(pipe_median_4t > 0 ? pipe_median_1t / pipe_median_4t : 0,
                     2),
           "x"),
       pipe_identical ? "yes" : "NO"});
  bench::printTable(pipe);

  // Commit-stage verification overhead: the same six-submission scenario
  // with the plan verifier on (service default) versus off. The verifier
  // audits each new tenant's scoped invariants inside the commit section,
  // so its cost lands directly on commit latency.
  std::vector<double> verify_on_ms, verify_off_ms;
  for (int rep = 0; rep < reps; ++rep) {
    verify_on_ms.push_back(runScenario(1).total_ms);
    verify_off_ms.push_back(runScenario(1, /*verify_at_commit=*/false)
                                .total_ms);
  }
  const double verify_on = bench::medianOf(verify_on_ms);
  const double verify_off = bench::medianOf(verify_off_ms);
  const double overhead_pct =
      verify_off > 0 ? (verify_on - verify_off) / verify_off * 100.0 : 0.0;
  bench::printHeader(
      "Commit-stage verification overhead",
      cat("Median of ", reps, " runs of the six-submission scenario with "
          "the plan verifier on (default) vs off."));
  TextTable ver({"verifier", "total (ms)", "overhead"});
  ver.addRow({"off", fmtDouble(verify_off, 2), "-"});
  ver.addRow({"on (default)", fmtDouble(verify_on, 2),
              cat(fmtDouble(overhead_pct, 1), "%")});
  bench::printTable(ver);

  // Write-ahead journal overhead: the same scenario with an in-memory
  // journal sink attached versus no journal. Every commit appends one
  // CRC-framed record inside the commit section, so the delta is the
  // durability tax on commit latency (the in-memory sink isolates the
  // framing/serialization cost from disk I/O).
  std::vector<double> journal_on_ms, journal_off_ms;
  for (int rep = 0; rep < reps; ++rep) {
    durable::MemJournalSink sink;
    journal_on_ms.push_back(
        runScenario(1, /*verify_at_commit=*/true, &sink).total_ms);
    journal_off_ms.push_back(runScenario(1).total_ms);
  }
  const double journal_on = bench::medianOf(journal_on_ms);
  const double journal_off = bench::medianOf(journal_off_ms);
  const double journal_pct =
      journal_off > 0 ? (journal_on - journal_off) / journal_off * 100.0
                      : 0.0;
  bench::printHeader(
      "Write-ahead journal overhead",
      cat("Median of ", reps, " runs of the six-submission scenario with "
          "an in-memory journal sink attached vs no journal."));
  TextTable jour({"journal", "total (ms)", "overhead"});
  jour.addRow({"off", fmtDouble(journal_off, 2), "-"});
  jour.addRow({"on (mem sink)", fmtDouble(journal_on, 2),
               cat(fmtDouble(journal_pct, 1), "%")});
  bench::printTable(jour);

  // Machine-readable trajectory record (schema: docs/benchmarks.md).
  bench::JsonWriter json;
  json.beginObject();
  json.kv("bench", "table3_multiuser");
  bench::writeHostObject(json, 4);  // submitAll sweep runs concurrency 4
  json.kv("smoke", smoke);
  json.kv("reps", reps);
  json.kv("hardware_threads", util::ThreadPool::hardwareConcurrency());
  json.kv("placed", seq.placed);
  json.kv("total_ms", seq.total_ms);
  json.kv("intra_memo_hit_rate", seq.stats.intraMemoHitRate());
  json.key("instances").beginArray();
  for (const auto& inst : seq.instances) {
    json.beginObject();
    json.kv("label", inst.label);
    json.kv("ok", inst.ok);
    json.kv("ms", inst.ms);
    if (inst.ok) {
      json.key("devices").beginArray();
      for (const auto& d : inst.devices) json.value(d);
      json.endArray();
      json.kv("hr", inst.hr);
      json.kv("hp", inst.hp);
      json.kv("gain", inst.gain);
    } else {
      json.kv("failure", inst.failure);
    }
    json.endObject();
  }
  json.endArray();
  json.key("parallel").beginObject();
  json.kv("median_total_ms_concurrency1", median_1t);
  json.kv("median_total_ms_concurrency4", median_4t);
  json.kv("speedup_concurrency4",
          median_4t > 0 ? median_1t / median_4t : 0.0);
  json.kv("plans_identical", identical);
  json.endObject();
  json.key("pipelined").beginObject();
  json.kv("median_total_ms_concurrency1", pipe_median_1t);
  json.kv("median_total_ms_concurrency4", pipe_median_4t);
  json.kv("speedup_concurrency4",
          pipe_median_4t > 0 ? pipe_median_1t / pipe_median_4t : 0.0);
  json.kv("results_identical_to_sequential", pipe_identical);
  json.endObject();
  json.key("verify_overhead").beginObject();
  json.kv("median_total_ms_verify_on", verify_on);
  json.kv("median_total_ms_verify_off", verify_off);
  json.kv("overhead_pct", overhead_pct);
  json.endObject();
  json.key("journal_overhead").beginObject();
  json.kv("median_total_ms_journal_on", journal_on);
  json.kv("median_total_ms_journal_off", journal_off);
  json.kv("overhead_pct", journal_pct);
  json.endObject();
  json.endObject();
  if (json.writeFile("BENCH_table3.json")) {
    std::printf("wrote BENCH_table3.json\n");
  } else {
    std::printf("WARNING: could not write BENCH_table3.json\n");
  }
  return 0;
}
