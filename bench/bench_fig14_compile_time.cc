// Fig. 14 — compiling/placement time against the number of devices:
// (a) DP with/without block construction, (b) DP with/without pruning
// (block construction on), (c) SMT-style baseline with/without blocks.
// The paper's claims: block construction and pruning each cut DP time by
// >50% (>80% together); DP scales linearly with devices while the SMT
// baseline grows exponentially.
//
// This binary additionally measures the placement fast path (flat DP
// tables + occupancy-keyed intra-placement memo + server-chain early
// exit) against the retained reference path on the full workload set, and
// emits a machine-readable BENCH_fig14.json (median ms per workload,
// steps, memo hit rates) so successive changes have a perf trajectory.
#include <chrono>

#include "bench_util.h"
#include "modules/templates.h"
#include "place/blockdag.h"
#include "place/smt_baseline.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "util/thread_pool.h"

namespace clickinc {
namespace {

double dpTimeMs(const ir::IrProgram& prog, int devices, bool blocks,
                bool prune) {
  place::BlockDagOptions dag_opts;
  dag_opts.merge = blocks;
  const auto dag = place::BlockDag::build(prog, dag_opts);
  const std::vector<device::DeviceModel> chain(
      static_cast<std::size_t>(devices), device::makeTofino());
  const auto topo = topo::Topology::chain(chain);
  topo::TrafficSpec spec;
  spec.sources = {{topo.findNode("client"), 1.0}};
  spec.dst_host = topo.findNode("server");
  const auto tree = topo::buildEcTree(topo, spec);
  place::OccupancyMap occ(&topo);
  place::PlacementOptions opts;
  opts.adaptive = false;
  opts.prune = prune;
  // Reference path: this sweep ablates block construction and pruning, so
  // the memo/early-exit fast path must not mask the measured variable.
  opts.fast = false;
  opts.max_steps = 300000;  // per-segment budget in exhaustive mode
  const auto plan = place::placeProgram(dag, tree, topo, occ, opts);
  return plan.elapsed_ms;
}

// One fast-vs-reference measurement of a (program, topology, traffic)
// workload: median wall-clock over `reps` runs per mode, plus the fast
// path's cache counters and a warm-arena median (cross-trial memo reuse,
// the Table 3/6 multi-program regime).
struct WorkloadResult {
  std::string name;
  bool feasible = false;
  int blocks = 0;
  int tree_nodes = 0;
  double median_ref_ms = 0;
  double median_fast_ms = 0;
  double median_warm_ms = 0;
  double speedup = 0;       // reference / fast (cold arena)
  long steps_ref = 0;
  long steps_fast = 0;
  double intra_memo_hit_rate = 0;
  long early_breaks = 0;
  // Worker-pool fast path (cold arena per run, like median_fast_ms).
  double median_par2_ms = 0;
  double median_par4_ms = 0;
  double speedup_par4 = 0;  // sequential fast / 4-thread fast
  bool parallel_identical = false;  // 4-thread plan == sequential plan
  long parallel_tasks = 0;          // tasks dispatched in one 4-thread run
};

// Quick structural identity check (the exhaustive bit-level assertions
// live in tests/test_parallel.cc; the bench just refuses to publish a
// speedup for a divergent plan).
bool samePlan(const place::PlacementPlan& a, const place::PlacementPlan& b) {
  if (a.feasible != b.feasible || a.gain != b.gain || a.steps != b.steps ||
      a.assignments.size() != b.assignments.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.assignments.size(); ++k) {
    if (a.assignments[k].tree_node != b.assignments[k].tree_node ||
        a.assignments[k].from_block != b.assignments[k].from_block ||
        a.assignments[k].to_block != b.assignments[k].to_block) {
      return false;
    }
  }
  return true;
}

WorkloadResult measureWorkload(const std::string& name,
                               const ir::IrProgram& prog,
                               const topo::Topology& topo,
                               const topo::TrafficSpec& spec, int reps) {
  WorkloadResult r;
  r.name = name;
  const auto dag = place::BlockDag::build(prog);
  const auto tree = topo::buildEcTree(topo, spec);
  place::OccupancyMap occ(&topo);
  r.blocks = dag.size();
  r.tree_nodes = tree.nodeCount();

  auto timeOnce = [&](const place::PlacementOptions& opts,
                      place::PlacementArena* arena,
                      place::PlacementPlan* out) {
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = place::placeProgram(dag, tree, topo, occ, opts, arena);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (out != nullptr) *out = std::move(plan);
    return ms;
  };

  place::PlacementOptions fast_opts;
  fast_opts.fast = true;
  place::PlacementOptions ref_opts;
  ref_opts.fast = false;

  std::vector<double> ref_ms, fast_ms, warm_ms;
  place::PlacementPlan ref_plan, fast_plan;
  for (int i = 0; i < reps; ++i) {
    ref_ms.push_back(timeOnce(ref_opts, nullptr, &ref_plan));
  }
  for (int i = 0; i < reps; ++i) {
    // Cold arena per run: one-shot compile cost, no cross-trial reuse.
    place::PlacementArena cold;
    fast_ms.push_back(timeOnce(fast_opts, &cold, &fast_plan));
  }
  // Idealized upper bound: the occupancy map is not recommitted between
  // runs, so every placement replays against unchanged fingerprints
  // (~100% memo hits). The committed multi-program regime is covered by
  // the SequentialCommitsWithSharedArena test and Table 3/6 benches.
  place::PlacementArena warm;
  timeOnce(fast_opts, &warm, nullptr);  // prime the memo
  for (int i = 0; i < reps; ++i) {
    warm_ms.push_back(timeOnce(fast_opts, &warm, nullptr));
  }

  // Worker-pool runs: same cold-arena regime as median_fast_ms, with the
  // tree DP fanned out over 2 and 4 threads. Plans are bit-identical to
  // the sequential fast path (asserted in tests/test_parallel.cc and
  // spot-checked here), so any delta is pure wall-clock.
  std::vector<double> par2_ms, par4_ms;
  place::PlacementPlan par_plan;
  {
    util::ThreadPool pool2(2);
    place::PlacementOptions opts2 = fast_opts;
    opts2.pool = &pool2;
    for (int i = 0; i < reps; ++i) {
      place::PlacementArena cold;
      par2_ms.push_back(timeOnce(opts2, &cold, nullptr));
    }
    util::ThreadPool pool4(4);
    place::PlacementOptions opts4 = fast_opts;
    opts4.pool = &pool4;
    for (int i = 0; i < reps; ++i) {
      place::PlacementArena cold;
      par4_ms.push_back(timeOnce(opts4, &cold, &par_plan));
    }
  }

  r.feasible = fast_plan.feasible;
  r.median_par2_ms = bench::medianOf(par2_ms);
  r.median_par4_ms = bench::medianOf(par4_ms);
  r.speedup_par4 = r.median_par4_ms > 0
                       ? bench::medianOf(fast_ms) / r.median_par4_ms
                       : 0;
  r.parallel_identical = samePlan(par_plan, fast_plan);
  r.parallel_tasks = par_plan.stats.parallel_tasks;
  r.median_ref_ms = bench::medianOf(ref_ms);
  r.median_fast_ms = bench::medianOf(fast_ms);
  r.median_warm_ms = bench::medianOf(warm_ms);
  r.speedup = r.median_fast_ms > 0 ? r.median_ref_ms / r.median_fast_ms : 0;
  r.steps_ref = ref_plan.steps;
  r.steps_fast = fast_plan.steps;
  r.intra_memo_hit_rate = fast_plan.stats.intraMemoHitRate();
  r.early_breaks = fast_plan.stats.early_breaks;
  return r;
}

topo::TrafficSpec specFor(const topo::Topology& topo,
                          const std::vector<std::string>& srcs,
                          const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) spec.sources.push_back({topo.findNode(s), 10.0});
  spec.dst_host = topo.findNode(dst);
  return spec;
}

}  // namespace
}  // namespace clickinc

int main() {
  using namespace clickinc;
  bench::printHeader(
      "Fig. 14 — placement time vs number of devices (MLAgg)",
      "(a)/(b): DP ablations of block construction and pruning. (c): "
      "SMT-style baseline.\nPaper shape: each optimization >50% faster, "
      ">80% together; DP linear, SMT exponential.");

  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "MLAgg", "agg", {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}});

  // (a)+(b): DP sweeps.
  TextTable dp({"devices", "DP block+prune (ms)", "DP block,no-prune (ms)",
                "DP no-block,prune (ms)", "DP no-block,no-prune (ms)"});
  for (int n = 1; n <= 10; n += 3) {
    dp.addRow({cat(n), fmtDouble(dpTimeMs(prog, n, true, true), 2),
               fmtDouble(dpTimeMs(prog, n, true, false), 2),
               fmtDouble(dpTimeMs(prog, n, false, true), 2),
               fmtDouble(dpTimeMs(prog, n, false, false), 2)});
  }
  bench::printTable(dp);

  // (c): SMT baseline, with and without block construction.
  TextTable smt({"devices", "SMT blocks (ms)", "SMT steps",
                 "SMT w/o blocks (ms)", "steps (w/o blocks)"});
  for (int n = 1; n <= 4; ++n) {
    const std::vector<device::DeviceModel> chain(
        static_cast<std::size_t>(n), device::makeTofino());
    place::SmtOptions o;
    o.max_steps = 4000000;
    o.per_segment_steps = 60000;

    place::BlockDagOptions with_blocks;
    const auto dag_b = place::BlockDag::build(prog, with_blocks);
    const auto rb = place::smtPlaceChain(dag_b, chain, o);

    place::BlockDagOptions no_blocks;
    no_blocks.merge = false;
    const auto dag_n = place::BlockDag::build(prog, no_blocks);
    const auto rn = place::smtPlaceChain(dag_n, chain, o);

    smt.addRow({cat(n),
                cat(fmtDouble(rb.elapsed_ms, 1),
                    rb.budget_exhausted ? " (budget)" : ""),
                cat(rb.steps),
                cat(fmtDouble(rn.elapsed_ms, 1),
                    rn.budget_exhausted ? " (budget)" : ""),
                cat(rn.steps)});
  }
  bench::printTable(smt);

  // Fast path vs retained reference path across the workload set.
  bench::printHeader(
      "Placement fast path — flat tables + occupancy memo + early exit",
      "Median wall-clock over repeated runs; \"warm ideal\" reuses one "
      "arena against unchanged occupancy (upper bound on multi-program "
      "reuse). Plans are identical across modes (PlanEquivalence tests).");

  const int kReps = 7;
  std::vector<WorkloadResult> results;

  {
    const std::vector<device::DeviceModel> chain10(10, device::makeTofino());
    const auto topo = topo::Topology::chain(chain10);
    const auto spec = specFor(topo, {"client"}, "server");
    const auto small = lib.compileTemplate(
        "MLAgg", "agg_s",
        {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}});
    results.push_back(
        measureWorkload("mlagg_small_chain10", small, topo, spec, kReps));
    const auto large = lib.compileTemplate(
        "MLAgg", "agg_l",
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
    results.push_back(
        measureWorkload("mlagg_large_chain10", large, topo, spec, kReps));
  }
  {
    const auto topo = topo::Topology::paperEmulation();
    const auto spec = specFor(topo, {"pod0a", "pod1a"}, "pod2b");
    const auto kvs = lib.compileTemplate(
        "KVS", "kvs", {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}});
    results.push_back(
        measureWorkload("kvs_paper_emulation", kvs, topo, spec, kReps));
    const auto dq = lib.compileTemplate(
        "DQAcc", "dq", {{"CacheDepth", 1024}, {"CacheLen", 4}});
    results.push_back(
        measureWorkload("dqacc_paper_emulation", dq, topo, spec, kReps));
    const auto large = lib.compileTemplate(
        "MLAgg", "agg_p",
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
    results.push_back(
        measureWorkload("mlagg_large_paper_emulation", large, topo, spec,
                        kReps));
  }

  TextTable fastTable({"workload", "reference (ms)", "fast (ms)",
                       "warm ideal (ms)", "speedup", "memo hit rate"});
  for (const auto& r : results) {
    fastTable.addRow({r.name, fmtDouble(r.median_ref_ms, 3),
                      fmtDouble(r.median_fast_ms, 3),
                      fmtDouble(r.median_warm_ms, 3),
                      cat(fmtDouble(r.speedup, 2), "x"),
                      fmtDouble(r.intra_memo_hit_rate, 3)});
  }
  bench::printTable(fastTable);

  // Worker-pool placement: the same cold-arena fast path with the tree DP
  // fanned out (sibling subtrees, per-node segment fills, server-chain
  // rows). Plans are bit-identical across thread counts; this machine
  // has hardwareConcurrency() threads, so the 2t/4t columns only show
  // real speedups when the hardware provides the cores.
  bench::printHeader(
      "Parallel placement — worker-pool tree DP (cold arena)",
      cat("Medians over ", kReps, " runs; pool of 2 and 4 threads vs the "
          "sequential fast path.\nHardware threads on this machine: ",
          util::ThreadPool::hardwareConcurrency(), "."));
  TextTable parTable({"workload", "fast 1t (ms)", "fast 2t (ms)",
                      "fast 4t (ms)", "speedup (4t)", "pool tasks",
                      "identical"});
  for (const auto& r : results) {
    parTable.addRow({r.name, fmtDouble(r.median_fast_ms, 3),
                     fmtDouble(r.median_par2_ms, 3),
                     fmtDouble(r.median_par4_ms, 3),
                     cat(fmtDouble(r.speedup_par4, 2), "x"),
                     cat(r.parallel_tasks),
                     r.parallel_identical ? "yes" : "NO"});
  }
  bench::printTable(parTable);

  // Machine-readable trajectory record.
  bench::JsonWriter json;
  json.beginObject();
  json.kv("bench", "fig14_compile_time");
  bench::writeHostObject(json, 4);  // placement sweeps attach 2/4-thread pools
  json.kv("reps", kReps);
  json.kv("hardware_threads", util::ThreadPool::hardwareConcurrency());
  json.key("workloads").beginArray();
  for (const auto& r : results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("feasible", r.feasible);
    json.kv("blocks", r.blocks);
    json.kv("tree_nodes", r.tree_nodes);
    json.kv("median_reference_ms", r.median_ref_ms);
    json.kv("median_fast_ms", r.median_fast_ms);
    json.kv("median_warm_arena_ideal_ms", r.median_warm_ms);
    json.kv("speedup", r.speedup);
    json.kv("steps_reference", r.steps_ref);
    json.kv("steps_fast", r.steps_fast);
    json.kv("intra_memo_hit_rate", r.intra_memo_hit_rate);
    json.kv("early_breaks", r.early_breaks);
    json.kv("median_parallel_2t_ms", r.median_par2_ms);
    json.kv("median_parallel_4t_ms", r.median_par4_ms);
    json.kv("speedup_parallel_4t", r.speedup_par4);
    json.kv("parallel_plans_identical", r.parallel_identical);
    json.kv("parallel_tasks_4t", r.parallel_tasks);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  if (json.writeFile("BENCH_fig14.json")) {
    std::printf("wrote BENCH_fig14.json\n");
  } else {
    std::printf("WARNING: could not write BENCH_fig14.json\n");
  }
  return 0;
}
