#include "place/smt_baseline.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "place/intradevice.h"

namespace clickinc::place {
namespace {

struct ChainSearch {
  const BlockDag* dag;
  const std::vector<device::DeviceModel>* chain;
  SmtOptions opts;
  const ir::Analysis* analysis = nullptr;

  long steps = 0;
  bool stop = false;
  double best_cost = std::numeric_limits<double>::infinity();
  SmtResult best;

  std::vector<int> boundaries;      // current partial assignment
  std::vector<IntraPlacement> placements;

  double costOf(const std::vector<int>& b) const {
    double score = 0;
    double cuts = 0;
    for (std::size_t d = 0; d + 1 < b.size(); ++d) {
      score += dag->scoreOf(b[d], b[d + 1]);
      if (d > 0 && b[d] > 0 && b[d] < dag->size() && b[d + 1] > b[d]) {
        cuts += dag->cutBits(b[d]);
      }
    }
    const double score_norm = std::max(1.0, dag->totalScore());
    double cut_total = 0;
    for (int i = 1; i < dag->size(); ++i) cut_total += dag->cutBits(i);
    const double cut_norm = std::max(1.0, cut_total);
    return 0.25 * score / score_norm + 0.25 * cuts / cut_norm;
  }

  void record() {
    SmtResult r;
    r.feasible = true;
    r.boundaries = boundaries;
    for (const auto& p : placements) {
      r.stages_used.push_back(p.stages_used);
      r.instrs_per_device.push_back(static_cast<int>(p.instr_idxs.size()));
    }
    for (std::size_t d = 0; d + 1 < boundaries.size(); ++d) {
      r.resource_score += dag->scoreOf(boundaries[d], boundaries[d + 1]);
      if (d > 0 && boundaries[d] > 0 && boundaries[d] < dag->size() &&
          boundaries[d + 1] > boundaries[d]) {
        r.comm_bits += dag->cutBits(boundaries[d]);
      }
    }
    r.cost = costOf(boundaries);
    if (r.cost < best_cost) {
      best_cost = r.cost;
      best = std::move(r);
    }
  }

  // Enumerate the end boundary of device d given start boundary.
  void search(std::size_t d, int start) {
    if (stop) return;
    if (steps >= opts.max_steps) {
      stop = true;
      return;
    }
    const int m = dag->size();
    if (d == chain->size()) {
      if (start == m) {
        record();
        if (!opts.optimize) stop = true;  // first feasible model wins
      }
      return;
    }
    // Feasibility-only solvers return arbitrary models; they habitually
    // spread work over every declared device. Emulate by trying balanced
    // splits first in that mode; the optimizing mode order is irrelevant
    // (full enumeration).
    const int remaining_devices = static_cast<int>(chain->size() - d);
    std::vector<int> ends;
    for (int end = start; end <= m; ++end) ends.push_back(end);
    if (!opts.optimize) {
      const int target = start + (m - start) / remaining_devices;
      std::sort(ends.begin(), ends.end(), [&](int a, int b) {
        return std::abs(a - target) < std::abs(b - target);
      });
    }
    for (int end : ends) {
      ++steps;
      if (steps >= opts.max_steps) {
        stop = true;
        return;
      }
      const auto occ = DeviceOccupancy::fresh(
          (*chain)[d]);
      IntraPlacement p = placeExhaustive(
          occ, dag->prog(), dag->instrsOf(start, end),
          std::min(opts.max_steps - steps, opts.per_segment_steps), 0,
          analysis);
      steps += p.steps;
      if (!p.feasible) continue;
      boundaries.push_back(end);
      placements.push_back(std::move(p));
      search(d + 1, end);
      placements.pop_back();
      boundaries.pop_back();
      if (stop) return;
    }
  }
};

}  // namespace

SmtResult smtPlaceChain(const BlockDag& dag,
                        const std::vector<device::DeviceModel>& chain,
                        const SmtOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ChainSearch search;
  search.dag = &dag;
  search.chain = &chain;
  search.opts = opts;
  search.analysis = &dag.analysis();
  search.boundaries.push_back(0);
  search.search(0, 0);

  SmtResult out = search.best;
  out.feasible = search.best_cost !=
                 std::numeric_limits<double>::infinity();
  out.steps = search.steps;
  out.budget_exhausted = search.steps >= opts.max_steps;
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return out;
}

}  // namespace clickinc::place
