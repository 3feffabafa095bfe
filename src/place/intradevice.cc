#include "place/intradevice.h"

#include <algorithm>
#include <limits>
#include <set>

#include "place/blockdag.h"
#include "util/bits.h"
#include "util/crc.h"
#include "util/strings.h"
#include "util/error.h"

namespace clickinc::place {

DeviceOccupancy DeviceOccupancy::fresh(const device::DeviceModel& model) {
  DeviceOccupancy occ;
  occ.model = &model;
  if (model.arch == device::Arch::kPipeline) {
    for (int s = 0; s < model.num_stages; ++s) {
      occ.free_stage.push_back(device::stageBudget(model, s));
    }
  } else {
    occ.free_whole = device::deviceBudget(model);
  }
  return occ;
}

double DeviceOccupancy::remainingRatio() const {
  double free = 0;
  double cap = 0;
  auto score = [](const device::ResourceDemand& d) {
    // Saturating-int budgets (RTC "unlimited" compute) are clamped so the
    // ratio reflects the binding resources.
    device::ResourceDemand c = d;
    auto clamp = [](int v) { return std::min(v, 1 << 20); };
    c.salus = clamp(c.salus);
    c.alus = clamp(c.alus);
    c.hash_units = clamp(c.hash_units);
    c.tables = clamp(c.tables);
    c.gateways = clamp(c.gateways);
    c.special_fns = clamp(c.special_fns);
    c.micro_instrs = clamp(c.micro_instrs);
    c.dsps = clamp(c.dsps);
    return demandScore(c);
  };
  if (model->arch == device::Arch::kPipeline) {
    for (int s = 0; s < model->num_stages; ++s) {
      free += score(free_stage[static_cast<std::size_t>(s)]);
      cap += score(device::stageBudget(*model, s));
    }
  } else {
    free = score(free_whole);
    cap = score(device::deviceBudget(*model));
  }
  return cap <= 0 ? 0.0 : std::min(1.0, free / cap);
}

namespace {

bool subtractFrom(device::ResourceDemand& budget,
                  const device::ResourceDemand& d) {
  if (!d.fitsWithin(budget)) return false;
  budget.salus -= d.salus;
  budget.alus -= d.alus;
  budget.hash_units -= d.hash_units;
  budget.tables -= d.tables;
  budget.gateways -= d.gateways;
  budget.special_fns -= d.special_fns;
  budget.sram_bits -= d.sram_bits;
  budget.tcam_bits -= d.tcam_bits;
  budget.micro_instrs -= d.micro_instrs;
  budget.dsps -= d.dsps;
  budget.luts -= d.luts;
  budget.ffs -= d.ffs;
  return true;
}

bool isStatefulClass(ir::InstrClass c) {
  return c == ir::InstrClass::kBSO || c == ir::InstrClass::kBSEM ||
         c == ir::InstrClass::kBSNEM;
}

bool isTableLookup(const ir::Instruction& ins) {
  switch (ins.cls()) {
    case ir::InstrClass::kBEM:
    case ir::InstrClass::kBSEM:
    case ir::InstrClass::kBNEM:
    case ir::InstrClass::kBSNEM:
    case ir::InstrClass::kBDM:
      return true;
    default:
      return false;
  }
}

// Demand of one touch of an instruction: the first stateful touch of a
// state in a stage carries the SALU/table slot plus the state's
// block-rounded storage; subsequent touches of the same state in the same
// stage share the unit.
device::ResourceDemand touchDemand(const ir::IrProgram& prog,
                                   const ir::Instruction& ins,
                                   const device::DeviceModel& model,
                                   bool first_touch) {
  device::ResourceDemand d = device::instrDemand(ins);
  if (ins.state_id >= 0) {
    if (first_touch) {
      device::ResourceDemand st = device::stateDemand(
          prog.states[static_cast<std::size_t>(ins.state_id)]);
      st.sram_bits = ceilDiv(st.sram_bits, model.sram_block_bits) *
                     model.sram_block_bits;
      if (st.tcam_bits > 0) {
        st.tcam_bits = ceilDiv(st.tcam_bits, model.tcam_block_bits) *
                       model.tcam_block_bits;
      }
      d.add(st);
    } else if (isStatefulClass(ins.cls())) {
      d.salus = 0;
      d.tables = 0;
      d.hash_units = 0;
    }
  }
  return d;
}

// Demand of one instruction at a (stage, state) site, recording the site
// in `seen`.
device::ResourceDemand siteDemand(const ir::IrProgram& prog,
                                  const ir::Instruction& ins,
                                  const device::DeviceModel& model,
                                  std::set<std::pair<int, int>>* seen,
                                  int stage) {
  const bool first_touch =
      ins.state_id >= 0 &&
      seen->insert(std::make_pair(stage, ins.state_id)).second;
  return touchDemand(prog, ins, model, first_touch);
}

IntraPlacement placeWholeDevice(const DeviceOccupancy& occ,
                                const ir::IrProgram& prog,
                                const std::vector<int>& instrs) {
  IntraPlacement out;
  out.instr_idxs = instrs;
  out.steps = 1;
  for (int i : instrs) {
    if (!occ.model->supportsOpcode(
            prog.instrs[static_cast<std::size_t>(i)].op)) {
      out.why = cat("unsupported opcode ",
                    ir::opcodeName(prog.instrs[static_cast<std::size_t>(i)].op));
      return out;
    }
  }
  out.total = device::demandOfInstrs(prog, instrs);
  device::ResourceDemand budget = occ.free_whole;
  if (!out.total.fitsWithin(budget)) {
    out.why = "whole-device budget exceeded";
    return out;
  }
  out.feasible = true;
  out.stages_used = instrs.empty() ? 0 : 1;
  return out;
}

}  // namespace

namespace {

std::uint64_t foldValue(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ v);
}

std::uint64_t foldDemand(std::uint64_t h, const device::ResourceDemand& d) {
  h = foldValue(h, static_cast<std::uint64_t>(d.salus));
  h = foldValue(h, static_cast<std::uint64_t>(d.alus));
  h = foldValue(h, static_cast<std::uint64_t>(d.hash_units));
  h = foldValue(h, static_cast<std::uint64_t>(d.tables));
  h = foldValue(h, static_cast<std::uint64_t>(d.gateways));
  h = foldValue(h, static_cast<std::uint64_t>(d.special_fns));
  h = foldValue(h, d.sram_bits);
  h = foldValue(h, d.tcam_bits);
  h = foldValue(h, static_cast<std::uint64_t>(d.micro_instrs));
  h = foldValue(h, static_cast<std::uint64_t>(d.dsps));
  h = foldValue(h, d.luts);
  h = foldValue(h, d.ffs);
  return h;
}

}  // namespace

std::uint64_t occupancyFingerprint(const DeviceOccupancy& occ) {
  std::uint64_t h = 0x5CA1AB1EULL;
  const auto* bytes =
      reinterpret_cast<const std::uint8_t*>(occ.model->name.data());
  h = foldValue(h, crc32(std::span<const std::uint8_t>(
                       bytes, occ.model->name.size())));
  h = foldValue(h, static_cast<std::uint64_t>(occ.model->arch));
  h = foldValue(h, static_cast<std::uint64_t>(occ.model->num_stages));
  // Placement results also depend on the model's capability mask and
  // memory-block rounding, so distinct models sharing a name must not
  // collide.
  h = foldValue(h, static_cast<std::uint64_t>(occ.model->supported));
  h = foldValue(h, occ.model->sram_block_bits);
  h = foldValue(h, occ.model->tcam_block_bits);
  if (occ.model->arch == device::Arch::kPipeline) {
    for (const auto& d : occ.free_stage) h = foldDemand(h, d);
  } else {
    h = foldDemand(h, occ.free_whole);
  }
  return h;
}

std::uint64_t segmentFingerprint(const ir::IrProgram& prog,
                                 const ir::Analysis& an,
                                 const std::vector<int>& instrs) {
  std::uint64_t h = foldValue(0xC0FFEEULL, instrs.size());
  // Local index of each member (first occurrence wins), so dependency
  // edges hash positionally and the fingerprint is insensitive to the
  // segment's absolute offset; and each referenced state's slot in
  // first-touch order. Both are flat per-thread tables over program
  // indices, reset after use, so a call costs O(|instrs|) without hashing.
  thread_local std::vector<int> local;
  thread_local std::vector<int> state_local;
  if (local.size() < prog.instrs.size()) local.resize(prog.instrs.size(), -1);
  if (state_local.size() < prog.states.size()) {
    state_local.resize(prog.states.size(), -1);
  }
  thread_local std::vector<int> state_order;  // first-touch state order
  state_order.clear();
  // Leaves both tables all -1 again however the call exits.
  struct Reset {
    const std::vector<int>& instrs;
    ~Reset() {
      for (int sid : state_order) {
        state_local[static_cast<std::size_t>(sid)] = -1;
      }
      for (int idx : instrs) local[static_cast<std::size_t>(idx)] = -1;
    }
  } reset{instrs};
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    int& slot = local[static_cast<std::size_t>(instrs[k])];
    if (slot < 0) slot = static_cast<int>(k);
  }
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(instrs[k])];
    h = foldValue(h, static_cast<std::uint64_t>(ins.op));
    int state_slot = -1;
    if (ins.state_id >= 0) {
      int& slot = state_local[static_cast<std::size_t>(ins.state_id)];
      if (slot < 0) {
        state_order.push_back(ins.state_id);
        slot = static_cast<int>(state_order.size()) - 1;
      }
      state_slot = slot;
    }
    h = foldValue(h, static_cast<std::uint64_t>(state_slot + 1));
    h = foldDemand(h, device::instrDemand(ins));
    for (int j : an.dep.deps[static_cast<std::size_t>(instrs[k])]) {
      const int pos = local[static_cast<std::size_t>(j)];
      if (pos < 0) continue;  // producer outside the segment
      h = foldValue(h, (static_cast<std::uint64_t>(k) << 20) ^
                           static_cast<std::uint64_t>(pos));
      h = foldValue(h, an.sameScc(instrs[k], j) ? 0x2 : 0x1);
    }
  }
  for (int sid : state_order) {
    h = foldDemand(h,
                   device::stateDemand(
                       prog.states[static_cast<std::size_t>(sid)]));
  }
  return h;
}

IntraMemo::Claim IntraMemo::claim(const MemoKey& key, Handle* out) {
  Shard& shard = shardOf(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  Entry& entry = it->second;
  Claim c;
  c.entry = &entry;
  c.shard = static_cast<int>(&shard - shards_.data());
  if (inserted) {
    ++shard.misses;
    c.leader = true;
    return c;
  }
  if (!entry.ready) {
    // In-flight: another thread claimed this key and is computing it.
    // Wait it out — the follower would otherwise redo the exact same
    // search, so blocking costs no more than computing and keeps
    // intra_calls/steps deterministic. Node-based map entries are
    // address-stable across concurrent inserts, and the waiter count
    // shields the slot from eviction until every claimant (blocked or
    // woken-but-unscheduled) has taken its handle.
    ++entry.waiters;
    shard.ready_cv.wait(lock, [&] { return entry.ready; });
    --entry.waiters;
  }
  if (entry.failed) {
    // The previous leader threw instead of publishing a result. Take
    // over leadership; any other waiters re-block on !ready.
    entry.ready = false;
    entry.failed = false;
    ++shard.misses;
    c.leader = true;
    return c;
  }
  ++shard.hits;
  *out = entry.placement;
  return c;
}

void IntraMemo::publish(const Claim& claim, Handle placement) {
  Shard& shard = shards_[static_cast<std::size_t>(claim.shard)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= kMaxEntriesPerShard) evictReady(shard);
  Entry& entry = *static_cast<Entry*>(claim.entry);
  entry.placement = std::move(placement);
  entry.ready = true;
  shard.ready_cv.notify_all();
}

void IntraMemo::publishError(const Claim& claim) {
  Shard& shard = shards_[static_cast<std::size_t>(claim.shard)];
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = *static_cast<Entry*>(claim.entry);
  entry.failed = true;
  entry.ready = true;  // wakes waiters; the first re-leads and resets
  shard.ready_cv.notify_all();
}

void IntraMemo::evictReady(Shard& shard) {
  // Wholesale eviction of published entries. In-flight slots (not ready)
  // and slots with registered waiters survive: a follower may hold a
  // pointer from before it blocked — or may have been notified but not
  // yet rescheduled, which is why ready alone is not a safe criterion.
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    if (it->second.ready && it->second.waiters == 0) {
      it = shard.map.erase(it);
    } else {
      ++it;
    }
  }
}

long IntraMemo::hits() const {
  long total = 0;
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.hits;
  }
  return total;
}

long IntraMemo::misses() const {
  long total = 0;
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.misses;
  }
  return total;
}

std::size_t IntraMemo::size() const {
  std::size_t total = 0;
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.map.size();
  }
  return total;
}

void IntraMemo::clear() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
    s.hits = 0;
    s.misses = 0;
  }
}

IntraPlacement placeCompact(const DeviceOccupancy& occ,
                            const ir::IrProgram& prog,
                            const std::vector<int>& instrs,
                            int min_stage, const ir::Analysis* an) {
  IntraPlacement out;
  out.instr_idxs = instrs;
  if (instrs.empty()) {
    out.feasible = true;
    return out;
  }
  if (occ.model->arch != device::Arch::kPipeline) {
    return placeWholeDevice(occ, prog, instrs);
  }

  for (int i : instrs) {
    if (!occ.model->supportsOpcode(
            prog.instrs[static_cast<std::size_t>(i)].op)) {
      out.why = cat("unsupported opcode ",
                    ir::opcodeName(prog.instrs[static_cast<std::size_t>(i)].op));
      return out;
    }
  }

  const ir::Analysis local = an == nullptr ? ir::analyzeProgram(prog)
                                           : ir::Analysis{};
  const ir::Analysis& analysis = an == nullptr ? local : *an;
  const ir::DepGraph& dep = analysis.dep;
  const int num_stages = occ.model->num_stages;
  std::vector<device::ResourceDemand> free = occ.free_stage;
  out.stage_of.assign(instrs.size(), -1);

  // Flat per-thread tables. stage_by_instr holds the stage of each placed
  // instruction by program index, and a guard resets it to all -1 however
  // the call exits. next_touch[k] is the segment position of the next
  // touch of k's state (-1 at a group's end and for stateless
  // instructions); touch_head links those chains and is reset at once.
  thread_local std::vector<int> stage_by_instr;
  thread_local std::vector<int> touch_head;
  thread_local std::vector<int> next_touch;
  if (stage_by_instr.size() < prog.instrs.size()) {
    stage_by_instr.resize(prog.instrs.size(), -1);
  }
  if (touch_head.size() < prog.states.size()) {
    touch_head.resize(prog.states.size(), -1);
  }
  struct Reset {
    const std::vector<int>& instrs;
    ~Reset() {
      for (int idx : instrs) {
        stage_by_instr[static_cast<std::size_t>(idx)] = -1;
      }
    }
  } reset{instrs};
  next_touch.assign(instrs.size(), -1);
  for (std::size_t k = instrs.size(); k-- > 0;) {
    const int sid = prog.instrs[static_cast<std::size_t>(instrs[k])].state_id;
    if (sid < 0) continue;
    int& head = touch_head[static_cast<std::size_t>(sid)];
    next_touch[k] = head;
    head = static_cast<int>(k);
  }
  for (int idx : instrs) {
    const int sid = prog.instrs[static_cast<std::size_t>(idx)].state_id;
    if (sid >= 0) touch_head[static_cast<std::size_t>(sid)] = -1;
  }

  // Earliest legal stage for one instruction given already-placed
  // producers; intra-SCC (fused stateful group) ordering is exempt.
  auto earliestFor = [&](int i) {
    int earliest = min_stage;
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    for (int j : dep.deps[static_cast<std::size_t>(i)]) {
      const int stage = stage_by_instr[static_cast<std::size_t>(j)];
      if (stage < 0) continue;  // producer upstream/later
      if (analysis.sameScc(i, j)) continue;
      const auto& producer = prog.instrs[static_cast<std::size_t>(j)];
      const bool fused = isTableLookup(producer) && !isTableLookup(ins);
      earliest = std::max(earliest, stage + (fused ? 0 : 1));
    }
    return earliest;
  };

  // All touches of one state object go to one stage (the array is bound to
  // a single SALU), so a state's touch group is placed atomically at its
  // first touch — otherwise later touches could find their pinned stage
  // full. Each group is placed exactly once, so no stage yet holds the
  // group's state when it is probed: the first member carries the state's
  // storage and slot, the later ones share them, and the group's combined
  // demand is the same at every stage.
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    if (out.stage_of[k] >= 0) continue;  // placed with its touch group
    const int i = instrs[k];
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    ++out.steps;

    int earliest = min_stage;
    device::ResourceDemand combined;
    for (int m = static_cast<int>(k); m >= 0;
         m = next_touch[static_cast<std::size_t>(m)]) {
      const int mi = instrs[static_cast<std::size_t>(m)];
      earliest = std::max(earliest, earliestFor(mi));
      combined.add(touchDemand(prog, prog.instrs[static_cast<std::size_t>(mi)],
                               *occ.model, m == static_cast<int>(k)));
    }

    int placed_stage = -1;
    for (int s = earliest; s < num_stages; ++s) {
      ++out.steps;
      if (subtractFrom(free[static_cast<std::size_t>(s)], combined)) {
        placed_stage = s;
        break;
      }
    }
    if (placed_stage < 0) {
      out.why = cat("no stage fits instr #", i, " (", ins.toString(),
                    ") earliest=", earliest);
      return out;
    }
    for (int m = static_cast<int>(k); m >= 0;
         m = next_touch[static_cast<std::size_t>(m)]) {
      stage_by_instr[static_cast<std::size_t>(
          instrs[static_cast<std::size_t>(m)])] = placed_stage;
      out.stage_of[static_cast<std::size_t>(m)] = placed_stage;
    }
  }

  out.feasible = true;
  int lo = num_stages, hi = -1;
  for (int s : out.stage_of) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  out.stages_used = hi - lo + 1;
  out.total = device::demandOfInstrs(prog, instrs);
  return out;
}

namespace {

struct ExhaustiveSearch {
  const DeviceOccupancy* occ;
  const ir::IrProgram* prog;
  const std::vector<int>* instrs;
  const ir::Analysis* analysis;
  long max_steps;
  int min_stage;

  long steps = 0;
  int best_span = std::numeric_limits<int>::max();
  std::vector<int> best_stages;

  std::vector<int> cur;
  std::vector<device::ResourceDemand> free;
  std::map<int, int> stage_by_instr;
  std::map<int, int> stage_by_state;
  std::set<std::pair<int, int>> state_sites;

  void run(std::size_t k) {
    if (steps >= max_steps) return;
    if (k == instrs->size()) {
      int lo = occ->model->num_stages, hi = -1;
      for (int s : cur) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
      const int span = cur.empty() ? 0 : hi - lo + 1;
      if (span < best_span) {
        best_span = span;
        best_stages = cur;
      }
      return;
    }
    const int i = (*instrs)[k];
    const auto& ins = prog->instrs[static_cast<std::size_t>(i)];
    int earliest = min_stage;
    for (int j : analysis->dep.deps[static_cast<std::size_t>(i)]) {
      auto it = stage_by_instr.find(j);
      if (it == stage_by_instr.end()) continue;
      if (analysis->sameScc(i, j)) continue;
      const auto& producer = prog->instrs[static_cast<std::size_t>(j)];
      const bool fused = isTableLookup(producer) &&
                         !isTableLookup(ins);
      earliest = std::max(earliest, it->second + (fused ? 0 : 1));
    }
    int pinned = -1;
    if (ins.state_id >= 0) {
      auto it = stage_by_state.find(ins.state_id);
      if (it != stage_by_state.end()) pinned = it->second;
    }
    if (pinned >= 0) earliest = std::min(earliest, pinned);
    for (int s = earliest; s < occ->model->num_stages; ++s) {
      if (pinned >= 0 && s != pinned) continue;
      ++steps;
      if (steps >= max_steps) return;
      std::set<std::pair<int, int>> saved_sites = state_sites;
      const auto d = siteDemand(*prog, ins, *occ->model, &state_sites, s);
      if (!d.fitsWithin(free[static_cast<std::size_t>(s)])) {
        state_sites = std::move(saved_sites);
        continue;
      }
      subtractFrom(free[static_cast<std::size_t>(s)], d);
      cur.push_back(s);
      stage_by_instr[i] = s;
      const bool had_state_pin = pinned >= 0;
      if (ins.state_id >= 0 && !had_state_pin) {
        stage_by_state[ins.state_id] = s;
      }
      run(k + 1);
      if (ins.state_id >= 0 && !had_state_pin) {
        stage_by_state.erase(ins.state_id);
      }
      stage_by_instr.erase(i);
      cur.pop_back();
      auto& f = free[static_cast<std::size_t>(s)];
      f.add(d);  // return the charge
      state_sites = std::move(saved_sites);
    }
  }
};

}  // namespace

IntraPlacement placeExhaustive(const DeviceOccupancy& occ,
                               const ir::IrProgram& prog,
                               const std::vector<int>& instrs,
                               long max_steps, int min_stage,
                               const ir::Analysis* an) {
  IntraPlacement out;
  out.instr_idxs = instrs;
  if (instrs.empty()) {
    out.feasible = true;
    return out;
  }
  if (occ.model->arch != device::Arch::kPipeline) {
    return placeWholeDevice(occ, prog, instrs);
  }
  for (int i : instrs) {
    if (!occ.model->supportsOpcode(
            prog.instrs[static_cast<std::size_t>(i)].op)) {
      return out;
    }
  }
  const ir::Analysis local = an == nullptr ? ir::analyzeProgram(prog)
                                           : ir::Analysis{};
  const ir::Analysis& analysis = an == nullptr ? local : *an;
  ExhaustiveSearch search;
  search.occ = &occ;
  search.prog = &prog;
  search.instrs = &instrs;
  search.analysis = &analysis;
  search.max_steps = max_steps;
  search.min_stage = min_stage;
  search.free = occ.free_stage;
  search.run(0);

  out.steps = search.steps;
  if (search.best_stages.empty() && !instrs.empty()) return out;
  out.feasible = true;
  out.stage_of = search.best_stages;
  out.stages_used = search.best_span;
  out.total = device::demandOfInstrs(prog, instrs);
  return out;
}

DeviceOccupancy placementClaims(const ir::IrProgram& prog,
                                const IntraPlacement& placement,
                                const device::DeviceModel& model) {
  DeviceOccupancy claims;
  claims.model = &model;
  if (model.arch != device::Arch::kPipeline) {
    // commitPlacement subtracts placement.total; placeWholeDevice sets it
    // to demandOfInstrs, so recomputing from the instructions yields the
    // same vector for any honestly produced placement (and exposes plans
    // whose cached total drifted from their instruction list).
    claims.free_whole = device::demandOfInstrs(prog, placement.instr_idxs);
    return claims;
  }
  claims.free_stage.assign(static_cast<std::size_t>(model.num_stages), {});
  std::set<std::pair<int, int>> sites;
  for (std::size_t k = 0; k < placement.instr_idxs.size(); ++k) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(
        placement.instr_idxs[k])];
    const int s = placement.stage_of[k];
    claims.free_stage[static_cast<std::size_t>(s)].add(
        siteDemand(prog, ins, model, &sites, s));
  }
  return claims;
}

void commitPlacement(DeviceOccupancy& occ, const ir::IrProgram& prog,
                     const IntraPlacement& placement) {
  CLICKINC_CHECK(placement.feasible, "committing infeasible placement");
  if (occ.model->arch != device::Arch::kPipeline) {
    CLICKINC_CHECK(subtractFrom(occ.free_whole, placement.total),
                   "over-committed device");
    return;
  }
  // Bounds are checked, not assumed: commit also replays journal records
  // whose bytes only ever passed a CRC (core/service.cc recovery).
  CLICKINC_CHECK(placement.stage_of.size() == placement.instr_idxs.size(),
                 "commit: stage/instr arity mismatch");
  std::set<std::pair<int, int>> sites;
  for (std::size_t k = 0; k < placement.instr_idxs.size(); ++k) {
    const int idx = placement.instr_idxs[k];
    CLICKINC_CHECK(idx >= 0 &&
                       idx < static_cast<int>(prog.instrs.size()),
                   "commit: instr index outside program");
    const auto& ins = prog.instrs[static_cast<std::size_t>(idx)];
    const int s = placement.stage_of[k];
    CLICKINC_CHECK(s >= 0 &&
                       s < static_cast<int>(occ.free_stage.size()),
                   "commit: stage outside device pipeline");
    const auto d = siteDemand(prog, ins, *occ.model, &sites, s);
    CLICKINC_CHECK(
        subtractFrom(occ.free_stage[static_cast<std::size_t>(s)], d),
        "over-committed stage");
  }
}



void releasePlacement(DeviceOccupancy& occ, const ir::IrProgram& prog,
                      const IntraPlacement& placement) {
  if (occ.model->arch != device::Arch::kPipeline) {
    occ.free_whole.add(placement.total);
    return;
  }
  std::set<std::pair<int, int>> sites;
  for (std::size_t k = 0; k < placement.instr_idxs.size(); ++k) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(
        placement.instr_idxs[k])];
    const int s = placement.stage_of[k];
    const auto d = siteDemand(prog, ins, *occ.model, &sites, s);
    occ.free_stage[static_cast<std::size_t>(s)].add(d);
  }
}

}  // namespace clickinc::place
