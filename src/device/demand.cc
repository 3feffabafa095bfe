#include "device/demand.h"

#include <limits>
#include <set>

#include "util/bits.h"

namespace clickinc::device {

using ir::InstrClass;

namespace {

// acc += v for the non-negative demand fields, clamped at T's max
// instead of wrapping.
template <typename T>
void addSaturating(T& acc, T v) {
  if (__builtin_add_overflow(acc, v, &acc)) acc = std::numeric_limits<T>::max();
}

}  // namespace

void ResourceDemand::add(const ResourceDemand& other) {
  addSaturating(salus, other.salus);
  addSaturating(alus, other.alus);
  addSaturating(hash_units, other.hash_units);
  addSaturating(tables, other.tables);
  addSaturating(gateways, other.gateways);
  addSaturating(special_fns, other.special_fns);
  addSaturating(sram_bits, other.sram_bits);
  addSaturating(tcam_bits, other.tcam_bits);
  addSaturating(micro_instrs, other.micro_instrs);
  addSaturating(dsps, other.dsps);
  addSaturating(luts, other.luts);
  addSaturating(ffs, other.ffs);
}

bool ResourceDemand::fitsWithin(const ResourceDemand& budget) const {
  return salus <= budget.salus && alus <= budget.alus &&
         hash_units <= budget.hash_units && tables <= budget.tables &&
         gateways <= budget.gateways && special_fns <= budget.special_fns &&
         sram_bits <= budget.sram_bits && tcam_bits <= budget.tcam_bits &&
         micro_instrs <= budget.micro_instrs && dsps <= budget.dsps &&
         luts <= budget.luts && ffs <= budget.ffs;
}

ResourceDemand instrDemand(const ir::Instruction& ins) {
  ResourceDemand d;
  const int width = ins.dest.width > 0 ? ins.dest.width : 32;
  switch (ins.cls()) {
    case InstrClass::kBIN:
      d.alus = 1;
      d.micro_instrs = 1;
      d.luts = static_cast<std::uint64_t>(2 * width);
      break;
    case InstrClass::kBIC:
      d.alus = 1;
      d.micro_instrs = 4;
      d.dsps = 1;
      d.luts = static_cast<std::uint64_t>(4 * width);
      break;
    case InstrClass::kBCA:
      d.micro_instrs = 12;
      d.dsps = 2;
      d.luts = static_cast<std::uint64_t>(8 * width);
      break;
    case InstrClass::kBSO:
      d.salus = 1;
      d.hash_units = 1;  // register index distribution
      d.micro_instrs = 3;
      d.luts = static_cast<std::uint64_t>(2 * width);
      break;
    case InstrClass::kBEM:
    case InstrClass::kBSEM:
    case InstrClass::kBDM:
      d.tables = 1;
      d.hash_units = 1;
      d.micro_instrs = 4;
      d.luts = 256;
      break;
    case InstrClass::kBNEM:
    case InstrClass::kBSNEM:
      d.tables = 1;
      d.micro_instrs = 6;
      d.luts = 512;
      break;
    case InstrClass::kBBPF:
      d.micro_instrs = 1;
      d.luts = 16;
      break;
    case InstrClass::kBAPF:
      d.special_fns = 1;
      d.micro_instrs = 2;
      d.luts = 64;
      break;
    case InstrClass::kBAF:
      d.hash_units = 1;
      d.micro_instrs = 3;
      d.luts = 128;
      break;
    case InstrClass::kBCF:
      d.micro_instrs = 24;
      d.dsps = 4;
      d.luts = 2048;
      break;
  }
  if (ins.hasPred()) d.gateways = 1;
  d.ffs = static_cast<std::uint64_t>(width);
  return d;
}

ResourceDemand stateDemand(const ir::StateObject& st) {
  ResourceDemand d;
  switch (st.kind) {
    case ir::StateKind::kRegister:
    case ir::StateKind::kDirectTable:
      d.sram_bits = st.depth * static_cast<std::uint64_t>(st.value_width);
      break;
    case ir::StateKind::kExactTable:
      // 90% SRAM utilization slack for hash-conflict resolution (Eq. 11).
      d.sram_bits = st.depth *
                    static_cast<std::uint64_t>(st.key_width + st.value_width) *
                    10 / 9;
      break;
    case ir::StateKind::kTernaryTable:
    case ir::StateKind::kLpmTable:
      d.tcam_bits = st.depth * static_cast<std::uint64_t>(st.key_width);
      d.sram_bits = st.depth * static_cast<std::uint64_t>(st.value_width);
      break;
  }
  return d;
}

ResourceDemand demandOfInstrs(const ir::IrProgram& prog,
                              const std::vector<int>& instr_idxs) {
  ResourceDemand total;
  std::set<int> states_seen;
  for (int i : instr_idxs) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    total.add(instrDemand(ins));
    if (ins.state_id >= 0 && states_seen.insert(ins.state_id).second) {
      total.add(stateDemand(
          prog.states[static_cast<std::size_t>(ins.state_id)]));
    }
  }
  return total;
}

}  // namespace clickinc::device
