// Instruction block DAG construction (paper §5.2, Algorithm 3,
// Appendix B.1).
//
// Blocks are the placement unit: state-sharing instructions are grouped
// into one inseparable block (Lemma B.2), dependency cycles are merged via
// SCC condensation, Kahn partitioning levels the DAG, and same-type blocks
// are compacted within and across adjacent levels under a size threshold.
// The resulting blocks are kept in a topological linearization; placement
// assigns contiguous segments of that order to devices along a path.
#pragma once

#include <vector>

#include "device/demand.h"
#include "ir/analysis.h"
#include "ir/program.h"

namespace clickinc::place {

struct Block {
  int id = -1;
  std::vector<int> instrs;       // program-order instruction indices
  ir::ClassMask classes = 0;     // union of member instruction classes
  device::ResourceDemand demand; // includes referenced states (once)
  std::vector<int> deps;         // block ids this block depends on
  int level = 0;                 // Kahn partition index
  bool stateful = false;         // touches data-plane-writable state
};

struct BlockDagOptions {
  bool merge = true;          // Algorithm 3 steps 2-3 (ablation toggle)
  int max_block_instrs = 8;   // block size threshold (device capability)
};

class BlockDag {
 public:
  static BlockDag build(const ir::IrProgram& prog,
                        const BlockDagOptions& opts = {});

  const ir::IrProgram& prog() const { return *prog_; }
  // Dependency graph and SCCs of prog(), built once by build().
  const ir::Analysis& analysis() const { return analysis_; }
  const std::vector<Block>& blocks() const { return blocks_; }
  int size() const { return static_cast<int>(blocks_.size()); }

  // Instruction indices of the contiguous block range [from, to).
  std::vector<int> instrsOf(int from, int to) const;

  // Param bits crossing the boundary before block i (temporaries defined in
  // blocks [0, i) and used in blocks [i, n)); cutBits(0) == cutBits(n) == 0.
  int cutBits(int i) const;

  // Scalar resource score of a block range (for the h_r normalization).
  double scoreOf(int from, int to) const;

  // Whether any block in [from, to) touches data-plane-writable state.
  // Such segments may only sit on devices seeing *all* of the program's
  // traffic: replicating an aggregator/cache onto a partial-traffic leaf
  // would break cross-path semantics (Lemma B.2's no-duplication rule).
  bool statefulIn(int from, int to) const;
  double totalScore() const;

 private:
  const ir::IrProgram* prog_ = nullptr;
  ir::Analysis analysis_;
  std::vector<Block> blocks_;       // topological order
  std::vector<int> cut_bits_;       // size() + 1 entries
  std::vector<double> prefix_score_;

  void finalize();
};

// Scalar resource score used to normalize h_r: memory-dominant with a
// compute term, mirroring DeviceModel::capacityScore units.
double demandScore(const device::ResourceDemand& d);

}  // namespace clickinc::place
