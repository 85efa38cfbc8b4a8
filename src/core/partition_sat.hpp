// partition_sat (Figure 4): satisfy the module's CSC constraints by SAT,
// starting from the lower bound on new state signals and adding one signal
// at a time until the formula is satisfiable.
#pragma once

#include <string>
#include <vector>

#include "core/module_graph.hpp"
#include "encoding/csc_sat.hpp"
#include "sat/solver.hpp"

namespace mps::core {

/// Size and solve statistics of one SAT attempt (reported in Table 1 /
/// the clause-count bench).
struct FormulaStat {
  std::size_t num_new_signals = 0;
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  sat::Outcome outcome = sat::Outcome::Unsat;
  double seconds = 0.0;
  /// Search effort (zero when the BDD path solved the formula first).
  /// `backtracks` counts chronological backtracks (DPLL) or backjumps
  /// (CDCL); `conflicts` is the engine-independent effort measure the
  /// solver totals aggregate.
  std::int64_t backtracks = 0;
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t restarts = 0;
  std::int64_t learned = 0;
};

struct PartitionSatOptions {
  encoding::EncodeOptions encode;
  /// Module formulas are tiny, but pathological UNSAT escalations exist;
  /// a backtrack cap keeps a single module from stalling the flow (the
  /// rescue path then finishes the job on the complete graph).
  sat::SolveOptions solve{.max_backtracks = 150'000, .time_limit_s = 5.0};
  /// Solve module formulas by BDD characteristic functions first (the
  /// paper's ref. [19] divide-and-conquer follow-up); falls back to DPLL
  /// when the BDD blows past its node cap.
  bool use_bdd = false;
  std::size_t max_new_signals = 10;
  /// Start the signal-count loop at the module's lower bound (Figure 4);
  /// off = always start at 1 (ablation knob).
  bool seed_lower_bound = true;
};

struct PartitionSatResult {
  bool success = false;
  /// New signals' assignments on the *module* states.
  sg::Assignments module_assignments;
  std::vector<FormulaStat> formulas;
};

PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts = {});

/// propagate (Figure 5): copy the module's new-signal values to every
/// complete-graph state through the cover map, appending to `global`.
void propagate(const ModuleGraph& module, const sg::Assignments& module_assignments,
               sg::Assignments* global, std::size_t name_offset = 0);

}  // namespace mps::core
