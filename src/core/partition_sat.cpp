#include "core/partition_sat.hpp"

#include <algorithm>

#include "bdd/csc_bdd.hpp"
#include "util/common.hpp"

namespace mps::core {

PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts) {
  PartitionSatResult result;
  result.module_assignments = sg::Assignments(module.proj.graph.num_states());
  if (module.conflicts.empty()) {
    result.success = true;  // nothing to resolve for this output
    return result;
  }

  std::size_t m = opts.seed_lower_bound
                      ? static_cast<std::size_t>(std::max(1, module.lower_bound))
                      : 1;
  for (; m <= opts.max_new_signals; ++m) {
    const encoding::Encoding enc(module.proj.graph, m, module.conflicts,
                                 module.compatible_pairs, opts.encode);

    FormulaStat stat;
    stat.num_new_signals = m;
    stat.num_vars = enc.cnf().num_vars();
    stat.num_clauses = enc.cnf().num_clauses();

    sat::Model model;
    bool sat_found = false;
    bool bdd_proved_unsat = false;
    util::Timer timer;
    if (opts.use_bdd) {
      try {
        if (const auto m_bdd = bdd::solve_cnf_bdd(enc.cnf()); m_bdd.has_value()) {
          model = *m_bdd;
          sat_found = true;
        } else {
          bdd_proved_unsat = true;
        }
      } catch (const util::LimitError&) {
        // BDD blow-up: fall through to the search-based solvers.
      }
    }
    if (!sat_found && !bdd_proved_unsat) {
      sat::SolveStats sstats;
      const sat::Outcome outcome =
          sat::Solver().solve(enc.cnf(), &model, &sstats, opts.solve);
      stat.outcome = outcome;
      stat.backtracks = sstats.backtracks;
      stat.conflicts = sstats.conflicts;
      stat.decisions = sstats.decisions;
      stat.propagations = sstats.propagations;
      stat.restarts = sstats.restarts;
      stat.learned = sstats.learned;
      sat_found = outcome == sat::Outcome::Sat;
      // On Outcome::Limit fall through: treat like Unsat and escalate m —
      // a larger signal count often has easy solutions where the smaller
      // formula was a hard (likely unsatisfiable) instance.
    } else {
      stat.outcome = sat_found ? sat::Outcome::Sat : sat::Outcome::Unsat;
    }
    stat.seconds = timer.seconds();
    result.formulas.push_back(stat);

    if (sat_found) {
      sg::Assignments decoded(module.proj.graph.num_states());
      enc.decode(model, &decoded, name_prefix);
      // A constant signal separates nothing: the bound overshot; drop it.
      for (std::size_t k = 0; k < decoded.num_signals(); ++k) {
        const auto& vals = decoded.values(k);
        bool constant = true;
        for (const sg::V4 v : vals) {
          if (v != vals.front()) {
            constant = false;
            break;
          }
        }
        if (!constant) {
          result.module_assignments.add_signal(decoded.name(k),
                                               std::vector<sg::V4>(vals));
        }
      }
      result.success = true;
      return result;
    }
    // UNSAT with m signals: add a state signal (Figure 4 while-loop).
  }
  return result;
}

void propagate(const ModuleGraph& module, const sg::Assignments& module_assignments,
               sg::Assignments* global, std::size_t name_offset) {
  const auto& cover = module.proj.state_map;
  MPS_ASSERT(cover.size() == global->num_states());
  for (std::size_t k = 0; k < module_assignments.num_signals(); ++k) {
    std::vector<sg::V4> values(global->num_states());
    for (sg::StateId s = 0; s < global->num_states(); ++s) {
      values[s] = module_assignments.value(k, cover[s]);
    }
    // Globally unique name: per-module names could collide across modules.
    global->add_signal("csc" + std::to_string(name_offset + global->num_signals()),
                       std::move(values));
  }
}

}  // namespace mps::core
