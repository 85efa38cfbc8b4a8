// Ablations over the design choices DESIGN.md calls out:
//   1. input-set hiding order (Figure 2 leaves it unspecified),
//   2. lower-bound seeding of the signal-count loop (Figure 4),
//   3. input properness (not in the paper's constraint set; see DESIGN.md),
//   4. DPLL vs the BDD characteristic function in partition_sat,
//   5. naive vs Tseitin separation encoding.
// Each variant runs the modular flow over a fixed benchmark set and prints
// inserted signals / final states / area / time.
#include <cstdio>
#include <vector>

#include "mps.hpp"

namespace {

using namespace mps;

const std::vector<const char*> kSet = {"nouse",  "wrdata",         "pa",
                                       "atod",   "alloc-outbound", "nak-pa",
                                       "mmu1",   "sbuf-ram-write", "mmu0"};

struct Totals {
  std::size_t added_signals = 0;
  std::size_t final_states = 0;
  std::size_t literals = 0;
  double seconds = 0.0;
  int failures = 0;
};

Totals run(const core::SynthesisOptions& opts) {
  Totals t;
  for (const char* name : kSet) {
    const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
    const auto r = core::modular_synthesis(g, opts);
    if (!r.success) {
      ++t.failures;
      continue;
    }
    t.added_signals += r.final_signals - r.initial_signals;
    t.final_states += r.final_states;
    t.literals += r.total_literals;
    t.seconds += r.seconds;
  }
  return t;
}

void report(const char* label, const Totals& t) {
  std::printf("%-34s  +signals %3zu  states %6zu  literals %5zu  time %6.2fs  fail %d\n",
              label, t.added_signals, t.final_states, t.literals, t.seconds, t.failures);
}

}  // namespace

int main() {
  std::printf("Ablations over %zu benchmarks (totals across the set)\n\n", kSet.size());

  {
    std::printf("-- input-set hiding order (Fig. 2 greedy) --\n");
    for (const auto& [order, label] :
         {std::pair{core::InputSetOptions::Order::SignalId, "signal-id order (default)"},
          std::pair{core::InputSetOptions::Order::FewestEdgesFirst, "fewest-edges first"},
          std::pair{core::InputSetOptions::Order::MostEdgesFirst, "most-edges first"}}) {
      core::SynthesisOptions opts;
      opts.input_set.order = order;
      report(label, run(opts));
    }
  }
  {
    std::printf("\n-- lower-bound seeding of the m loop (Fig. 4) --\n");
    core::SynthesisOptions with;
    report("start at lower bound (default)", run(with));
    core::SynthesisOptions without;
    without.sat.seed_lower_bound = false;
    report("always start at m = 1", run(without));
  }
  {
    std::printf("\n-- input properness (extra constraint, not in the paper) --\n");
    core::SynthesisOptions off;
    report("off (paper-faithful, default)", run(off));
    core::SynthesisOptions on;
    on.sat.encode.input_properness = true;
    report("on (inputs never delayed)", run(on));
  }
  {
    std::printf("\n-- SAT back end for the module formulas --\n");
    core::SynthesisOptions dpll;
    report("DPLL only (default)", run(dpll));
    core::SynthesisOptions bdd;
    bdd.sat.use_bdd = true;
    report("BDD characteristic function [19]", run(bdd));
  }
  {
    std::printf("\n-- separation clause encoding --\n");
    core::SynthesisOptions naive;
    naive.sat.encode.naive_max_m = 10;
    report("naive 4^m expansion", run(naive));
    core::SynthesisOptions tseitin;
    tseitin.sat.encode.naive_max_m = 0;
    report("Tseitin auxiliaries", run(tseitin));
  }
  std::printf("\nNotes: 'input properness on' may fail on specifications whose only\n");
  std::printf("insertion points sit on input edges; the count appears under 'fail'.\n");
  return 0;
}
