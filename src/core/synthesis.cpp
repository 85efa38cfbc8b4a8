#include "core/synthesis.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "logic/extract.hpp"
#include "obs/obs.hpp"
#include "sg/csc.hpp"
#include "sg/projection.hpp"
#include "util/common.hpp"
#include "util/text.hpp"
#include "util/thread_pool.hpp"

namespace mps::core {

namespace {

bool has_silent_edges(const sg::StateGraph& g) {
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent()) return true;
    }
  }
  return false;
}

/// Rescue path: when every per-output module reports no conflicts but the
/// complete graph still violates CSC (conflicting states merged away by
/// the projections), fall back to a direct encoding of the remaining
/// conflicts on the complete graph.
bool rescue_direct(const sg::StateGraph& g, const PartitionSatOptions& opts,
                   sg::Assignments* assigns, std::vector<FormulaStat>* formulas) {
  obs::Span span("synth.rescue");
  const auto analysis = sg::analyze_csc(g, assigns->empty() ? nullptr : assigns);
  if (analysis.satisfied()) return true;
  std::size_t m = static_cast<std::size_t>(std::max(1, analysis.lower_bound));
  for (; m <= opts.max_new_signals; ++m) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs,
                                 opts.encode);
    FormulaStat stat;
    stat.num_new_signals = m;
    stat.num_vars = enc.cnf().num_vars();
    stat.num_clauses = enc.cnf().num_clauses();
    util::Timer timer;
    sat::Model model;
    sat::SolveStats sstats;
    const sat::Outcome outcome = sat::Solver().solve(enc.cnf(), &model, &sstats, opts.solve);
    stat.outcome = outcome;
    stat.backtracks = sstats.backtracks;
    stat.conflicts = sstats.conflicts;
    stat.decisions = sstats.decisions;
    stat.propagations = sstats.propagations;
    stat.restarts = sstats.restarts;
    stat.learned = sstats.learned;
    stat.seconds = timer.seconds();
    formulas->push_back(stat);
    if (outcome == sat::Outcome::Sat) {
      sg::Assignments fresh(g.num_states());
      enc.decode(model, &fresh, "rescue");
      for (std::size_t k = 0; k < fresh.num_signals(); ++k) {
        std::vector<sg::V4> values(fresh.values(k));
        assigns->add_signal("csc" + std::to_string(g.num_signals() + assigns->num_signals()),
                            std::move(values));
      }
      return true;
    }
    if (outcome == sat::Outcome::Limit) return false;
  }
  return false;
}

/// One per-output unit of a synthesis round: everything up to — but not
/// including — the sequential merge/propagate step.
struct ModuleWork {
  ModuleGraph module;
  ModuleReport report;
  PartitionSatResult psr;
  bool inserts = false;  ///< solved its conflicts and produced new signals
};

/// Compute the module of output `o` against a fixed snapshot of the
/// accumulated state-signal assignments.  Pure w.r.t. shared state, so any
/// number of these can run concurrently; `cancel` lets the merge logic stop
/// a solve whose result is already known to be stale.
void compute_module(const sg::StateGraph& g, sg::SignalId o, const sg::Assignments& snapshot,
                    const SynthesisOptions& opts, int round,
                    std::chrono::steady_clock::time_point deadline,
                    const std::atomic<bool>* cancel, ModuleWork* w) {
  util::Timer timer;
  // Runs on whichever pool thread claimed this output, so module spans are
  // what makes per-wave speculation (and its waste) visible in the trace.
  obs::Span span("synth.module", g.signal(o).name);
  span.arg("round", round);
  const InputSetResult isr = determine_input_set(g, o, snapshot, opts.input_set);
  w->module = build_module(g, o, isr, snapshot);

  w->report.output = g.signal(o).name;
  w->report.round = round;
  w->report.input_set_size = isr.kept.count() - 1;  // excluding o itself
  w->report.module_states = w->module.proj.graph.num_states();
  w->report.module_conflicts = w->module.conflicts.size();

  if (!w->module.conflicts.empty()) {
    PartitionSatOptions sat_opts = opts.sat;
    sat_opts.solve.interrupt = cancel;
    sat_opts.solve.deadline = deadline;
    w->psr = partition_sat(w->module, "m", sat_opts);
    w->inserts = w->psr.success && w->psr.module_assignments.num_signals() > 0;
  }
  w->report.seconds = timer.seconds();
  span.arg("module_states", static_cast<std::int64_t>(w->report.module_states));
  span.arg("conflicts", static_cast<std::int64_t>(w->report.module_conflicts));
  span.arg("inserts", w->inserts ? 1 : 0);
}

}  // namespace

std::size_t derive_all_logic(const sg::StateGraph& g, const logic::MinimizeOptions& opts,
                             std::vector<std::pair<std::string, logic::Cover>>* covers) {
  std::size_t total = 0;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const logic::SopSpec spec = logic::extract_next_state(g, s);
    logic::Cover cover = logic::minimize(spec, opts);
    total += cover.literal_count();
    if (covers != nullptr) covers->emplace_back(g.signal(s).name, std::move(cover));
  }
  return total;
}

SynthesisResult modular_synthesis(const sg::StateGraph& input, const SynthesisOptions& opts) {
  util::Timer timer;
  obs::Span synth_span("synth.modular");
  SynthesisResult result;

  sg::StateGraph g = has_silent_edges(input) ? sg::contract_silent(input) : input;
  result.initial_states = g.num_states();
  result.initial_signals = g.num_signals();

  util::ThreadPool pool(opts.num_threads == 0 ? util::ThreadPool::hardware_threads()
                                              : opts.num_threads);

  bool failed = false;
  for (int round = 1; round <= opts.max_rounds; ++round) {
    // Deadline first: an already-expired request must fail fast even when
    // the spec happens to be conflict-free (the service layer relies on
    // this to bound per-request work).
    if (opts.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= opts.deadline) {
      result.failure_reason = "deadline exceeded";
      failed = true;
      break;
    }
    if (sg::analyze_csc(g).satisfied()) break;
    result.rounds = round;

    std::chrono::steady_clock::time_point deadline = opts.deadline;
    if (opts.round_time_limit_s > 0) {
      const auto round_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opts.round_time_limit_s));
      if (deadline == std::chrono::steady_clock::time_point{} || round_deadline < deadline) {
        deadline = round_deadline;
      }
    }

    sg::Assignments assigns(g.num_states());

    std::vector<sg::SignalId> outputs;
    for (sg::SignalId o = 0; o < g.num_signals(); ++o) {
      if (!g.is_input(o)) outputs.push_back(o);
    }

    // Figure 6 main loop: one module per output signal.  Modules are
    // independent given a fixed set of already-inserted signals, so each
    // *wave* solves all still-pending outputs concurrently against a
    // snapshot of `assigns`.  The serial flow lets output k see the signals
    // outputs < k inserted this round; to stay bit-identical the wave only
    // adopts results up to and including the first output that inserts
    // signals — later speculations were computed against a stale snapshot,
    // so they are cancelled and recomputed in the next wave.  Outputs that
    // insert nothing are unaffected by the snapshot, hence most rounds
    // finish in (#inserting outputs + 1) waves.
    std::size_t done = 0;
    int wave_no = 0;
    while (done < outputs.size()) {
      const std::size_t wave = outputs.size() - done;
      obs::Span wave_span("synth.wave");
      wave_span.arg("round", round);
      wave_span.arg("wave", ++wave_no);
      wave_span.arg("size", static_cast<std::int64_t>(wave));
      const sg::Assignments snapshot = assigns;
      std::vector<ModuleWork> work(wave);
      std::vector<std::atomic<bool>> cancel(wave);
      std::atomic<std::size_t> first_insert{wave};

      pool.parallel_for(wave, [&](std::size_t i) {
        if (cancel[i].load(std::memory_order_relaxed)) return;  // stale speculation
        compute_module(g, outputs[done + i], snapshot, opts, round, deadline, &cancel[i],
                       &work[i]);
        if (!work[i].inserts) return;
        std::size_t cur = first_insert.load(std::memory_order_relaxed);
        while (i < cur && !first_insert.compare_exchange_weak(cur, i)) {
        }
        // Every module past the earliest inserter is stale; stop its solve.
        for (std::size_t j = first_insert.load(std::memory_order_relaxed) + 1; j < wave;
             ++j) {
          cancel[j].store(true, std::memory_order_relaxed);
        }
      });

      // Sequential merge in output order (identical to the serial flow).
      const std::size_t adopt = std::min(first_insert.load() + 1, wave);
      wave_span.arg("adopted", static_cast<std::int64_t>(adopt));
      for (std::size_t i = 0; i < adopt; ++i) {
        ModuleWork& w = work[i];
        if (!w.module.conflicts.empty()) {
          w.report.formulas = w.psr.formulas;
          if (w.psr.success) {
            w.report.new_signals = w.psr.module_assignments.num_signals();
            propagate(w.module, w.psr.module_assignments, &assigns,
                      /*name_offset=*/g.num_signals());
          } else {
            result.failure_reason =
                "partition SAT hit its limit for output " + w.report.output;
          }
        }
        result.modules.push_back(std::move(w.report));
      }
      done += adopt;
    }

    if (assigns.empty()) {
      // No module saw a conflict, yet the complete graph has some:
      // projections can merge conflicting states (§3.4 worst case).
      ModuleReport report;
      report.output = "(rescue: complete graph)";
      report.round = round;
      report.module_states = g.num_states();
      PartitionSatOptions rescue_opts = opts.sat;
      rescue_opts.solve.deadline = deadline;
      const bool ok = rescue_direct(g, rescue_opts, &assigns, &report.formulas);
      report.new_signals = assigns.num_signals();
      report.module_conflicts = sg::analyze_csc(g).conflicts.size();
      result.modules.push_back(std::move(report));
      if (!ok || assigns.empty()) {
        if (result.failure_reason.empty()) {
          result.failure_reason = "unable to resolve residual CSC conflicts";
        }
        failed = true;
        break;
      }
    }

    const sg::Expansion ex = sg::expand(g, assigns);
    g = ex.graph;
  }

  const auto final_analysis = sg::analyze_csc(g);
  result.success = !failed && final_analysis.satisfied();
  if (result.success) result.failure_reason.clear();  // transient module limits recovered
  if (!result.success && result.failure_reason.empty()) {
    result.failure_reason = "CSC conflicts remain after " + std::to_string(opts.max_rounds) +
                            " rounds";
  }

  result.final_states = g.num_states();
  result.final_signals = g.num_signals();
  result.final_graph = std::move(g);

  if (result.success && opts.derive_logic) {
    result.total_literals =
        derive_all_logic(result.final_graph, opts.minimize, &result.covers);
  }
  for (const ModuleReport& m : result.modules) {
    for (const FormulaStat& f : m.formulas) {
      result.solver_totals.decisions += f.decisions;
      result.solver_totals.propagations += f.propagations;
      // Bugfix: this summed f.backtracks, which silently undercounts the
      // moment an engine stops backtracking once per conflict (CDCL's
      // non-chronological backjumps).
      result.solver_totals.conflicts += f.conflicts;
      result.solver_totals.restarts += f.restarts;
      result.solver_totals.learned += f.learned;
    }
  }
  result.seconds = timer.seconds();
  synth_span.arg("rounds", result.rounds);
  synth_span.arg("final_states", static_cast<std::int64_t>(result.final_states));
  synth_span.arg("decisions", result.solver_totals.decisions);
  synth_span.arg("success", result.success ? 1 : 0);
  return result;
}

SynthesisResult modular_synthesis(const stg::Stg& stg, const SynthesisOptions& opts) {
  return modular_synthesis(sg::StateGraph::from_stg(stg, opts.build), opts);
}

std::string options_fingerprint(const SynthesisOptions& opts) {
  // One key=value token per result-affecting field, ';'-joined, with a
  // leading version token.  Doubles are rendered with %.17g (round-trip
  // exact), enums as their integer value.
  return util::format(
      "core-v3;order=%d;input_properness=%d;naive_max_m=%zu;enforce_usc=%d;"
      "engine=%d;"
      "max_backtracks=%lld;solve_time_limit_s=%.17g;restart_interval=%lld;seed=%llu;"
      "use_bdd=%d;max_new_signals=%zu;seed_lower_bound=%d;"
      "try_exact=%d;exact_max_vars=%zu;exact_max_primes=%zu;exact_max_branch_nodes=%lld;"
      "heuristic_loops=%d;max_states=%zu;require_safe=%d;max_rounds=%d;derive_logic=%d;"
      "round_time_limit_s=%.17g",
      static_cast<int>(opts.input_set.order), opts.sat.encode.input_properness ? 1 : 0,
      opts.sat.encode.naive_max_m, opts.sat.encode.enforce_usc ? 1 : 0,
      static_cast<int>(opts.sat.solve.engine),
      static_cast<long long>(opts.sat.solve.max_backtracks), opts.sat.solve.time_limit_s,
      static_cast<long long>(opts.sat.solve.restart_interval),
      static_cast<unsigned long long>(opts.sat.solve.seed),
      opts.sat.use_bdd ? 1 : 0, opts.sat.max_new_signals, opts.sat.seed_lower_bound ? 1 : 0,
      opts.minimize.try_exact ? 1 : 0, opts.minimize.exact_max_vars, opts.minimize.exact_max_primes,
      static_cast<long long>(opts.minimize.exact_max_branch_nodes),
      opts.minimize.heuristic_loops, opts.build.max_states, opts.build.require_safe ? 1 : 0,
      opts.max_rounds, opts.derive_logic ? 1 : 0, opts.round_time_limit_s);
}

}  // namespace mps::core
