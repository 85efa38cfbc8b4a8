#include "jobs.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "bdd/symbolic.hpp"
#include "calibrate.hpp"
#include "core/synthesis.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "netlist/build.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verify_si.hpp"
#include "netlist/verilog.hpp"
#include "sg/state_graph.hpp"
#include "stg/parser.hpp"
#include "util/common.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using mps::svc::Artifact;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void expect_eq(const char* what, std::int64_t expected, std::int64_t got,
               std::vector<std::string>* failures) {
  if (expected != got) {
    failures->push_back(std::string(what) + ": expected " + std::to_string(expected) + ", got " +
                      std::to_string(got));
  }
}

bool is_semi_modularity_finding(const std::string& finding) {
  return finding.rfind("signal ", 0) == 0 &&
         finding.find(" disabled entering state ") != std::string::npos;
}

/// Known-answer gate for a synthesis job: quality numbers and the verify
/// verdict.  A spec that is not semi-modular itself must fail exactly the
/// semi_modular check and pass every other one.
void check_synth(const Job& job, const Artifact& a, std::vector<std::string>* failures) {
  if (!a.success) {
    failures->push_back("synthesis failed: " + a.failure_reason);
    return;
  }
  const SynthAnswer& want = job.synth;
  expect_eq("final_states", want.final_states, static_cast<std::int64_t>(a.final_states),
            failures);
  expect_eq("final_signals", want.final_signals, static_cast<std::int64_t>(a.final_signals),
            failures);
  expect_eq("literals", want.literals, static_cast<std::int64_t>(a.literals), failures);
  expect_eq("gates", want.gates, static_cast<std::int64_t>(a.gates), failures);
  expect_eq("transistors", want.transistors, static_cast<std::int64_t>(a.transistors),
            failures);
  if (want.spec_semi_modular) {
    if (!a.verify_ok) {
      failures->push_back("verify failed: " + (a.verify_issues.empty() ? std::string("?")
                                                                       : a.verify_issues.front()));
    }
    return;
  }
  if (a.verify_ok) failures->push_back("verify passed a spec that is not semi-modular");
  for (const std::string& finding : a.verify_issues) {
    if (!is_semi_modularity_finding(finding)) {
      failures->push_back("verify: unexpected finding: " + finding);
    }
  }
}

void check_symbolic(const Job& job, double states, const mps::bdd::CscVerdict& v,
                    std::vector<std::string>* failures) {
  const SymbolicAnswer& want = job.symbolic;
  if (states != want.states) {
    failures->push_back("states: expected " + std::to_string(want.states) + ", got " +
                      std::to_string(states));
  }
  if (v.holds != want.csc_holds) failures->push_back("CSC verdict differs from the known answer");
  expect_eq("csc_conflicts", want.csc_conflicts, static_cast<std::int64_t>(v.conflicts.size()),
            failures);
}

void set_synth_repeats(const Artifact& a, JobResult* r) {
  r->repeat["literals"] = static_cast<double>(a.literals);
  r->repeat["final_states"] = static_cast<double>(a.final_states);
  r->repeat["sat.conflicts"] = static_cast<double>(a.solver.conflicts);
}

/// What the traced synthesis layers produce: the inputs of the artifact
/// and of the probes that run after the job.
struct SynthState {
  mps::core::SynthesisResult res;
  std::vector<std::pair<std::string, mps::logic::Cover>> covers;
  std::size_t literals = 0;
  mps::verify::Report report;
  std::optional<mps::netlist::Netlist> netlist;
  std::string verilog;
  std::vector<mps::logic::SopSpec> functions;  ///< only when the exact probe runs
};

/// The layer calls svc::run_synthesis makes for a modular request, one
/// span each.
void traced_synthesis(const Workload& w, const mps::stg::Stg& spec, int job_id, int root,
                      bool keep_functions, Recorder* rec, Counters* c, SynthState* st) {
  mps::sg::StateGraph g;
  {
    Scoped s(*rec, "sg.reach", job_id, root);
    g = mps::sg::StateGraph::from_stg(spec);
  }
  (*c)["sg.initial_states"] += static_cast<double>(g.num_states());

  mps::core::SynthesisOptions mopts = w.opts.modular;
  mopts.num_threads = w.opts.threads;
  mopts.derive_logic = false;
  {
    Scoped s(*rec, "core.insert", job_id, root);
    st->res = mps::core::modular_synthesis(g, mopts);
  }
  const mps::core::SynthesisResult& res = st->res;
  (*c)["core.rounds"] += res.rounds;
  (*c)["core.modules"] += static_cast<double>(res.modules.size());
  for (const mps::core::ModuleReport& m : res.modules) {
    (*c)["core.module_states"] += static_cast<double>(m.module_states);
    for (const mps::core::FormulaStat& f : m.formulas) {
      (*c)["sat.formulas"] += 1;
      (*c)["sat.clauses"] += static_cast<double>(f.num_clauses);
      (*c)["sat.decisions"] += static_cast<double>(f.decisions);
      (*c)["sat.conflicts"] += static_cast<double>(f.conflicts);
      (*c)["sat.limit_hits"] += f.outcome == mps::sat::Outcome::Limit ? 1 : 0;
      (*c)["sat.solve_s"] += f.seconds;
    }
  }
  (*c)["sg.final_states"] += static_cast<double>(res.final_states);
  (*c)["state_signals"] += static_cast<double>(res.final_signals - res.initial_signals);
  if (!res.success) return;

  const mps::sg::StateGraph& fg = res.final_graph;
  for (mps::sg::SignalId sig = 0; sig < fg.num_signals(); ++sig) {
    if (fg.is_input(sig)) continue;
    mps::logic::SopSpec f;
    {
      Scoped s(*rec, "logic.extract", job_id, root);
      f = mps::logic::extract_next_state(fg, sig);
    }
    std::optional<mps::logic::Cover> cover;
    {
      Scoped s(*rec, "logic.minimize", job_id, root);
      cover.emplace(mps::logic::minimize(f, mopts.minimize));
    }
    (*c)["logic.functions"] += 1;
    (*c)["logic.on_minterms"] += static_cast<double>(f.on.size());
    (*c)["logic.off_minterms"] += static_cast<double>(f.off.size());
    (*c)["logic.cubes"] += static_cast<double>(cover->size());
    (*c)["logic.vars_max"] = std::max((*c)["logic.vars_max"], static_cast<double>(f.num_vars));
    st->literals += cover->literal_count();
    st->covers.emplace_back(fg.signal(sig).name, std::move(*cover));
    if (keep_functions) st->functions.push_back(std::move(f));
  }
  (*c)["literals"] += static_cast<double>(st->literals);

  {
    Scoped s(*rec, "verify.check", job_id, root);
    st->report = mps::verify::verify_synthesis(fg, st->covers);
  }
  {
    Scoped s(*rec, "netlist.build", job_id, root);
    try {
      st->netlist.emplace(mps::netlist::build_netlist(fg, st->covers));
      st->verilog = mps::netlist::write_verilog(*st->netlist);
    } catch (const mps::util::Error&) {
      st->netlist.reset();
    }
  }
  if (st->netlist.has_value()) {
    (*c)["netlist.gates"] += static_cast<double>(st->netlist->num_gates());
    (*c)["netlist.transistors"] += static_cast<double>(st->netlist->transistor_estimate());
  }
}

/// Fill the artifact from the layer results the way svc::run_synthesis
/// does (a failed synthesis keeps only the counts).
void fill_artifact(const Workload& w, const SynthState& st, Artifact* a) {
  const mps::core::SynthesisResult& res = st.res;
  a->method = w.opts.method;
  a->success = res.success;
  a->failure_reason = res.failure_reason;
  a->initial_states = res.initial_states;
  a->initial_signals = res.initial_signals;
  a->final_states = res.final_states;
  a->final_signals = res.final_signals;
  a->solver = res.solver_totals;
  a->seconds = res.seconds;
  if (!res.success) return;
  a->literals = st.literals;
  const mps::sg::StateGraph& fg = res.final_graph;
  for (mps::sg::SignalId sig = 0; sig < fg.num_signals(); ++sig) {
    a->signal_names.push_back(fg.signal(sig).name);
    if (sig >= a->initial_signals) a->inserted_signals.push_back(fg.signal(sig).name);
  }
  for (const auto& [output, cover] : st.covers) {
    std::vector<std::string> cubes;
    for (const mps::logic::Cube& cube : cover.cubes()) cubes.push_back(cube.to_string());
    a->covers.emplace_back(output, std::move(cubes));
  }
  a->verify_ok = st.report.ok();
  a->verify_issues = st.report.issues;
  if (st.netlist.has_value()) {
    a->gates = st.netlist->num_gates();
    a->transistors = st.netlist->transistor_estimate();
    a->verilog = st.verilog;
  }
}

/// The exact-path probe: how often production minimize's exact QM path
/// (tried up to exact_max_vars variables) beats the heuristic cover.
void count_exact_wins(const std::vector<mps::logic::SopSpec>& functions,
                      const mps::logic::MinimizeOptions& opts, Counters* c) {
  for (const mps::logic::SopSpec& f : functions) {
    if (!opts.try_exact || f.num_vars > opts.exact_max_vars) continue;
    (*c)["logic.exact_attempts"] += 1;
    const mps::logic::Cover heur = mps::logic::heuristic_minimize(f, opts.heuristic_loops);
    const auto exact = mps::logic::exact_minimize(f, opts);
    if (exact.has_value() && exact->literal_count() < heur.literal_count()) {
      (*c)["logic.exact_wins"] += 1;
    }
  }
}

}  // namespace

JobResult run_job(const Workload& w, const Job& job) {
  JobResult r;
  try {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    if (w.symbolic) {
      double states = 0;
      mps::bdd::CscVerdict verdict;
      {
        // Freeing the manager is part of the job (a large share of it).
        mps::bdd::SymbolicStg sym(mps::stg::parse_g(job.g_text));
        sym.reachable();
        states = sym.num_states();
        verdict = sym.check_csc();
        r.repeat["bdd.nodes"] = static_cast<double>(sym.manager().num_nodes());
      }
      r.seconds = since(t0);
      r.cpu_seconds = process_cpu_seconds() - cpu0;
      check_symbolic(job, states, verdict, &r.failures);
    } else {
      const mps::stg::Stg spec = mps::stg::parse_g(job.g_text);
      Artifact a = mps::svc::run_synthesis(spec, w.opts);
      const std::string bytes = a.serialize();
      r.seconds = since(t0);
      r.cpu_seconds = process_cpu_seconds() - cpu0;
      if (bytes.empty()) r.failures.push_back("empty artifact");
      check_synth(job, a, &r.failures);
      set_synth_repeats(a, &r);
      r.artifact = std::move(a);
    }
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("exception: ") + e.what());
  }
  return r;
}

JobResult run_traced_job(const Workload& w, const Job& job, int job_id, bool exact_probe,
                         Recorder* rec, Counters* counters) {
  JobResult r;
  Counters& c = *counters;
  SynthState st;
  try {
    const Clock::time_point t0 = Clock::now();
    {
      Scoped root(*rec, "job", job_id, -1);
      std::optional<mps::stg::Stg> spec;
      {
        Scoped s(*rec, "stg.parse", job_id, root.id());
        spec.emplace(mps::stg::parse_g(job.g_text));
      }
      if (w.symbolic) {
        std::optional<mps::bdd::SymbolicStg> sym;
        {
          Scoped s(*rec, "bdd.compile", job_id, root.id());
          sym.emplace(std::move(*spec));
        }
        double states = 0;
        {
          Scoped s(*rec, "bdd.reach", job_id, root.id());
          sym->reachable();
          states = sym->num_states();
        }
        mps::bdd::CscVerdict verdict;
        {
          Scoped s(*rec, "bdd.csc", job_id, root.id());
          verdict = sym->check_csc();
        }
        c["bdd.iterations"] += static_cast<double>(sym->num_iterations());
        c["bdd.nodes"] += static_cast<double>(sym->manager().num_nodes());
        c["bdd.states"] += states;
        r.repeat["bdd.nodes"] = static_cast<double>(sym->manager().num_nodes());
        {
          Scoped s(*rec, "bdd.free", job_id, root.id());
          sym.reset();
        }
        check_symbolic(job, states, verdict, &r.failures);
      } else {
        r.artifact.name = spec->name();
        traced_synthesis(w, *spec, job_id, root.id(), exact_probe, rec, &c, &st);
        Scoped s(*rec, "svc.artifact", job_id, root.id());
        fill_artifact(w, st, &r.artifact);
        if (r.artifact.serialize().empty()) r.failures.push_back("empty artifact");
      }
    }
    r.seconds = since(t0);
    if (!w.symbolic) {
      check_synth(job, r.artifact, &r.failures);
      set_synth_repeats(r.artifact, &r);
      std::int64_t cubes = 0;
      for (const auto& entry : r.artifact.covers) {
        cubes += static_cast<std::int64_t>(entry.second.size());
      }
      r.repeat["logic.cubes"] = static_cast<double>(cubes);
    }

    if (st.netlist.has_value()) {
      mps::netlist::SiResult si;
      {
        Scoped s(*rec, "netlist.si", job_id, -1);
        si = mps::netlist::verify_speed_independence(*st.netlist, st.res.final_graph);
      }
      c["netlist.si_states"] += static_cast<double>(si.states_explored);
      r.repeat["netlist.si_states"] = static_cast<double>(si.states_explored);
    }
    if (!st.functions.empty()) {
      Scoped s(*rec, "logic.exact", job_id, -1);
      count_exact_wins(st.functions, w.opts.modular.minimize, &c);
    }
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("exception: ") + e.what());
  }
  return r;
}

std::vector<std::string> compare_results(const JobResult& untraced, const JobResult& traced) {
  std::vector<std::string> diffs;
  const Artifact& u = untraced.artifact;
  const Artifact& t = traced.artifact;
  if (u.covers != t.covers) diffs.push_back("covers differ");
  if (u.literals != t.literals) diffs.push_back("literals differ");
  if (u.gates != t.gates || u.transistors != t.transistors) diffs.push_back("gates differ");
  if (u.verilog != t.verilog) diffs.push_back("netlists differ");
  if (u.verify_ok != t.verify_ok) diffs.push_back("verify verdicts differ");
  for (const auto& [name, value] : untraced.repeat) {
    const auto it = traced.repeat.find(name);
    if (it != traced.repeat.end() && it->second != value) diffs.push_back(name + " differs");
  }
  return diffs;
}

}  // namespace perfbench
