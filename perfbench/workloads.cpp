#include "workloads.hpp"

#include <fstream>
#include <functional>
#include <sstream>

#include "bdd/symbolic.hpp"
#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/state_graph.hpp"
#include "stg/parser.hpp"
#include "stg/writer.hpp"
#include "svc/json.hpp"
#include "util/common.hpp"

namespace perfbench {

namespace {

using mps::svc::Json;
using mps::util::Error;

struct SpecMaker {
  std::string name;
  std::function<mps::stg::Stg()> make;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::int64_t require_int(const Json& obj, const char* key, const std::string& where) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_number()) throw Error(where + ": missing number '" + key + "'");
  return v->as_int();
}

/// The generated specs use mps_synth --gen naming: family + n.
SpecMaker gen(const std::string& family, int n) {
  const std::string name = family + std::to_string(n);
  if (family == "pipeline") return {name, [=] { return mps::benchmarks::gen_pipeline(name, n); }};
  if (family == "sequencer") return {name, [=] { return mps::benchmarks::gen_sequencer(name, n); }};
  return {name, [=] { return mps::benchmarks::gen_parallelizer(name, n); }};
}

std::vector<SpecMaker> specs_of(const std::string& workload) {
  if (workload == "table1") {
    std::vector<SpecMaker> out;
    for (const auto& b : mps::benchmarks::table1_benchmarks()) out.push_back({b.name, b.make});
    return out;
  }
  if (workload == "pipeline") {
    return {gen("pipeline", 4), gen("pipeline", 5), gen("parallelizer", 4)};
  }
  if (workload == "sequencer") return {gen("sequencer", 24), gen("sequencer", 32)};
  if (workload == "symbolic") {
    return {gen("pipeline", 14), gen("pipeline", 18), gen("parallelizer", 6)};
  }
  throw Error("unknown workload: " + workload);
}

/// table1: the modular rows of the committed BENCH_table1.json.
void attach_table1_answers(const std::string& root, Workload* w) {
  const Json doc = Json::parse(read_file(root + "/BENCH_table1.json"));
  if (doc.get_string("engine", "") != "dpll") throw Error("BENCH_table1.json: engine is not dpll");
  const Json* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) throw Error("BENCH_table1.json: no rows");
  for (Job& job : w->jobs) {
    const Json* row = nullptr;
    for (const Json& r : rows->items()) {
      if (r.get_string("bench", "") == job.name && r.get_string("method", "") == "modular") {
        row = &r;
      }
    }
    const std::string where = "BENCH_table1.json row " + job.name;
    if (row == nullptr || row->get_string("outcome", "") != "ok") {
      throw Error(where + ": no modular row with outcome ok");
    }
    job.synth.final_states = require_int(*row, "states", where);
    job.synth.final_signals = require_int(*row, "signals", where);
    job.synth.literals = require_int(*row, "literals", where);
    job.synth.gates = require_int(*row, "gates", where);
    job.synth.transistors = require_int(*row, "transistors", where);
  }
}

/// The generated workloads: perfbench/expected.json, keyed by workload and
/// job name.
void attach_expected_answers(const std::string& root, Workload* w) {
  const std::string path = root + "/perfbench/expected.json";
  const Json doc = Json::parse(read_file(path));
  const Json* table = doc.find(w->name);
  if (table == nullptr || !table->is_object()) throw Error(path + ": no entry for " + w->name);
  for (Job& job : w->jobs) {
    const Json* e = table->find(job.name);
    const std::string where = path + " " + w->name + "/" + job.name;
    if (e == nullptr || !e->is_object()) throw Error(where + ": missing");
    if (w->symbolic) {
      const Json* states = e->find("states");
      if (states == nullptr || !states->is_number()) throw Error(where + ": missing states");
      job.symbolic.states = states->as_double();
      job.symbolic.csc_holds = e->get_bool("csc_holds", false);
      job.symbolic.csc_conflicts = require_int(*e, "csc_conflicts", where);
    } else {
      job.synth.final_states = require_int(*e, "final_states", where);
      job.synth.final_signals = require_int(*e, "final_signals", where);
      job.synth.literals = require_int(*e, "literals", where);
      job.synth.gates = require_int(*e, "gates", where);
      job.synth.transistors = require_int(*e, "transistors", where);
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1", "pipeline", "sequencer", "symbolic"};
  return names;
}

Workload make_workload(const std::string& name, const std::string& root) {
  Workload w;
  w.name = name;
  w.symbolic = name == "symbolic";
  // table1 is the paper's configuration (bench/table1: DPLL, one thread);
  // the generated families run CDCL, because DPLL blows up on sequencers
  // (README.md).  Every workload runs one thread, so the job's CPU time is
  // its work and not the scheduling of a shared host.
  w.opts = mps::svc::default_request_options("modular");
  mps::svc::set_engine(&w.opts, name == "table1" ? mps::sat::Engine::Dpll : mps::sat::Engine::Cdcl);
  w.opts.threads = 1;

  for (const SpecMaker& m : specs_of(name)) {
    Job job;
    job.name = m.name;
    job.g_text = mps::stg::write_g(m.make());
    // Warm-up and a round-trip check: the job parses exactly this text.
    const mps::stg::Stg parsed = mps::stg::parse_g(job.g_text);
    if (parsed.name() != job.name) throw Error("round trip renamed " + job.name);
    if (!w.symbolic) {
      const auto g = mps::sg::StateGraph::from_stg(parsed);
      job.synth.spec_semi_modular = mps::sg::semi_modularity_violations(g).empty();
    }
    w.jobs.push_back(std::move(job));
  }
  if (name == "table1") {
    attach_table1_answers(root, &w);
  } else {
    attach_expected_answers(root, &w);
  }
  return w;
}

std::vector<std::string> symbolic_cross_check() {
  std::vector<std::string> mismatches;
  for (const SpecMaker& m : {gen("parallelizer", 6), gen("pipeline", 10)}) {
    const mps::stg::Stg spec = m.make();
    const auto g = mps::sg::StateGraph::from_stg(spec);
    const bool explicit_holds = mps::sg::analyze_csc(g).satisfied();
    mps::bdd::SymbolicStg sym(spec);
    const double states = sym.num_states();
    const bool symbolic_holds = sym.check_csc().holds;
    if (states != static_cast<double>(g.num_states())) {
      mismatches.push_back(m.name + ": symbolic " + std::to_string(states) + " states, explicit " +
                       std::to_string(g.num_states()));
    }
    if (symbolic_holds != explicit_holds) {
      mismatches.push_back(m.name + ": symbolic and explicit CSC verdicts differ");
    }
  }
  return mismatches;
}

}  // namespace perfbench
