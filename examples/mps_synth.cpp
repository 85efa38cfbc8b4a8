// mps_synth: a command-line synthesis driver — the shape of tool a
// downstream user actually runs.
//
//   mps_synth <spec.g> [options]
//     --method modular|direct|lavagno   (default modular)
//     --engine dpll|cdcl   SAT engine for every formula the method solves
//                          (default dpll, the paper-faithful Table-1
//                          reference; cdcl is the clause-learning engine
//                          that retires the Table-1 LIMIT rows)
//     --out-pla <prefix>   write one PLA per non-input signal to <prefix><name>.pla
//     --out-verilog <file> write the gate-level netlist as structural Verilog
//     --check-circuit      verbose gate-level report: gate/transistor counts and
//                          the speed-independence verifier's verdict (with a
//                          counterexample trace on failure)
//     --csc-check explicit|bdd
//                          analysis mode: skip synthesis, just decide CSC.
//                          'explicit' enumerates the state graph and runs the
//                          token-game analysis; 'bdd' runs the symbolic engine
//                          (partitioned transition relation + BDD reachability,
//                          src/bdd/symbolic.hpp), which never enumerates states
//                          and scales past 10^9 reachable states.  Prints one
//                          summary line; exits 0 whether or not CSC holds (a
//                          violated spec is an answer, not an error)
//     --gen <family:n>     use a generated spec instead of a file/--bench:
//                          pipeline:N, sequencer:N, parallelizer:N, toggle:N
//                          (toggle rings violate CSC by construction)
//     --dimacs <file>      export the direct CSC SAT instance
//     --dump-g <file>      write the input specification back out as .g text
//                          (materializes --bench specs for other tools, e.g.
//                          feeding mps_client the same spec)
//     --trace <file>       write a Chrome trace-event JSON of the run (load in
//                          chrome://tracing or Perfetto; one lane per thread)
//     --stats-json <file>  write aggregate span/counter statistics as JSON
//     --threads N          worker threads for the modular method's module
//                          loop (results are bit-identical for any N)
//     --quiet              only the summary line
//
// With no arguments it synthesizes a built-in demo specification.
//
// Error contract (tested by ctest): every misuse — unreadable file, .g
// parse error, unknown --method/--bench/flag — prints one clear
// diagnostic to stderr and exits nonzero (2 for usage errors, 1 for
// input/verification failures).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "mps.hpp"

namespace {

using namespace mps;

int usage() {
  std::fprintf(stderr,
               "usage: mps_synth <spec.g> [--method modular|direct|lavagno]\n"
               "                 [--engine dpll|cdcl] [--csc-check explicit|bdd]\n"
               "                 [--out-pla <prefix>] [--out-verilog <file>]\n"
               "                 [--check-circuit] [--dimacs <file>] [--dump-g <file>]\n"
               "                 [--quiet] [--trace <file>] [--stats-json <file>]\n"
               "                 [--threads N]\n"
               "       mps_synth --bench <name>   (use a built-in Table-1 benchmark)\n"
               "       mps_synth --gen <family:n> (use a generated spec: pipeline:10,\n"
               "                                   sequencer:8, parallelizer:4, toggle:3)\n");
  return 2;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw util::Error("cannot open " + path + " for writing");
  out << text;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string bench_name;
  std::string gen_spec;
  std::string csc_check;
  std::string method = "modular";
  std::string engine_str = "dpll";
  std::string pla_prefix;
  std::string verilog_path;
  std::string dimacs_path;
  std::string dump_g_path;
  std::string trace_path;
  std::string stats_path;
  unsigned threads = 0;  // 0 = SynthesisOptions default (one per hardware thread)
  bool check_circuit = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--method") {
      const char* v = next();
      if (v == nullptr) return usage();
      method = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return usage();
      engine_str = v;
    } else if (arg == "--bench") {
      const char* v = next();
      if (v == nullptr) return usage();
      bench_name = v;
    } else if (arg == "--gen") {
      const char* v = next();
      if (v == nullptr) return usage();
      gen_spec = v;
    } else if (arg == "--csc-check") {
      const char* v = next();
      if (v == nullptr) return usage();
      csc_check = v;
    } else if (arg == "--out-pla") {
      const char* v = next();
      if (v == nullptr) return usage();
      pla_prefix = v;
    } else if (arg == "--out-verilog") {
      const char* v = next();
      if (v == nullptr) return usage();
      verilog_path = v;
    } else if (arg == "--check-circuit") {
      check_circuit = true;
    } else if (arg == "--dimacs") {
      const char* v = next();
      if (v == nullptr) return usage();
      dimacs_path = v;
    } else if (arg == "--dump-g") {
      const char* v = next();
      if (v == nullptr) return usage();
      dump_g_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_path = v;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      stats_path = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 1, 1 << 16);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --threads expects a positive integer, got '%s'\n", v);
        return 2;
      }
      threads = static_cast<unsigned>(*n);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
      return usage();
    } else {
      spec_path = arg;
    }
  }
  if (method != "modular" && method != "direct" && method != "lavagno") {
    std::fprintf(stderr, "error: unknown --method: %s (expected modular|direct|lavagno)\n",
                 method.c_str());
    return 2;
  }
  const auto engine = sat::engine_from_name(engine_str);
  if (!engine.has_value()) {
    std::fprintf(stderr, "error: unknown --engine: %s (expected dpll|cdcl)\n",
                 engine_str.c_str());
    return 2;
  }
  if (!csc_check.empty() && csc_check != "explicit" && csc_check != "bdd") {
    std::fprintf(stderr, "error: unknown --csc-check engine: %s (expected explicit|bdd)\n",
                 csc_check.c_str());
    return 2;
  }

  if (!trace_path.empty() || !stats_path.empty()) {
    obs::set_enabled(true);  // before any pool/solver work so every span lands
    obs::set_thread_name("main");
  }

  try {
    stg::Stg spec = [&] {
      if (!bench_name.empty()) {
        const auto* b = benchmarks::find_benchmark(bench_name);
        if (b == nullptr) throw util::Error("unknown benchmark: " + bench_name);
        return b->make();
      }
      if (!gen_spec.empty()) {
        const auto colon = gen_spec.find(':');
        const std::string family = gen_spec.substr(0, colon);
        std::optional<std::int64_t> n;
        if (colon != std::string::npos) {
          n = util::parse_int(gen_spec.substr(colon + 1), 1, 1 << 10);
        }
        if (!n.has_value()) {
          throw util::Error("--gen expects family:n (e.g. pipeline:10), got '" + gen_spec +
                            "'");
        }
        const int k = static_cast<int>(*n);
        const std::string name = family + std::to_string(k);
        if (family == "pipeline") return benchmarks::gen_pipeline(name, k);
        if (family == "sequencer") return benchmarks::gen_sequencer(name, k);
        if (family == "parallelizer") return benchmarks::gen_parallelizer(name, k);
        if (family == "toggle") return benchmarks::gen_toggle_ring(name, std::max(k, 2));
        throw util::Error("unknown --gen family: " + family +
                          " (expected pipeline|sequencer|parallelizer|toggle)");
      }
      if (!spec_path.empty()) return stg::parse_g_file(spec_path);
      // Demo: a one-bank memory controller with a data strobe.
      return stg::Builder("demo")
          .inputs({"req", "a0"})
          .outputs({"ack", "r0", "d"})
          .path("req+", "r0+", "a0+", "r0-", "a0-")
          .path("a0-", "d+", "d-", "ack+", "req-", "ack-")
          .arc("ack-", "req+")
          .token("ack-", "req+")
          .build();
    }();

    if (!quiet) {
      std::printf("%s: %zu signals, %zu transitions, method=%s\n", spec.name().c_str(),
                  spec.num_signals(), spec.net().num_transitions(), method.c_str());
    }
    if (!dump_g_path.empty()) write_file(dump_g_path, stg::write_g(spec));

    if (!csc_check.empty()) {
      // Analysis mode: decide CSC and stop.  Exit 0 either way — the
      // verdict is the answer; only build/infrastructure errors are errors.
      const auto t0 = std::chrono::steady_clock::now();
      bool holds = false;
      double states = 0;
      std::size_t conflicts = 0;
      std::string detail;
      if (csc_check == "bdd") {
        bdd::SymbolicStg sym(spec);
        states = sym.num_states();
        const bdd::CscVerdict v = sym.check_csc();
        holds = v.holds;
        conflicts = v.conflicts.size();
        detail = " iterations=" + std::to_string(sym.num_iterations()) +
                 " nodes=" + std::to_string(sym.manager().num_nodes());
      } else {
        const sg::StateGraph g = sg::StateGraph::from_stg(spec);
        const sg::CscResult r = sg::analyze_csc(g);
        holds = r.satisfied();
        states = static_cast<double>(g.num_states());
        conflicts = r.conflicts.size();
      }
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      std::printf("%s: csc-check engine=%s states=%.0f%s csc=%s conflicts=%zu (%.3fs)\n",
                  spec.name().c_str(), csc_check.c_str(), states, detail.c_str(),
                  holds ? "satisfied" : "violated", conflicts, dt);
      if (!trace_path.empty()) {
        obs::write_chrome_trace(trace_path);
        if (!quiet) std::printf("wrote %s\n", trace_path.c_str());
      }
      if (!stats_path.empty()) {
        obs::write_stats_json(stats_path);
        if (!quiet) std::printf("wrote %s\n", stats_path.c_str());
      }
      return 0;
    }

    const sg::StateGraph g = sg::StateGraph::from_stg(spec);
    sg::StateGraph final_graph;
    std::vector<std::pair<std::string, logic::Cover>> covers;
    std::size_t literals = 0;
    double seconds = 0;
    bool ok = false;
    std::string failure;

    // Per-method limits come from svc::default_request_options so this CLI
    // and the mps_serve daemon cannot drift apart (the byte-identity
    // contract tested by tests/check_protocol.cmake).
    svc::RequestOptions ropts = svc::default_request_options(method);
    svc::set_engine(&ropts, *engine);
    if (method == "modular") {
      core::SynthesisOptions opts = ropts.modular;
      if (threads != 0) opts.num_threads = threads;
      auto r = core::modular_synthesis(g, opts);
      ok = r.success;
      failure = r.failure_reason;
      final_graph = std::move(r.final_graph);
      covers = std::move(r.covers);
      literals = r.total_literals;
      seconds = r.seconds;
    } else if (method == "direct") {
      auto r = baseline::direct_synthesis(g, ropts.direct);
      ok = r.success;
      failure = r.failure_reason;
      final_graph = std::move(r.final_graph);
      covers = std::move(r.covers);
      literals = r.total_literals;
      seconds = r.seconds;
    } else {
      auto r = baseline::lavagno_synthesis(g, ropts.lavagno);
      ok = r.success;
      failure = r.failure_reason;
      final_graph = std::move(r.final_graph);
      covers = std::move(r.covers);
      literals = r.total_literals;
      seconds = r.seconds;
    }

    // Trace/stats cover synthesis and verification; written even when
    // synthesis failed — a failing run is exactly the one worth profiling.
    std::optional<verify::Report> verified;
    if (ok) verified = verify::verify_synthesis(final_graph, covers);
    if (!trace_path.empty()) {
      obs::write_chrome_trace(trace_path);
      if (!quiet) std::printf("wrote %s\n", trace_path.c_str());
    }
    if (!stats_path.empty()) {
      obs::write_stats_json(stats_path);
      if (!quiet) std::printf("wrote %s\n", stats_path.c_str());
    }

    if (!ok) {
      std::fprintf(stderr, "error: synthesis failed: %s\n", failure.c_str());
      return 1;
    }
    const verify::Report& report = *verified;
    std::printf("%s: ok, %zu -> %zu states, %zu -> %zu signals, %zu literals, %.3fs, "
                "verification %s\n",
                spec.name().c_str(), g.num_states(), final_graph.num_states(),
                g.num_signals(), final_graph.num_signals(), literals, seconds,
                report.ok() ? "passed" : "FAILED");
    if (!report.ok()) {
      for (const auto& issue : report.issues) std::printf("  issue: %s\n", issue.c_str());
    }

    const netlist::Netlist circuit = netlist::build_netlist(final_graph, covers);
    if (check_circuit) {
      const auto si = netlist::verify_speed_independence(circuit, final_graph);
      std::printf("circuit: %zu gates, %zu literals, ~%zu transistors; "
                  "speed-independence %s (%zu composed states)\n",
                  circuit.num_gates(), circuit.total_literals(),
                  circuit.transistor_estimate(), si.ok() ? "passed" : "FAILED",
                  si.states_explored);
      if (!si.ok()) {
        for (const auto& issue : si.issues) std::printf("  issue: %s\n", issue.c_str());
        if (!si.trace.empty()) {
          std::string trace;
          for (const auto& step : si.trace) {
            if (!trace.empty()) trace += " ";
            trace += step;
          }
          std::printf("  counterexample: %s\n", trace.c_str());
        }
        return 1;
      }
    }

    if (!pla_prefix.empty()) {
      std::vector<std::string> names;
      for (sg::SignalId s = 0; s < final_graph.num_signals(); ++s) {
        names.push_back(final_graph.signal(s).name);
      }
      for (const auto& [name, cover] : covers) {
        write_file(pla_prefix + name + ".pla", logic::write_pla(cover, names));
      }
    }
    if (!verilog_path.empty()) {
      write_file(verilog_path, netlist::write_verilog(circuit));
    }
    if (!dimacs_path.empty()) {
      const auto enc = encoding::encode_csc(g, 1);
      write_file(dimacs_path, sat::write_dimacs(enc.cnf(), "CSC of " + spec.name()));
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
