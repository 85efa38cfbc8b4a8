// Microbenchmarks of the two-level minimizer (the espresso replacement)
// and the BDD package.
#include <benchmark/benchmark.h>

#include "mps.hpp"

namespace {

using namespace mps;

logic::SopSpec random_spec(std::uint64_t seed, std::size_t vars, double on_p, double off_p) {
  util::Rng rng(seed);
  logic::SopSpec spec;
  spec.num_vars = vars;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << vars); ++x) {
    util::BitVec c(vars);
    for (std::size_t v = 0; v < vars; ++v) c.set(v, (x >> v) & 1);
    const double dice = rng.uniform();
    if (dice < on_p) {
      spec.on.push_back(c);
    } else if (dice < on_p + off_p) {
      spec.off.push_back(c);
    }
  }
  return spec;
}

void BM_HeuristicMinimize(benchmark::State& state) {
  const auto spec = random_spec(7, static_cast<std::size_t>(state.range(0)), 0.4, 0.4);
  for (auto _ : state) {
    const auto f = logic::heuristic_minimize(spec);
    benchmark::DoNotOptimize(f.literal_count());
  }
}
BENCHMARK(BM_HeuristicMinimize)->Arg(6)->Arg(8)->Arg(10);

/// The next-state function of a generated spec's final graph with the
/// largest |ON| x |OFF| (the product bounds EXPAND's work), synthesized the
/// way perfbench's pipeline and sequencer workloads run it (CDCL, one
/// thread).
logic::SopSpec largest_extracted_function(const stg::Stg& spec) {
  svc::RequestOptions ropts = svc::default_request_options("modular");
  svc::set_engine(&ropts, sat::Engine::Cdcl);
  core::SynthesisOptions opts = ropts.modular;
  opts.num_threads = 1;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(sg::StateGraph::from_stg(spec), opts);
  logic::SopSpec best;
  if (!r.success) return best;
  for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
    if (r.final_graph.is_input(s)) continue;
    auto f = logic::extract_next_state(r.final_graph, s);
    if (f.on.size() * f.off.size() > best.on.size() * best.off.size()) best = std::move(f);
  }
  return best;
}

/// Real sizes: pipeline:5 (17 variables, thousands of OFF minterms),
/// pipeline:6 (about 4,500 final states) and sequencer:24 (75 variables,
/// two-word cubes).
void BM_HeuristicMinimizeExtracted(benchmark::State& state, const char* family, int n) {
  const std::string name = family + std::to_string(n);
  const auto spec = largest_extracted_function(
      std::string(family) == "pipeline" ? benchmarks::gen_pipeline(name, n)
                                        : benchmarks::gen_sequencer(name, n));
  if (spec.on.empty()) {
    state.SkipWithError("synthesis failed");
    return;
  }
  state.counters["vars"] = static_cast<double>(spec.num_vars);
  state.counters["on"] = static_cast<double>(spec.on.size());
  state.counters["off"] = static_cast<double>(spec.off.size());
  for (auto _ : state) {
    const auto f = logic::heuristic_minimize(spec);
    benchmark::DoNotOptimize(f.literal_count());
  }
}
BENCHMARK_CAPTURE(BM_HeuristicMinimizeExtracted, pipeline5, "pipeline", 5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HeuristicMinimizeExtracted, pipeline6, "pipeline", 6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HeuristicMinimizeExtracted, sequencer24, "sequencer", 24)
    ->Unit(benchmark::kMillisecond);

void BM_ExactMinimize(benchmark::State& state) {
  const auto spec = random_spec(11, static_cast<std::size_t>(state.range(0)), 0.35, 0.4);
  for (auto _ : state) {
    const auto f = logic::exact_minimize(spec);
    benchmark::DoNotOptimize(f.has_value());
  }
}
BENCHMARK(BM_ExactMinimize)->Arg(6)->Arg(8)->Arg(10);

/// The exact path on what it meets in Table 1: every next-state function
/// of vbe4a and sbuf-send-pkt2 (default synthesis options) with at most
/// exact_max_vars variables.
void BM_ExactMinimizeExtracted(benchmark::State& state) {
  const logic::MinimizeOptions mopts;
  std::vector<logic::SopSpec> functions;
  for (const char* name : {"vbe4a", "sbuf-send-pkt2"}) {
    core::SynthesisOptions opts;
    opts.derive_logic = false;
    const auto r =
        core::modular_synthesis(sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make()),
                                opts);
    if (!r.success) {
      state.SkipWithError("synthesis failed");
      return;
    }
    for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
      if (r.final_graph.is_input(s)) continue;
      auto f = logic::extract_next_state(r.final_graph, s);
      if (f.num_vars <= mopts.exact_max_vars) functions.push_back(std::move(f));
    }
  }
  state.counters["functions"] = static_cast<double>(functions.size());
  for (auto _ : state) {
    for (const logic::SopSpec& f : functions) {
      benchmark::DoNotOptimize(logic::exact_minimize(f, mopts).has_value());
    }
  }
}
BENCHMARK(BM_ExactMinimizeExtracted)->Unit(benchmark::kMillisecond);

void BM_ExtractNextState(benchmark::State& state) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark("sbuf-ram-write")->make());
  const auto r = core::modular_synthesis(g);
  if (!r.success) {
    state.SkipWithError("synthesis failed");
    return;
  }
  sg::SignalId s = 0;
  while (r.final_graph.is_input(s)) ++s;
  for (auto _ : state) {
    const auto spec = logic::extract_next_state(r.final_graph, s);
    benchmark::DoNotOptimize(spec.on.size());
  }
}
BENCHMARK(BM_ExtractNextState);

void BM_DeriveAllLogic(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  if (!r.success) {
    state.SkipWithError("synthesis failed");
    return;
  }
  for (auto _ : state) {
    const auto lits = core::derive_all_logic(r.final_graph, {}, nullptr);
    benchmark::DoNotOptimize(lits);
  }
}
BENCHMARK_CAPTURE(BM_DeriveAllLogic, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_DeriveAllLogic, atod, "atod");

void BM_BddFromMinterms(benchmark::State& state) {
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("mmu0")->make());
  std::vector<mps::util::BitVec> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.push_back(g.code(s));
  for (auto _ : state) {
    bdd::Manager mgr(g.num_signals());
    benchmark::DoNotOptimize(mgr.from_minterms(codes));
  }
}
BENCHMARK(BM_BddFromMinterms);

void BM_BddCscCheck(benchmark::State& state) {
  const auto spec = benchmarks::find_benchmark("mmu1")->make();
  for (auto _ : state) {
    bdd::SymbolicStg sym(spec);
    benchmark::DoNotOptimize(sym.check_csc().holds);
  }
}
BENCHMARK(BM_BddCscCheck);

}  // namespace

BENCHMARK_MAIN();
