// Microbenchmarks of the state-graph substrate: reachability + coding,
// CSC analysis, projection (the ε-merge at the heart of the partitioning),
// expansion, the Figure 2 input-set search and the verify:: checks.
#include <benchmark/benchmark.h>

#include "mps.hpp"

namespace {

using namespace mps;

void BM_StateGraphFromStg(benchmark::State& state) {
  const auto stg =
      benchmarks::gen_parallelizer("par", static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto g = sg::StateGraph::from_stg(stg);
    benchmark::DoNotOptimize(g.num_states());
  }
  state.counters["states"] =
      static_cast<double>(sg::StateGraph::from_stg(stg).num_states());
}
BENCHMARK(BM_StateGraphFromStg)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_Reachability(benchmark::State& state, const char* name) {
  const auto stg = benchmarks::find_benchmark(name)->make();
  for (auto _ : state) {
    const auto r = petri::reachability(stg.net(), stg.initial_marking());
    benchmark::DoNotOptimize(r.markings.size());
  }
  state.counters["markings"] = static_cast<double>(
      petri::reachability(stg.net(), stg.initial_marking()).markings.size());
}
BENCHMARK_CAPTURE(BM_Reachability, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_Reachability, mr0, "mr0");

void BM_InferCodes(benchmark::State& state, const char* name) {
  const auto stg = benchmarks::find_benchmark(name)->make();
  const auto reach = petri::reachability(stg.net(), stg.initial_marking());
  for (auto _ : state) {
    const auto codes = sg::infer_codes(stg, reach);
    benchmark::DoNotOptimize(codes.size());
  }
}
BENCHMARK_CAPTURE(BM_InferCodes, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_InferCodes, mr0, "mr0");

void BM_AnalyzeCsc(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  for (auto _ : state) {
    const auto a = sg::analyze_csc(g);
    benchmark::DoNotOptimize(a.conflicts.size());
  }
}
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mr0, "mr0");

void BM_HideSignals(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  util::BitVec hide(g.num_signals());
  for (sg::SignalId s = 1; s < g.num_signals(); s += 2) hide.set(s);
  for (auto _ : state) {
    const auto proj = sg::hide_signals(g, hide);
    benchmark::DoNotOptimize(proj.graph.num_states());
  }
}
BENCHMARK_CAPTURE(BM_HideSignals, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_HideSignals, mr0, "mr0");

void BM_DetermineInputSet(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  sg::Assignments none(g.num_states());
  sg::SignalId o = 0;
  while (g.is_input(o)) ++o;
  for (auto _ : state) {
    const auto isr = core::determine_input_set(g, o, none);
    benchmark::DoNotOptimize(isr.kept.count());
  }
}
BENCHMARK_CAPTURE(BM_DetermineInputSet, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_DetermineInputSet, mmu0, "mmu0");

/// A generated spec as perfbench's pipeline and sequencer workloads run it.
stg::Stg generated(const std::string& family, int n) {
  const std::string name = family + std::to_string(n);
  return family == "pipeline" ? benchmarks::gen_pipeline(name, n)
                              : benchmarks::gen_sequencer(name, n);
}

/// Real size: the Figure 2 search for every output of a generated spec's
/// initial graph — the hide_signals + analyze_csc probes of one synthesis
/// round (no state signals yet).
void BM_DetermineInputSet(benchmark::State& state, const char* family, int n) {
  const auto g = sg::StateGraph::from_stg(generated(family, n));
  sg::Assignments none(g.num_states());
  for (auto _ : state) {
    std::size_t kept = 0;
    for (sg::SignalId o = 0; o < g.num_signals(); ++o) {
      if (!g.is_input(o)) kept += core::determine_input_set(g, o, none).kept.count();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.counters["states"] = static_cast<double>(g.num_states());
  state.counters["signals"] = static_cast<double>(g.num_signals());
}
BENCHMARK_CAPTURE(BM_DetermineInputSet, sequencer24, "sequencer", 24)
    ->Unit(benchmark::kMillisecond);

/// verify::verify_synthesis on a synthesized result (CDCL, one thread, as
/// perfbench runs it): code and CSC checks, both cover checks per output,
/// netlist build and the speed-independence verifier.
void BM_VerifySynthesis(benchmark::State& state, const char* family, int n) {
  svc::RequestOptions ropts = svc::default_request_options("modular");
  svc::set_engine(&ropts, sat::Engine::Cdcl);
  core::SynthesisOptions opts = ropts.modular;
  opts.num_threads = 1;
  const auto r = core::modular_synthesis(sg::StateGraph::from_stg(generated(family, n)), opts);
  if (!r.success) {
    state.SkipWithError("synthesis failed");
    return;
  }
  for (auto _ : state) {
    const auto report = verify::verify_synthesis(r.final_graph, r.covers);
    benchmark::DoNotOptimize(report.ok());
  }
  state.counters["states"] = static_cast<double>(r.final_graph.num_states());
  state.counters["signals"] = static_cast<double>(r.final_graph.num_signals());
}
BENCHMARK_CAPTURE(BM_VerifySynthesis, pipeline5, "pipeline", 5)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_VerifySynthesis, sequencer24, "sequencer", 24)
    ->Unit(benchmark::kMillisecond);

void BM_FullModularSynthesis(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  core::SynthesisOptions opts;
  opts.derive_logic = false;  // isolate the partitioning + expansion cost
  for (auto _ : state) {
    const auto r = core::modular_synthesis(g, opts);
    benchmark::DoNotOptimize(r.final_states);
  }
}
BENCHMARK_CAPTURE(BM_FullModularSynthesis, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_FullModularSynthesis, nak_pa, "nak-pa");

void BM_SemiModularityCheck(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg::semi_modularity_violations(g).size());
  }
}
BENCHMARK_CAPTURE(BM_SemiModularityCheck, mr0, "mr0");

}  // namespace

BENCHMARK_MAIN();
