// Golden cover text: every output's minimized cover, cube by cube, for the
// 23 Table-1 specs (modular method, default request options) and for three
// generated specs run with CDCL (pipeline:4, parallelizer:4, sequencer:24;
// the last has 75 variables, so its cubes span two 64-bit words).
//
// Table1Pin only pins literal counts; this pins the covers themselves, so a
// minimizer change that keeps the count but picks other primes fails here.
// The committed file came from the BitVec-based espresso loop that the
// packed loop replaced, so it pins the packed loop to that loop's output.
// To regenerate it on purpose, run this test with
// MPS_UPDATE_GOLDEN_COVERS=1 in the environment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "mps.hpp"

namespace {

using namespace mps;

const std::string kGoldenPath = std::string(MPS_TEST_DATA_DIR) + "/golden_covers.txt";

/// One line per non-input signal: "<spec> <signal> <cube> + <cube> ...".
void append_covers(const std::string& spec_name, const stg::Stg& spec, sat::Engine engine,
                   std::string* out) {
  svc::RequestOptions ropts = svc::default_request_options("modular");
  svc::set_engine(&ropts, engine);
  core::SynthesisOptions opts = ropts.modular;
  opts.num_threads = 1;
  const auto r = core::modular_synthesis(sg::StateGraph::from_stg(spec), opts);
  ASSERT_TRUE(r.success) << spec_name;
  for (const auto& [signal, cover] : r.covers) {
    *out += spec_name + " " + signal + " " + cover.to_string() + "\n";
  }
}

std::string compute_golden_text() {
  std::string text;
  for (const auto& b : benchmarks::table1_benchmarks()) {
    append_covers(b.name, b.make(), sat::Engine::Dpll, &text);
  }
  append_covers("pipeline4", benchmarks::gen_pipeline("pipeline4", 4), sat::Engine::Cdcl, &text);
  append_covers("parallelizer4", benchmarks::gen_parallelizer("parallelizer4", 4),
                sat::Engine::Cdcl, &text);
  append_covers("sequencer24", benchmarks::gen_sequencer("sequencer24", 24), sat::Engine::Cdcl,
                &text);
  return text;
}

TEST(GoldenCovers, CoverTextMatchesCommittedFile) {
  const std::string actual = compute_golden_text();
  if (std::getenv("MPS_UPDATE_GOLDEN_COVERS") != nullptr) {
    std::ofstream(kGoldenPath, std::ios::binary) << actual;
    GTEST_SKIP() << "wrote " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << kGoldenPath;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string expected = ss.str();
  if (actual == expected) return;

  // Name the first differing line rather than dumping both files.
  std::istringstream a(actual), e(expected);
  std::string la, le;
  for (int line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool ge = static_cast<bool>(std::getline(e, le));
    if (!ga && !ge) break;
    if (!ga || !ge || la != le) {
      FAIL() << "golden cover text differs at line " << line << "\n  expected: " << le
             << "\n  actual:   " << la;
    }
  }
  FAIL() << "golden cover text differs";
}

// EXPAND's effort on pipeline:4's next-state functions, in OFF-column words
// ANDed.  Deterministic, so a change to the EXPAND kernel's cost (say, back
// to one scan of the OFF list per literal test) fails here rather than in a
// timing.  Re-pin on purpose when the kernel changes.
TEST(MinimizerEffort, ExpandWordsPinnedOnPipeline4) {
  svc::RequestOptions ropts = svc::default_request_options("modular");
  svc::set_engine(&ropts, sat::Engine::Cdcl);
  core::SynthesisOptions opts = ropts.modular;
  opts.num_threads = 1;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(
      sg::StateGraph::from_stg(benchmarks::gen_pipeline("pipeline4", 4)), opts);
  ASSERT_TRUE(r.success);
  std::vector<logic::SopSpec> functions;
  for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
    if (r.final_graph.is_input(s)) continue;
    functions.push_back(logic::extract_next_state(r.final_graph, s));
  }
  obs::reset();
  obs::set_enabled(true);
  for (const logic::SopSpec& f : functions) logic::heuristic_minimize(f);
  const std::int64_t words = obs::counter_value("logic.expand_words");
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(functions.size(), 9u);
  EXPECT_EQ(words, 86967);
}

}  // namespace
