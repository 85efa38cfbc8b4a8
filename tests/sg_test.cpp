#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "sg/assignments.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "stg/parser.hpp"

namespace {

using namespace mps;
using sg::StateGraph;
using sg::V4;

stg::Stg toggle_stg() {
  return stg::Builder("toggle")
      .outputs({"x", "y"})
      .path("x+", "x-", "y+", "y-")
      .arc("y-", "x+")
      .token("y-", "x+")
      .build();
}

stg::Stg handshake_stg() {
  return stg::Builder("hs")
      .inputs({"r"})
      .outputs({"a"})
      .path("r+", "a+", "r-", "a-")
      .arc("a-", "r+")
      .token("a-", "r+")
      .build();
}

TEST(StateGraph, HandshakeHasFourDistinctCodes) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  EXPECT_EQ(g.num_states(), 4u);
  EXPECT_EQ(g.num_signals(), 2u);
  std::set<std::string> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.insert(g.code(s).to_string());
  EXPECT_EQ(codes.size(), 4u);
  g.check_consistency();
}

TEST(StateGraph, InitialStateHasInferredZeroValues) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  // r+ is enabled at the initial state, so r must be 0 there; a falls last,
  // so a is 0 too.
  EXPECT_FALSE(g.value(g.initial(), g.find_signal("r")));
  EXPECT_FALSE(g.value(g.initial(), g.find_signal("a")));
}

TEST(StateGraph, ToggleCycleRepeatsCodes) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  EXPECT_EQ(g.num_states(), 4u);
  std::set<std::string> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.insert(g.code(s).to_string());
  EXPECT_EQ(codes.size(), 3u);  // "00" repeats
}

TEST(StateGraph, ExcitationSets) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const sg::SignalId r = g.find_signal("r");
  const sg::SignalId a = g.find_signal("a");
  const auto excited0 = g.excited(g.initial());
  EXPECT_TRUE(excited0.test(r));
  EXPECT_FALSE(excited0.test(a));
  // Non-input excitation excludes r.
  EXPECT_FALSE(g.excited_non_input(g.initial()).test(r));
  EXPECT_TRUE(g.excited_dir(g.initial(), r, true));
  EXPECT_FALSE(g.excited_dir(g.initial(), r, false));
}

TEST(StateGraph, InconsistentStgRejected) {
  // x rises twice in a row: no consistent assignment.
  const char* bad = R"(
.model bad
.outputs x
.graph
x+ x+/1
x+/1 x-
x- x+
.marking { <x-,x+> }
.end
)";
  EXPECT_THROW(StateGraph::from_stg(stg::parse_g(bad)), mps::util::SemanticsError);
}

TEST(StateGraph, StateLimitEnforced) {
  const auto big = mps::benchmarks::gen_parallelizer("big", 4);
  sg::BuildOptions opts;
  opts.max_states = 10;
  EXPECT_THROW(StateGraph::from_stg(big, opts), mps::util::LimitError);
}

TEST(StateGraph, AddSignalExtendsCodes) {
  StateGraph g = StateGraph::from_stg(handshake_stg());
  const auto before = g.num_signals();
  g.add_signal(sg::SignalInfo{"n", false}, true);
  EXPECT_EQ(g.num_signals(), before + 1);
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_TRUE(g.code(s).test(before));
  }
}

TEST(StateGraph, FindSignalReturnsLowestIdOfAName) {
  StateGraph g({{"b", true}, {"a", false}, {"b", false}});
  EXPECT_EQ(g.find_signal("a"), 1u);
  EXPECT_EQ(g.find_signal("b"), 0u);
  EXPECT_EQ(g.find_signal("c"), stg::kNoSignal);
  EXPECT_EQ(g.add_signal({"a", true}), 3u);
  EXPECT_EQ(g.find_signal("a"), 1u);
  EXPECT_EQ(g.find_signal(""), stg::kNoSignal);
}

TEST(StateGraph, ConcurrentPairsCount) {
  // par of two pulses: the fork state enables both.
  const auto stg = mps::benchmarks::gen_parallelizer("p2", 2);
  const StateGraph g = StateGraph::from_stg(stg);
  EXPECT_GT(g.num_concurrent_pairs(), 0u);
}

TEST(StateGraph, Predecessors) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const auto pred = g.predecessors();
  std::size_t total = 0;
  for (const auto& p : pred) total += p.size();
  EXPECT_EQ(total, g.num_edges());
}

// --- projection --------------------------------------------------------

TEST(Projection, HidingMergesStates) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("y"));
  const auto proj = sg::hide_signals(g, hide);
  // y's two transitions merge 3 states into 1: x+ x- remain.
  EXPECT_EQ(proj.graph.num_states(), 2u);
  EXPECT_EQ(proj.kept.size(), 1u);
  EXPECT_EQ(proj.graph.signal(0).name, "x");
  // Cover map is total and in range.
  for (const sg::StateId c : proj.state_map) EXPECT_LT(c, proj.graph.num_states());
}

TEST(Projection, KeptCodesAgreeWithOriginals) {
  const auto stg = mps::benchmarks::gen_sequencer("seq", 2);
  const StateGraph g = StateGraph::from_stg(stg);
  util::BitVec hide(g.num_signals());
  hide.set(1);
  hide.set(3);
  const auto proj = sg::hide_signals(g, hide);
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (std::size_t i = 0; i < proj.kept.size(); ++i) {
      EXPECT_EQ(g.code(s).test(proj.kept[i]),
                proj.graph.code(proj.state_map[s]).test(static_cast<sg::SignalId>(i)));
    }
  }
}

TEST(Projection, HideNothingIsIsomorphic) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const util::BitVec hide(g.num_signals());
  const auto proj = sg::hide_signals(g, hide);
  EXPECT_EQ(proj.graph.num_states(), g.num_states());
  EXPECT_EQ(proj.graph.num_edges(), g.num_edges());
}

TEST(Projection, KeptSignalTableAndNameIndex) {
  const StateGraph g = StateGraph::from_stg(benchmarks::find_benchmark("mmu0")->make());
  util::BitVec hide(g.num_signals());
  for (sg::SignalId s = 0; s < g.num_signals(); s += 2) hide.set(s);
  auto proj = sg::hide_signals(g, hide);
  ASSERT_EQ(proj.graph.num_signals(), proj.kept.size());
  for (sg::SignalId i = 0; i < proj.kept.size(); ++i) {
    const sg::SignalInfo& info = proj.graph.signal(i);
    EXPECT_EQ(info.name, g.signal(proj.kept[i]).name);
    EXPECT_EQ(info.is_input, g.is_input(proj.kept[i]));
    EXPECT_EQ(proj.graph.input_mask().test(i), info.is_input);
    EXPECT_EQ(proj.graph.find_signal(info.name), i);
  }
  for (sg::SignalId s = 0; s < g.num_signals(); s += 2) {
    EXPECT_EQ(proj.graph.find_signal(g.signal(s).name), stg::kNoSignal);
  }
  // The filtered index stays usable for signals added later.
  const sg::SignalId added = proj.graph.add_signal({"csc0", false});
  EXPECT_EQ(proj.graph.find_signal("csc0"), added);
  EXPECT_EQ(proj.graph.find_signal(proj.graph.signal(0).name), 0u);
}

TEST(Projection, AssignmentMergeFollowsFigure3) {
  // Graph: chain of 4 states via x+ x- y+ (y hidden); state signal values
  // 0, Up, 1, 1 should merge by (0,Up)->Up rules where states merge.
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  // States: 0 -x+-> 1 -x-> 2 -y+-> 3 -y-> 0.
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::One});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));  // merges 0,1,2 into one class
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_TRUE(proj.assignments_consistent);
  ASSERT_EQ(proj.assignments.num_signals(), 1u);
  // Merged class {0,1,2} has Up (0,Up,1 pattern); class {3} keeps One.
  const sg::StateId merged = proj.state_map[0];
  EXPECT_EQ(proj.assignments.value(0, merged), V4::Up);
  EXPECT_EQ(proj.assignments.value(0, proj.state_map[3]), V4::One);
}

TEST(Projection, InconsistentMergeDetected) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  // 0 and 1 in one ε-class with no excitation boundary: inconsistent.
  assigns.add_signal("n", {V4::Zero, V4::One, V4::One, V4::One});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_FALSE(proj.assignments_consistent);
}

TEST(Projection, UpAndDownInOneClassRejected) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Up, V4::Down, V4::Zero, V4::Zero});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_FALSE(proj.assignments_consistent);
}

// --- assignments / V4 --------------------------------------------------

TEST(V4, MergeRules) {
  using sg::merge_pair_allowed;
  // Equal pairs.
  for (const V4 v : {V4::Zero, V4::One, V4::Up, V4::Down}) {
    EXPECT_TRUE(merge_pair_allowed(v, v));
  }
  // Excitation boundaries (directed).
  EXPECT_TRUE(merge_pair_allowed(V4::Zero, V4::Up));
  EXPECT_TRUE(merge_pair_allowed(V4::Up, V4::One));
  EXPECT_TRUE(merge_pair_allowed(V4::One, V4::Down));
  EXPECT_TRUE(merge_pair_allowed(V4::Down, V4::Zero));
  // The reverse directions are inconsistent.
  EXPECT_FALSE(merge_pair_allowed(V4::Up, V4::Zero));
  EXPECT_FALSE(merge_pair_allowed(V4::One, V4::Up));
  EXPECT_FALSE(merge_pair_allowed(V4::Down, V4::One));
  EXPECT_FALSE(merge_pair_allowed(V4::Zero, V4::Down));
  // Plain contradictions.
  EXPECT_FALSE(merge_pair_allowed(V4::Zero, V4::One));
  EXPECT_FALSE(merge_pair_allowed(V4::One, V4::Zero));
  EXPECT_FALSE(merge_pair_allowed(V4::Up, V4::Down));
  EXPECT_FALSE(merge_pair_allowed(V4::Down, V4::Up));
}

TEST(V4, SeparationIsStableComplementOnly) {
  EXPECT_TRUE(sg::separates(V4::Zero, V4::One));
  EXPECT_TRUE(sg::separates(V4::One, V4::Zero));
  EXPECT_FALSE(sg::separates(V4::Up, V4::One));
  EXPECT_FALSE(sg::separates(V4::Zero, V4::Down));
  EXPECT_FALSE(sg::separates(V4::Up, V4::Down));
}

TEST(Assignments, CoherenceCheck) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments good(g.num_states());
  // 0 -r+-> 1 -a+-> 2 -r-> 3 -a-> 0: rise across 1, fall across 3.
  good.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  EXPECT_FALSE(good.check_coherence(g).has_value());

  sg::Assignments bad(g.num_states());
  bad.add_signal("n", {V4::Zero, V4::One, V4::One, V4::Zero});  // 0->1 jump
  EXPECT_TRUE(bad.check_coherence(g).has_value());
}

TEST(Assignments, Subset) {
  sg::Assignments a(3);
  a.add_signal("p", {V4::Zero, V4::One, V4::Zero});
  a.add_signal("q", {V4::Up, V4::Up, V4::Up});
  const auto sub = a.subset({1});
  EXPECT_EQ(sub.num_signals(), 1u);
  EXPECT_EQ(sub.name(0), "q");
  EXPECT_EQ(sub.value(0, 2), V4::Up);
}

// --- expansion ----------------------------------------------------------

TEST(Expand, EmptyAssignmentsIsCopy) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const auto ex = sg::expand(g, sg::Assignments(g.num_states()));
  EXPECT_EQ(ex.graph.num_states(), g.num_states());
  EXPECT_EQ(ex.graph.num_edges(), g.num_edges());
}

TEST(Expand, SplitsExcitedStates) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  // Two excited states split: 4 + 2 = 6 states; signal column added.
  EXPECT_EQ(ex.graph.num_states(), 6u);
  EXPECT_EQ(ex.graph.num_signals(), 3u);
  EXPECT_FALSE(ex.graph.is_input(2));
  ex.graph.check_consistency();
  // The inserted signal has both a rising and a falling edge.
  bool rise = false;
  bool fall = false;
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    for (const sg::Edge& e : ex.graph.out(s)) {
      if (e.sig == 2) (e.rise ? rise : fall) = true;
    }
  }
  EXPECT_TRUE(rise);
  EXPECT_TRUE(fall);
}

TEST(Expand, IncoherentAssignmentThrows) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::One, V4::Zero, V4::One});
  EXPECT_THROW(sg::expand(g, assigns), mps::util::SemanticsError);
}

TEST(Expand, OriginMapsBackToSource) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  ASSERT_EQ(ex.origin.size(), ex.graph.num_states());
  for (const sg::StateId o : ex.origin) EXPECT_LT(o, g.num_states());
}

TEST(SemiModularity, HandshakeIsSemiModular) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  EXPECT_TRUE(sg::semi_modularity_violations(g).empty());
}

TEST(SemiModularity, OutputChoiceDetected) {
  // A place choosing between two output transitions: firing one disables
  // the other.
  const char* text = R"(
.model oc
.outputs x y z
.graph
p0 x+ y+
x+ z+
y+ z+/1
z+ z-
z+/1 z-/1
z- x-
z-/1 y-
x- p0
y- p0
.marking { p0 }
.end
)";
  const StateGraph g = StateGraph::from_stg(stg::parse_g(text));
  EXPECT_FALSE(sg::semi_modularity_violations(g).empty());
}

// --- packed separation in analyze_csc ------------------------------------

/// True if some state signal separates the pair: the per-signal walk that
/// analyze_csc's packed stable-value masks replace.
bool separates_pair(const sg::Assignments& assigns, sg::StateId a, sg::StateId b) {
  for (std::size_t k = 0; k < assigns.num_signals(); ++k) {
    if (sg::separates(assigns.value(k, a), assigns.value(k, b))) return true;
  }
  return false;
}

/// The behaviour analyze_csc compares between code-equal states, unpacked.
std::vector<int> behaviour(const StateGraph& g, const sg::Assignments& assigns, sg::SignalId focus,
                           sg::StateId s) {
  std::vector<int> out;
  if (focus != stg::kNoSignal) {
    out = {g.excited_dir(s, focus, true), g.excited_dir(s, focus, false)};
  } else {
    const util::BitVec excited = g.excited_non_input(s);
    for (sg::SignalId sig = 0; sig < g.num_signals(); ++sig) out.push_back(excited.test(sig));
  }
  for (std::size_t k = 0; k < assigns.num_signals(); ++k) {
    const V4 v = assigns.value(k, s);
    out.push_back(v == V4::Up ? 1 : v == V4::Down ? 2 : 0);
  }
  return out;
}

/// Reference CSC analysis built on separates_pair, one pair at a time.
sg::CscResult reference_csc(const StateGraph& g, const sg::Assignments& assigns,
                            sg::SignalId focus) {
  sg::CscResult r;
  std::map<std::string, std::vector<sg::StateId>> classes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) classes[g.code(s).to_string()].push_back(s);
  for (const auto& [code, states] : classes) {
    const std::size_t k = states.size();
    if (k < 2) continue;
    r.num_usc_pairs += k * (k - 1) / 2;
    r.max_class_size = std::max(r.max_class_size, k);
    std::set<std::vector<int>> distinct;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        if (separates_pair(assigns, states[i], states[j])) continue;
        const auto bi = behaviour(g, assigns, focus, states[i]);
        const auto bj = behaviour(g, assigns, focus, states[j]);
        if (bi == bj) {
          r.compatible_pairs.emplace_back(states[i], states[j]);
        } else {
          r.conflicts.emplace_back(states[i], states[j]);
          distinct.insert(bi);
          distinct.insert(bj);
        }
      }
    }
    if (!distinct.empty()) r.lower_bound = std::max(r.lower_bound, sg::ceil_log2(distinct.size()));
  }
  std::sort(r.conflicts.begin(), r.conflicts.end());
  std::sort(r.compatible_pairs.begin(), r.compatible_pairs.end());
  return r;
}

/// K random four-valued state signals: each signal has a default value and
/// each state deviates from it at random with probability 1.5/K, so about
/// half of the code-equal pairs stay unseparated whatever K is.
sg::Assignments random_assignments(util::Rng& rng, std::size_t num_states, std::size_t k_signals) {
  sg::Assignments assigns(num_states);
  const double deviate = 1.5 / static_cast<double>(k_signals);
  for (std::size_t k = 0; k < k_signals; ++k) {
    const auto fallback = static_cast<V4>(rng.below(4));
    std::vector<V4> values(num_states, fallback);
    for (auto& v : values) {
      if (rng.chance(deviate)) v = static_cast<V4>(rng.below(4));
    }
    assigns.add_signal("n" + std::to_string(k), std::move(values));
  }
  return assigns;
}

TEST(AnalyzeCsc, PackedSeparationMatchesPairwiseReference) {
  std::vector<StateGraph> graphs;
  for (const char* name : {"vbe-ex1", "nousc-ser", "mmu0", "sbuf-read-ctl", "alloc-outbound"}) {
    graphs.push_back(StateGraph::from_stg(benchmarks::find_benchmark(name)->make()));
  }
  util::Rng stg_rng(4242);
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(StateGraph::from_stg(benchmarks::random_stg(stg_rng)));
  }
  util::Rng rng(977);
  std::size_t separated = 0;
  std::size_t high_word_only = 0;  // pairs only signals >= 64 separate
  std::size_t unseparated = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const StateGraph& g = graphs[gi];
    sg::SignalId output = 0;
    while (output < g.num_signals() && g.is_input(output)) ++output;
    for (const std::size_t k_signals : {3, 64, 70}) {
      const sg::Assignments assigns = random_assignments(rng, g.num_states(), k_signals);
      for (const sg::SignalId focus : {stg::kNoSignal, output}) {
        if (focus == g.num_signals()) continue;
        sg::CscOptions opts;
        opts.focus_signal = focus;
        const sg::CscResult got = sg::analyze_csc(g, &assigns, opts);
        const sg::CscResult want = reference_csc(g, assigns, focus);
        const std::string where = "graph " + std::to_string(gi) + " K=" + std::to_string(k_signals);
        EXPECT_EQ(got.conflicts, want.conflicts) << where;
        EXPECT_EQ(got.compatible_pairs, want.compatible_pairs) << where;
        EXPECT_EQ(got.lower_bound, want.lower_bound) << where;
        EXPECT_EQ(got.num_usc_pairs, want.num_usc_pairs) << where;
        EXPECT_EQ(got.max_class_size, want.max_class_size) << where;
      }
      for (const auto& states : sg::code_classes(g)) {
        for (std::size_t i = 0; i < states.size(); ++i) {
          for (std::size_t j = i + 1; j < states.size(); ++j) {
            if (!separates_pair(assigns, states[i], states[j])) {
              ++unseparated;
              continue;
            }
            ++separated;
            bool low = false;
            for (std::size_t k = 0; k < std::min<std::size_t>(k_signals, 64); ++k) {
              low = low || sg::separates(assigns.value(k, states[i]), assigns.value(k, states[j]));
            }
            if (!low) ++high_word_only;
          }
        }
      }
    }
  }
  // The comparison saw both outcomes, and separations that live only in
  // the second mask word (K = 70).
  EXPECT_GT(separated, 100u);
  EXPECT_GT(unseparated, 100u);
  EXPECT_GT(high_word_only, 0u);
}

TEST(CodeClasses, GroupsByCode) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  const auto classes = sg::code_classes(g);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 2u);  // the two "00" states
}

}  // namespace
