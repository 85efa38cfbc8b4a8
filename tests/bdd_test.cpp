#include <gtest/gtest.h>

#include <unordered_set>

#include "bdd/bdd.hpp"
#include "bdd/csc_bdd.hpp"
#include "bdd/symbolic.hpp"
#include "benchmarks/generators.hpp"
#include "core/synthesis.hpp"
#include "sat/solver.hpp"
#include "logic/minimize.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"

namespace {

using namespace mps::bdd;
using mps::util::BitVec;

BitVec code(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) v.set(i, bits[i] == '1');
  return v;
}

TEST(Bdd, Terminals) {
  Manager mgr(3);
  EXPECT_EQ(mgr.bdd_false(), kFalse);
  EXPECT_EQ(mgr.bdd_true(), kTrue);
  EXPECT_EQ(mgr.bdd_not(kTrue), kFalse);
  EXPECT_EQ(mgr.bdd_not(kFalse), kTrue);
}

TEST(Bdd, VariablesAreCanonical) {
  Manager mgr(3);
  EXPECT_EQ(mgr.var(0), mgr.var(0));  // hash-consed
  EXPECT_NE(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.bdd_not(mgr.var(0)), mgr.nvar(0));
}

TEST(Bdd, BooleanAlgebraLaws) {
  Manager mgr(4);
  const NodeId a = mgr.var(0);
  const NodeId b = mgr.var(1);
  const NodeId c = mgr.var(2);
  // Canonicity makes law checking equality checking.
  EXPECT_EQ(mgr.bdd_and(a, b), mgr.bdd_and(b, a));
  EXPECT_EQ(mgr.bdd_or(a, mgr.bdd_or(b, c)), mgr.bdd_or(mgr.bdd_or(a, b), c));
  EXPECT_EQ(mgr.bdd_and(a, mgr.bdd_or(b, c)),
            mgr.bdd_or(mgr.bdd_and(a, b), mgr.bdd_and(a, c)));
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_and(a, b)),
            mgr.bdd_or(mgr.bdd_not(a), mgr.bdd_not(b)));  // De Morgan
  EXPECT_EQ(mgr.bdd_and(a, mgr.bdd_not(a)), kFalse);
  EXPECT_EQ(mgr.bdd_or(a, mgr.bdd_not(a)), kTrue);
  EXPECT_EQ(mgr.bdd_xor(a, a), kFalse);
  EXPECT_EQ(mgr.bdd_xor(a, kFalse), a);
  EXPECT_EQ(mgr.bdd_implies(a, a), kTrue);
}

TEST(Bdd, EvalAgainstTruthTable) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)), mgr.nvar(2));
  for (int x = 0; x < 8; ++x) {
    BitVec assignment(3);
    for (int v = 0; v < 3; ++v) assignment.set(v, (x >> v) & 1);
    const bool expected =
        (assignment.test(0) && assignment.test(1)) || !assignment.test(2);
    EXPECT_EQ(mgr.eval(f, assignment), expected) << x;
  }
}

TEST(Bdd, RestrictAndQuantify) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.restrict(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict(f, 0, false), kFalse);
  EXPECT_EQ(mgr.exists(f, 0), mgr.var(1));
  EXPECT_EQ(mgr.forall(f, 0), kFalse);
  const NodeId g = mgr.bdd_or(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.forall(g, 0), mgr.var(1));
}

TEST(Bdd, SatCount) {
  Manager mgr(4);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kTrue), 16.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0)), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_and(mgr.var(0), mgr.var(3))), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_xor(mgr.var(1), mgr.var(2))), 8.0);
}

TEST(Bdd, PickModel) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_and(mgr.var(0), mgr.nvar(2));
  BitVec model;
  ASSERT_TRUE(mgr.pick_model(f, &model));
  EXPECT_TRUE(mgr.eval(f, model));
  EXPECT_FALSE(mgr.pick_model(kFalse, &model));
}

TEST(Bdd, FromCoverMatchesSemantics) {
  Manager mgr(3);
  mps::logic::Cover cover(3);
  cover.add(mps::logic::Cube::from_string("1-0"));
  cover.add(mps::logic::Cube::from_string("01-"));
  const NodeId f = mgr.from_cover(cover);
  for (int x = 0; x < 8; ++x) {
    BitVec assignment(3);
    for (int v = 0; v < 3; ++v) assignment.set(v, (x >> v) & 1);
    EXPECT_EQ(mgr.eval(f, assignment), cover.covers_code(assignment)) << x;
  }
}

TEST(Bdd, FromMintermsMatchesList) {
  Manager mgr(3);
  const std::vector<BitVec> minterms = {code("101"), code("010"), code("111")};
  const NodeId f = mgr.from_minterms(minterms);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 3.0);
  for (const auto& m : minterms) EXPECT_TRUE(mgr.eval(f, m));
  EXPECT_FALSE(mgr.eval(f, code("000")));
}

TEST(Bdd, SharingKeepsNodeCountSmall) {
  Manager mgr(10);
  // x0 xor x1 xor ... xor x9 — linear-size BDD thanks to sharing.
  NodeId f = kFalse;
  for (std::uint32_t v = 0; v < 10; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  // No GC: intermediates stay in the unique table, but growth is linear.
  EXPECT_LT(mgr.num_nodes(), 128u);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 512.0);
}

/// A pseudo-random function over `nv` variables, distinct per seed.
NodeId random_function(Manager& mgr, std::uint32_t nv, std::uint32_t seed) {
  mps::util::Rng rng(seed);
  std::vector<BitVec> minterms;
  for (int i = 0; i < 12; ++i) {
    BitVec m(nv);
    for (std::uint32_t v = 0; v < nv; ++v) m.set(v, rng.chance(0.5));
    minterms.push_back(m);
  }
  return mgr.from_minterms(minterms);
}

TEST(BddQuantify, CubeMatchesIteratedExists) {
  Manager mgr(6);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 6, seed);
    const NodeId via_cube = mgr.exists_cube(f, mgr.cube({1, 3, 4}));
    NodeId iterated = f;
    for (const std::uint32_t v : {1u, 3u, 4u}) iterated = mgr.exists(iterated, v);
    EXPECT_EQ(via_cube, iterated) << "seed " << seed;
  }
}

TEST(BddQuantify, ExistsDistributesOverOr) {
  Manager mgr(6);
  const NodeId f = random_function(mgr, 6, 1);
  const NodeId g = random_function(mgr, 6, 2);
  const NodeId c = mgr.cube({0, 2, 5});
  EXPECT_EQ(mgr.exists_cube(mgr.bdd_or(f, g), c),
            mgr.bdd_or(mgr.exists_cube(f, c), mgr.exists_cube(g, c)));
}

TEST(BddQuantify, AndExistsMatchesConjoinThenQuantify) {
  Manager mgr(8);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 8, 3 * seed);
    const NodeId g = random_function(mgr, 8, 3 * seed + 1);
    const NodeId c = mgr.cube({0, 1, 4, 6});
    EXPECT_EQ(mgr.and_exists(f, g, c), mgr.exists_cube(mgr.bdd_and(f, g), c))
        << "seed " << seed;
    EXPECT_EQ(mgr.and_exists(f, g, c), mgr.and_exists(g, f, c));  // commutes
    EXPECT_EQ(mgr.and_exists(f, g, kTrue), mgr.bdd_and(f, g));    // empty cube
  }
}

TEST(BddQuantify, RenameShiftDown) {
  Manager mgr(8);
  // f over next variables {1, 3, 7} only; renaming maps it onto {0, 2, 6}.
  const NodeId f =
      mgr.bdd_or(mgr.bdd_and(mgr.var(1), mgr.nvar(3)), mgr.bdd_and(mgr.var(3), mgr.var(7)));
  const NodeId expected =
      mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.nvar(2)), mgr.bdd_and(mgr.var(2), mgr.var(6)));
  EXPECT_EQ(mgr.rename_shift_down(f), expected);
  EXPECT_EQ(mgr.rename_shift_down(kTrue), kTrue);
  // Functions already over even variables pass through unchanged.
  EXPECT_EQ(mgr.rename_shift_down(expected), expected);
}

TEST(BddRestrict, MemoizedMatchesReference) {
  Manager mgr(8);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 8, seed);
    for (std::uint32_t v = 0; v < 8; ++v) {
      EXPECT_EQ(mgr.restrict(f, v, true), mgr.restrict_nomemo(f, v, true));
      EXPECT_EQ(mgr.restrict(f, v, false), mgr.restrict_nomemo(f, v, false));
    }
  }
}

TEST(BddGc, KeepsLiveRootsAndCollectsGarbage) {
  Manager mgr(10);
  NodeId keep = random_function(mgr, 10, 7);
  // Record the full truth table so the post-GC (re-numbered) root can be
  // checked semantically.
  std::vector<bool> truth(1024);
  for (std::uint32_t x = 0; x < 1024; ++x) {
    BitVec a(10);
    for (std::uint32_t v = 0; v < 10; ++v) a.set(v, (x >> v) & 1);
    truth[x] = mgr.eval(keep, a);
  }
  for (std::uint32_t seed = 100; seed < 120; ++seed) random_function(mgr, 10, seed);
  const std::size_t before = mgr.num_nodes();
  std::vector<NodeId*> roots{&keep};
  const std::size_t collected = mgr.gc(roots);
  EXPECT_GT(collected, 0u);
  EXPECT_EQ(mgr.num_nodes(), before - collected);
  EXPECT_EQ(mgr.stats().gc_runs, 1u);
  for (std::uint32_t x = 0; x < 1024; ++x) {
    BitVec a(10);
    for (std::uint32_t v = 0; v < 10; ++v) a.set(v, (x >> v) & 1);
    EXPECT_EQ(mgr.eval(keep, a), truth[x]) << x;
  }
  // The manager keeps working after compaction: fresh ops, fresh caches.
  EXPECT_EQ(mgr.bdd_and(keep, mgr.bdd_not(keep)), kFalse);
}

TEST(BddBudget, NodeLimitThrows) {
  Manager mgr(64);
  mgr.set_max_nodes(24);
  EXPECT_THROW(
      {
        NodeId f = kFalse;
        for (std::uint32_t v = 0; v < 64; ++v) f = mgr.bdd_xor(f, mgr.var(v));
      },
      mps::util::LimitError);
}

TEST(BddBudget, OpLimitThrows) {
  Manager mgr(32);
  NodeId f = kFalse;
  for (std::uint32_t v = 0; v < 32; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  mgr.set_max_ops(8);
  EXPECT_THROW(
      {
        // Fresh structure so the ite cache cannot answer from memory.
        const NodeId g = random_function(mgr, 32, 9);
        mgr.bdd_and(f, g);
      },
      mps::util::LimitError);
}

/// FNV-1a over every (var, low, high) triple in id order.
std::uint64_t node_table_hash(const Manager& mgr) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (NodeId id = 0; id < mgr.num_nodes(); ++id) {
    const Manager::Node& n = mgr.node(id);
    mix(n.var);
    mix(n.low);
    mix(n.high);
  }
  return h;
}

TEST(BddTables, NodeTableAndStatsArePinned) {
  // Measured on the manager with node-based hash maps for its unique table
  // and memos.  The tables' layout must not change which nodes get created,
  // in which order, or how many recursion steps, hits and misses it takes.
  struct Pin {
    const char* name;
    mps::stg::Stg spec;
    std::size_t nodes;
    std::uint64_t hash, ops, hits, misses;
  };
  const Pin pins[] = {
      {"pipeline:10", mps::benchmarks::gen_pipeline("pipe", 10), 126'118,
       12253331648508400853ULL, 278'305, 33'055, 278'305},
      {"parallelizer:6", mps::benchmarks::gen_parallelizer("par", 6), 497'249,
       4587251015541813607ULL, 1'573'075, 240'579, 1'573'075},
  };
  for (const Pin& pin : pins) {
    SymbolicStg sym(pin.spec);
    sym.reachable();
    sym.check_csc();
    const Manager& mgr = sym.manager();
    EXPECT_EQ(mgr.num_nodes(), pin.nodes) << pin.name;
    EXPECT_EQ(node_table_hash(mgr), pin.hash) << pin.name;
    EXPECT_EQ(mgr.stats().ops, pin.ops) << pin.name;
    EXPECT_EQ(mgr.stats().cache_hits, pin.hits) << pin.name;
    EXPECT_EQ(mgr.stats().cache_misses, pin.misses) << pin.name;
  }
}

/// True iff `f` in `a` and `g` in `b` are the same function.  Reduced
/// ordered BDDs of one function under one order are isomorphic, so this
/// walks both graphs in lockstep; `seen` maps visited ids of `a` to `b`.
bool same_function(const Manager& a, NodeId f, const Manager& b, NodeId g,
                   std::vector<NodeId>* seen) {
  if (f <= kTrue || g <= kTrue) return f == g;
  if ((*seen)[f] != kFalse) return (*seen)[f] == g;
  const Manager::Node& nf = a.node(f);
  const Manager::Node& ng = b.node(g);
  if (nf.var != ng.var || !same_function(a, nf.low, b, ng.low, seen) ||
      !same_function(a, nf.high, b, ng.high, seen)) {
    return false;
  }
  (*seen)[f] = g;
  return true;
}

bool same_function(const Manager& a, NodeId f, const Manager& b, NodeId g) {
  std::vector<NodeId> seen(a.num_nodes(), kFalse);
  return same_function(a, f, b, g, &seen);
}

TEST(BddTables, CanonicalAcrossGc) {
  const auto spec = mps::benchmarks::gen_pipeline("pipe", 10);
  SymbolicStg plain(spec);
  SymbolicOptions opts;
  opts.gc_node_threshold = 2048;
  SymbolicStg collected(spec, opts);

  EXPECT_EQ(collected.num_states(), plain.num_states());
  const CscVerdict want = plain.check_csc();
  const CscVerdict got = collected.check_csc();
  EXPECT_EQ(got.holds, want.holds);
  EXPECT_EQ(got.conflicts, want.conflicts);
  Manager& mgr = collected.manager();
  EXPECT_EQ(plain.manager().stats().gc_runs, 0u);
  EXPECT_GE(mgr.stats().gc_runs, 10u);
  EXPECT_TRUE(same_function(plain.manager(), plain.reachable(), mgr, collected.reachable()));
  EXPECT_TRUE(same_function(plain.manager(), plain.code_chi(), mgr, collected.code_chi()));

  // Every surviving triple is found again by a fresh make(), never added a
  // second time: the rebuilt unique table is complete and duplicate-free.
  for (std::uint32_t v = 0; v < mgr.num_vars(); ++v) mgr.var(v);
  const std::size_t nodes = mgr.num_nodes();
  for (NodeId id = 2; id < nodes; ++id) {
    const Manager::Node n = mgr.node(id);
    ASSERT_EQ(mgr.ite(mgr.var(n.var), n.high, n.low), id);
  }
  EXPECT_EQ(mgr.num_nodes(), nodes);
}

TEST(SymbolicStg, ReachableCodesMatchExplicit) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  SymbolicStg sym(stg);
  EXPECT_DOUBLE_EQ(sym.num_states(), static_cast<double>(g.num_states()));
  for (mps::sg::StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_TRUE(sym.code_reachable(g.code(s)));
  }
}

TEST(SymbolicStg, DetectsViolationAndSatisfaction) {
  const auto bad = mps::stg::Builder("toggle")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  SymbolicStg sym_bad(bad);
  EXPECT_FALSE(sym_bad.check_csc().holds);
  // Code 11 never occurs: x and y pulse one after the other.
  EXPECT_FALSE(sym_bad.code_reachable(code("11")));

  const auto good = mps::stg::Builder("hs")
                        .inputs({"r"})
                        .outputs({"a"})
                        .path("r+", "a+", "r-", "a-")
                        .arc("a-", "r+")
                        .token("a-", "r+")
                        .build();
  SymbolicStg sym_good(good);
  const CscVerdict verdict = sym_good.check_csc();
  EXPECT_TRUE(verdict.holds);
  EXPECT_TRUE(verdict.conflicts.empty());
}

TEST(CscBdd, CoverMatchesSpecExactly) {
  mps::logic::SopSpec spec;
  spec.num_vars = 3;
  spec.on = {code("110"), code("111")};
  spec.off = {code("000"), code("001")};
  Manager mgr(3);
  mps::logic::Cover good(3);
  good.add(mps::logic::Cube::from_string("11-"));
  EXPECT_TRUE(cover_matches_spec(mgr, spec, good));

  mps::logic::Cover overreach(3);
  overreach.add(mps::logic::Cube::from_string("---"));  // hits the OFF set
  EXPECT_FALSE(cover_matches_spec(mgr, spec, overreach));

  mps::logic::Cover undershoot(3);
  undershoot.add(mps::logic::Cube::from_string("111"));  // misses ON 110
  EXPECT_FALSE(cover_matches_spec(mgr, spec, undershoot));

  // Dipping into don't-care space is allowed.
  mps::logic::Cover dc(3);
  dc.add(mps::logic::Cube::from_string("1--"));  // covers DC 100, 101
  EXPECT_TRUE(cover_matches_spec(mgr, spec, dc));
}

/// A random spec over n variables: for n <= 8 every code is ON (45%), OFF
/// or don't-care; for larger n the lists are sparse codes near one random
/// base code, so minimized cubes keep several literals.
mps::logic::SopSpec random_sparse_spec(mps::util::Rng& rng, std::size_t n) {
  mps::logic::SopSpec spec;
  spec.num_vars = n;
  if (n <= 8) {
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
      BitVec c(n);
      for (std::size_t v = 0; v < n; ++v) c.set(v, (x >> v) & 1);
      if (rng.chance(0.45)) {
        spec.on.push_back(c);
      } else if (rng.chance(0.8)) {
        spec.off.push_back(c);
      }
    }
    return spec;
  }
  BitVec base(n);
  for (std::size_t v = 0; v < n; ++v) base.set(v, rng.chance(0.5));
  std::unordered_set<BitVec, mps::util::BitVecHash> seen;
  for (int i = 0; i < 60; ++i) {
    BitVec c = base;
    const auto flips = 1 + rng.below(6);
    for (std::uint64_t f = 0; f < flips; ++f) c.flip(rng.below(n));
    if (!seen.insert(c).second) continue;
    (rng.chance(0.4) ? spec.on : spec.off).push_back(c);
  }
  return spec;
}

/// The containment formulation the oracle used before: ON and OFF built as
/// BDDs minterm by minterm, then on ∧ ¬f = ⊥ and f ∧ off = ⊥.
bool containment_reference(Manager& mgr, const mps::logic::SopSpec& spec,
                           const mps::logic::Cover& cover) {
  const NodeId f = mgr.from_cover(cover);
  const NodeId on = mgr.from_minterms(spec.on);
  const NodeId off = mgr.from_minterms(spec.off);
  return mgr.bdd_and(on, mgr.bdd_not(f)) == kFalse && mgr.bdd_and(f, off) == kFalse;
}

TEST(CscBdd, CoverOracleAgreesWithContainmentAndCubeCheck) {
  using mps::logic::Cover;
  using mps::logic::Cube;
  mps::util::Rng rng(1313);
  int accepted = 0;
  int rejected = 0;
  for (const std::size_t n : {5, 64, 70, 99}) {
    for (int trial = 0; trial < 12; ++trial) {
      const mps::logic::SopSpec spec = random_sparse_spec(rng, n);
      if (spec.on.empty()) continue;
      const Cover minimized = mps::logic::heuristic_minimize(spec);
      std::vector<std::pair<const char*, Cover>> cases;
      cases.emplace_back("minimized", minimized);
      // Undershoot: one cube dropped.
      Cover dropped(n);
      const std::size_t drop = rng.below(minimized.size());
      for (std::size_t i = 0; i < minimized.size(); ++i) {
        if (i != drop) dropped.add(minimized[i]);
      }
      cases.emplace_back("undershoot", dropped);
      // Overreach: free the literals of one cube until it hits OFF.
      if (!spec.off.empty()) {
        Cover widened = minimized;
        Cube& cube = widened.cubes()[rng.below(widened.size())];
        const auto hits_off = [&] {
          for (const BitVec& code : spec.off) {
            if (cube.contains_code(code)) return true;
          }
          return false;
        };
        for (std::size_t v = 0; v < n && !hits_off(); ++v) cube.free_var(v);
        cases.emplace_back("overreach", widened);
      }
      // A don't-care minterm added as an extra cube.
      std::unordered_set<BitVec, mps::util::BitVecHash> cared(spec.on.begin(), spec.on.end());
      cared.insert(spec.off.begin(), spec.off.end());
      for (int attempt = 0; attempt < 64; ++attempt) {
        BitVec dc(n);
        for (std::size_t v = 0; v < n; ++v) dc.set(v, rng.chance(0.5));
        if (cared.count(dc) != 0) continue;
        Cover extra = minimized;
        extra.add(Cube::minterm(dc));
        cases.emplace_back("dc", extra);
        break;
      }
      Manager mgr(n);
      for (const auto& [what, cover] : cases) {
        const bool oracle = cover_matches_spec(mgr, spec, cover);
        EXPECT_EQ(oracle, containment_reference(mgr, spec, cover))
            << what << " n " << n << " trial " << trial;
        EXPECT_EQ(oracle, mps::logic::cover_is_valid(spec, cover))
            << what << " n " << n << " trial " << trial;
        (oracle ? accepted : rejected) += 1;
      }
    }
  }
  // Both verdicts occur, so neither side can pass by always agreeing on one.
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 20);
}

TEST(SolveCnfBdd, AgreesWithDpll) {
  mps::util::Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    mps::sat::Cnf cnf;
    cnf.new_vars(8);
    for (int c = 0; c < 24; ++c) {
      std::vector<mps::sat::Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(mps::sat::Lit::make(
            static_cast<mps::sat::Var>(rng.below(8)), rng.chance(0.5)));
      }
      cnf.add_clause(clause);
    }
    const auto bdd_model = solve_cnf_bdd(cnf);
    const auto dpll = mps::sat::Solver().solve(cnf);
    EXPECT_EQ(bdd_model.has_value(), dpll == mps::sat::Outcome::Sat) << "instance " << i;
    if (bdd_model.has_value()) {
      EXPECT_TRUE(cnf.satisfied_by(*bdd_model));
    }
  }
}

TEST(SolveCnfBdd, NodeCapThrows) {
  // A parity chain forces exponential growth under a hostile clause order;
  // with a tiny cap the limit error must fire (or the instance solves —
  // either way, never a wrong answer).
  mps::util::Rng rng(5);
  mps::sat::Cnf cnf;
  cnf.new_vars(24);
  for (int c = 0; c < 60; ++c) {
    std::vector<mps::sat::Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(mps::sat::Lit::make(
          static_cast<mps::sat::Var>(rng.below(24)), rng.chance(0.5)));
    }
    cnf.add_clause(clause);
  }
  try {
    const auto model = solve_cnf_bdd(cnf, /*max_nodes=*/64);
    if (model.has_value()) {
      EXPECT_TRUE(cnf.satisfied_by(*model));
    }
  } catch (const mps::util::LimitError&) {
    SUCCEED();
  }
}

TEST(SolveCnfBdd, ModuleBackendSynthesizes) {
  // The [19] extension end-to-end: modular synthesis with the BDD backend.
  const auto stg = mps::stg::Builder("toggle")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  mps::core::SynthesisOptions opts;
  opts.sat.use_bdd = true;
  const auto r = mps::core::modular_synthesis(stg, opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.total_literals, 7u);
}

}  // namespace
