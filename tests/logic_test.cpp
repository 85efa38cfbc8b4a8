#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_set>

#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "logic/pla.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "util/common.hpp"

namespace {

using namespace mps::logic;
using mps::util::BitVec;

BitVec code(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) v.set(i, bits[i] == '1');
  return v;
}

TEST(Cube, MintermAndContainment) {
  const Cube m = Cube::minterm(code("101"));
  EXPECT_EQ(m.literal_count(), 3u);
  EXPECT_TRUE(m.contains_code(code("101")));
  EXPECT_FALSE(m.contains_code(code("100")));
  const Cube u(3);  // universal
  EXPECT_TRUE(u.contains(m));
  EXPECT_FALSE(m.contains(u));
  EXPECT_TRUE(m.contains(m));
}

TEST(Cube, FromStringAndToString) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_EQ(c.to_string(), "1-0");
  EXPECT_EQ(c.literal_count(), 2u);
  EXPECT_EQ(c.literal(0), std::optional<bool>(true));
  EXPECT_EQ(c.literal(1), std::nullopt);
  EXPECT_EQ(c.literal(2), std::optional<bool>(false));
  EXPECT_THROW(Cube::from_string("1x0"), mps::util::ParseError);
}

TEST(Cube, SetAndFreeLiterals) {
  Cube c(3);
  c.set_literal(1, true);
  EXPECT_TRUE(c.has_literal(1));
  EXPECT_TRUE(c.contains_code(code("011")));
  EXPECT_FALSE(c.contains_code(code("001")));
  c.free_var(1);
  EXPECT_FALSE(c.has_literal(1));
  EXPECT_EQ(c.literal_count(), 0u);
}

TEST(Cube, IntersectionAndEmptiness) {
  const Cube a = Cube::from_string("1--");
  const Cube b = Cube::from_string("0--");
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersect(b).is_empty());
  const Cube c = Cube::from_string("-1-");
  EXPECT_TRUE(a.intersects(c));
  EXPECT_EQ(a.intersect(c).to_string(), "11-");
}

TEST(Cube, Supercube) {
  const Cube a = Cube::from_string("110");
  const Cube b = Cube::from_string("100");
  EXPECT_EQ(a.supercube(b).to_string(), "1-0");
}

TEST(Cube, DistanceAndConsensus) {
  const Cube a = Cube::from_string("10-");
  const Cube b = Cube::from_string("11-");
  EXPECT_EQ(a.distance(b), 1u);
  const auto cons = a.consensus(b);
  ASSERT_TRUE(cons.has_value());
  EXPECT_EQ(cons->to_string(), "1--");
  const Cube c = Cube::from_string("01-");
  EXPECT_EQ(a.distance(c), 2u);
  EXPECT_FALSE(a.consensus(c).has_value());
}

TEST(Cover, CoversAndLiteralCount) {
  Cover f(3);
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("-11"));
  EXPECT_TRUE(f.covers_code(code("100")));
  EXPECT_TRUE(f.covers_code(code("011")));
  EXPECT_FALSE(f.covers_code(code("001")));
  EXPECT_EQ(f.literal_count(), 3u);
}

TEST(Cover, Expressions) {
  Cover f(2);
  f.add(Cube::from_string("10"));
  f.add(Cube::from_string("-1"));
  EXPECT_EQ(f.to_expression({"a", "b"}), "a b' + b");
  EXPECT_EQ(Cover(2).to_expression({"a", "b"}), "0");
}

// --- minimization -------------------------------------------------------

SopSpec spec_from(std::size_t vars, const std::vector<std::string>& on,
                  const std::vector<std::string>& off) {
  SopSpec s;
  s.num_vars = vars;
  for (const auto& c : on) s.on.push_back(code(c));
  for (const auto& c : off) s.off.push_back(code(c));
  return s;
}

TEST(Minimize, SingleMintermStaysMinterm) {
  const auto spec = spec_from(2, {"11"}, {"00", "01", "10"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.literal_count(), 2u);
  EXPECT_TRUE(cover_is_valid(spec, f));
}

TEST(Minimize, FullOnSetBecomesTautology) {
  const auto spec = spec_from(2, {"00", "01", "10", "11"}, {});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.literal_count(), 0u);
}

TEST(Minimize, DontCaresAreUsed) {
  // ON = {11}, OFF = {00}; 01 and 10 are don't cares: a single literal
  // suffices.
  const auto spec = spec_from(2, {"11"}, {"00"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.literal_count(), 1u);
  EXPECT_TRUE(cover_is_valid(spec, f));
}

TEST(Minimize, XorNeedsTwoCubes) {
  const auto spec = spec_from(2, {"01", "10"}, {"00", "11"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.literal_count(), 4u);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_TRUE(cover_is_irredundant(spec, f));
  for (const Cube& c : f.cubes()) EXPECT_TRUE(cube_is_prime(spec, c));
}

TEST(Minimize, ClassicTextbookFunction) {
  // f = Σm(0,1,2,5,6,7) over 3 vars: minimal SOP has 3 cubes / 6 literals
  // (one of two symmetric solutions).
  const auto spec =
      spec_from(3, {"000", "100", "010", "101", "011", "111"}, {"110", "001"});
  const Cover f = minimize(spec);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_LE(f.literal_count(), 6u);
  EXPECT_GE(f.literal_count(), 6u);
}

TEST(Minimize, HeuristicMatchesExactOnSmallRandomFunctions) {
  mps::util::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    SopSpec spec;
    spec.num_vars = 4;
    for (int x = 0; x < 16; ++x) {
      BitVec c(4);
      for (int v = 0; v < 4; ++v) c.set(v, (x >> v) & 1);
      const double dice = rng.uniform();
      if (dice < 0.4) {
        spec.on.push_back(c);
      } else if (dice < 0.8) {
        spec.off.push_back(c);
      }  // else don't care
    }
    if (spec.on.empty()) continue;
    const Cover heur = heuristic_minimize(spec);
    const auto exact = exact_minimize(spec);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(cover_is_valid(spec, heur));
    EXPECT_TRUE(cover_is_valid(spec, *exact));
    // Heuristic is within 2x of exact on these tiny functions.
    EXPECT_LE(heur.literal_count(), 2 * std::max<std::size_t>(1, exact->literal_count()));
    EXPECT_LE(exact->literal_count(), heur.literal_count());
  }
}

/// Random spec over n variables.  For n <= 8 every code is ON, OFF or
/// don't-care; for larger n the ON/OFF lists are sparse: codes near one
/// random base code (a few bits flipped), so cubes keep several literals.
SopSpec random_spec(mps::util::Rng& rng, std::size_t n) {
  SopSpec spec;
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

// n = 64 and 128 fill their last word; n = 70 leaves it partial.
TEST(Minimize, PrimeAndIrredundantProperties) {
  mps::util::Rng rng(7);
  for (const std::size_t n : {5, 64, 70, 128}) {
    for (int trial = 0; trial < 20; ++trial) {
      const SopSpec spec = random_spec(rng, n);
      if (spec.on.empty()) continue;
      const Cover f = heuristic_minimize(spec);
      EXPECT_TRUE(cover_is_valid(spec, f)) << "n " << n << " trial " << trial;
      EXPECT_TRUE(cover_is_irredundant(spec, f)) << "n " << n << " trial " << trial;
      for (const Cube& c : f.cubes()) {
        EXPECT_EQ(c.num_vars(), n);
        EXPECT_TRUE(cube_is_prime(spec, c)) << "n " << n << " trial " << trial;
      }
    }
  }
}

TEST(Minimize, EmptyOnSetGivesEmptyCover) {
  const auto spec = spec_from(2, {}, {"00"});
  EXPECT_TRUE(minimize(spec).empty());
}

TEST(ExactMinimize, RefusesOversizedInstances) {
  SopSpec spec;
  spec.num_vars = 40;  // way past the DC enumeration cap
  spec.on.push_back(BitVec(40));
  EXPECT_FALSE(exact_minimize(spec).has_value());
}

/// `off_size` distinct OFF codes and up to `on_size` further ON codes over
/// n variables: every code for n <= 8, otherwise codes near one random base
/// code (as in random_spec).
SopSpec spec_with_off_size(mps::util::Rng& rng, std::size_t n, std::size_t off_size,
                           std::size_t on_size) {
  SopSpec spec;
  spec.num_vars = n;
  BitVec base(n);
  for (std::size_t v = 0; v < n; ++v) base.set(v, rng.chance(0.5));
  std::unordered_set<BitVec, mps::util::BitVecHash> seen;
  for (int attempt = 0; attempt < 100000 && spec.off.size() + spec.on.size() < off_size + on_size;
       ++attempt) {
    BitVec c = base;
    if (n <= 8) {
      for (std::size_t v = 0; v < n; ++v) c.set(v, rng.chance(0.5));
    } else {
      const auto flips = 1 + rng.below(8);
      for (std::uint64_t f = 0; f < flips; ++f) c.flip(rng.below(n));
    }
    if (!seen.insert(c).second) continue;
    (spec.off.size() < off_size ? spec.off : spec.on).push_back(c);
  }
  return spec;
}

// EXPAND holds OFF as 64-bit column words: 63, 64, 65 and 129 OFF codes
// end a word short, on, and past a word boundary.  n = 8 is the smallest
// width with room for 129 OFF codes plus ON codes.
TEST(Minimize, PrimeAndIrredundantAtOffColumnWordBoundaries) {
  mps::util::Rng rng(16);
  for (const std::size_t n : {8, 64, 70, 128}) {
    for (const std::size_t off_size : {63, 64, 65, 129}) {
      for (int trial = 0; trial < 4; ++trial) {
        const SopSpec spec = spec_with_off_size(rng, n, off_size, 40);
        ASSERT_EQ(spec.off.size(), off_size);
        ASSERT_FALSE(spec.on.empty());
        const Cover f = heuristic_minimize(spec);
        const std::string where = "n " + std::to_string(n) + " |OFF| " +
                                  std::to_string(off_size) + " trial " + std::to_string(trial);
        EXPECT_TRUE(cover_is_valid(spec, f)) << where;
        EXPECT_TRUE(cover_is_irredundant(spec, f)) << where;
        for (const Cube& c : f.cubes()) EXPECT_TRUE(cube_is_prime(spec, c)) << where;
      }
    }
  }
}

/// Every cube over n variables ("01-" patterns), 3^n of them.
std::vector<Cube> all_cubes(std::size_t n) {
  std::vector<Cube> out;
  std::string pattern(n, '0');
  std::size_t total = 1;
  for (std::size_t v = 0; v < n; ++v) total *= 3;
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t x = i;
    for (std::size_t v = 0; v < n; ++v, x /= 3) pattern[v] = "01-"[x % 3];
    out.push_back(Cube::from_string(pattern));
  }
  return out;
}

// n = 7 and 8 give QM bitmaps of two and four words, so the shifts by
// 2^6 and 2^7 values move whole words.
TEST(ExactMinimize, PrimeSetMatchesBruteForceEnumeration) {
  mps::util::Rng rng(31);
  for (std::size_t n = 1; n <= 8; ++n) {
    const std::vector<Cube> cubes = all_cubes(n);
    for (int trial = 0; trial < (n <= 6 ? 12 : 3); ++trial) {
      const SopSpec spec = random_spec(rng, n);
      std::set<std::string> expected;
      for (const Cube& c : cubes) {
        if (cube_is_prime(spec, c)) expected.insert(c.to_string());
      }
      const auto primes = prime_implicants(spec);
      ASSERT_TRUE(primes.has_value()) << "n " << n << " trial " << trial;
      std::set<std::string> got;
      for (const Cube& c : primes->cubes()) {
        EXPECT_TRUE(got.insert(c.to_string()).second) << "duplicate prime " << c.to_string();
      }
      EXPECT_EQ(got, expected) << "n " << n << " trial " << trial;
      // Above 6 variables the covering can stop at its branch-node cap with
      // a cover worse than the heuristic's (minimize() keeps the better).
      if (spec.on.empty() || n > 6) continue;
      const auto exact = exact_minimize(spec);
      ASSERT_TRUE(exact.has_value());
      EXPECT_TRUE(cover_is_valid(spec, *exact));
      EXPECT_LE(exact->literal_count(), heuristic_minimize(spec).literal_count());
    }
  }
}

/// exact_minimize with a given exact_max_primes.
std::optional<Cover> exact_with_cap(const SopSpec& spec, std::size_t cap) {
  MinimizeOptions opts;
  opts.exact_max_primes = cap;
  return exact_minimize(spec, opts);
}

TEST(ExactMinimize, PrimeCapChecksEachLevelAndTheRunningCount) {
  // Over 4 variables, ON = the codes of weight 1, 2 and 4 and OFF = weight
  // 0 and 3.  Level 0 holds 11 implicants, level 1 the 12 weight-1/weight-2
  // edges, level 2 none (every square needs a weight-0 or weight-3 code).
  // The primes are those 12 edges and the isolated 1111: 13.
  SopSpec spec;
  spec.num_vars = 4;
  for (int x = 0; x < 16; ++x) {
    BitVec c(4);
    for (int v = 0; v < 4; ++v) c.set(v, (x >> v) & 1);
    const int weight = std::popcount(static_cast<unsigned>(x));
    (weight == 0 || weight == 3 ? spec.off : spec.on).push_back(c);
  }
  EXPECT_FALSE(exact_with_cap(spec, 10).has_value());  // level 0: 11 > 10
  EXPECT_FALSE(exact_with_cap(spec, 11).has_value());  // level 1: 12 > 11
  EXPECT_FALSE(exact_with_cap(spec, 12).has_value());  // primes after level 1: 13 > 12
  EXPECT_TRUE(exact_with_cap(spec, 13).has_value());

  // The same rule on random functions, against brute-force level sizes:
  // nullopt iff some level or the prime total exceeds the cap.
  mps::util::Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial % 3);
    const SopSpec f = random_spec(rng, n);
    if (f.on.empty()) continue;
    std::vector<std::size_t> level(n + 1, 0);
    std::size_t primes = 0;
    for (const Cube& c : all_cubes(n)) {
      bool hits_off = false;
      for (const BitVec& code : f.off) hits_off = hits_off || c.contains_code(code);
      if (!hits_off) ++level[n - c.literal_count()];
      if (cube_is_prime(f, c)) ++primes;
    }
    const std::size_t widest = *std::max_element(level.begin(), level.end());
    for (std::size_t cap = 0; cap <= std::max(widest, primes) + 1; ++cap) {
      EXPECT_EQ(exact_with_cap(f, cap).has_value(), widest <= cap && primes <= cap)
          << "trial " << trial << " cap " << cap;
    }
  }
}

TEST(ExactMinimize, LevelZeroIsCountedBeforeItsBitmapExists) {
  // 2^40 values: the level-0 count alone exceeds the cap, so the call
  // returns at once instead of allocating 2^40 bits.
  SopSpec spec;
  spec.num_vars = 40;
  spec.on.push_back(BitVec(40));
  MinimizeOptions opts;
  opts.exact_max_vars = 63;
  EXPECT_FALSE(exact_minimize(spec, opts).has_value());
  EXPECT_FALSE(prime_implicants(spec, opts).has_value());
}

// --- extraction ---------------------------------------------------------

TEST(Extract, CodeLessIsTheRenderingOrder) {
  mps::util::Rng rng(99);
  for (const std::size_t n : {5, 64, 70, 130}) {
    for (int trial = 0; trial < 200; ++trial) {
      BitVec a(n), b(n);
      for (std::size_t v = 0; v < n; ++v) a.set(v, rng.chance(0.5));
      b = a;
      // Mostly near-equal codes, so the first difference lands in any word.
      const auto flips = rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) b.flip(rng.below(n));
      EXPECT_EQ(code_less(a, b), a.to_string() < b.to_string()) << "n " << n;
      EXPECT_EQ(code_less(b, a), b.to_string() < a.to_string()) << "n " << n;
    }
  }
}

TEST(Extract, HandshakeNextStateFunctions) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  const auto spec = extract_next_state(g, g.find_signal("a"));
  // a follows r: F_a = r.  States 10 and 11 are ON; 00, 01 OFF.
  const Cover f = minimize(spec);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_EQ(f.literal_count(), 1u);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Extract, ImpliedValueSemantics) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  const auto a = g.find_signal("a");
  for (mps::sg::StateId s = 0; s < g.num_states(); ++s) {
    const bool v = implied_value(g, s, a);
    if (g.excited_dir(s, a, true)) {
      EXPECT_TRUE(v);  // rising-excited -> 1
    }
    if (g.excited_dir(s, a, false)) {
      EXPECT_FALSE(v);  // falling-excited -> 0
    }
  }
}

TEST(Extract, CscViolationDetected) {
  const auto stg = mps::stg::Builder("toggle")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  EXPECT_THROW(extract_next_state(g, g.find_signal("x")), mps::util::SemanticsError);
}

// --- PLA I/O -------------------------------------------------------------

TEST(Pla, WriteCoverAndSpec) {
  Cover f(3);
  f.add(Cube::from_string("1-0"));
  const std::string text = write_pla(f, {"a", "b", "c"});
  EXPECT_NE(text.find(".i 3"), std::string::npos);
  EXPECT_NE(text.find("1-0 1"), std::string::npos);
  EXPECT_NE(text.find(".ilb a b c"), std::string::npos);
}

TEST(Pla, ParseRoundTrip) {
  const auto spec = spec_from(3, {"101", "111"}, {"000"});
  const SopSpec back = parse_pla(write_pla(spec));
  EXPECT_EQ(back.num_vars, 3u);
  EXPECT_EQ(back.on.size(), 2u);
  EXPECT_EQ(back.off.size(), 1u);
}

TEST(Pla, DashExpansion) {
  const SopSpec spec = parse_pla(".i 3\n.o 1\n1-- 1\n000 0\n.e\n");
  EXPECT_EQ(spec.on.size(), 4u);  // 1-- expands to 4 minterms
  EXPECT_EQ(spec.off.size(), 1u);
}

TEST(Pla, Errors) {
  EXPECT_THROW(parse_pla(".i 2\n.o 2\n"), mps::util::ParseError);
  EXPECT_THROW(parse_pla("11 1\n"), mps::util::ParseError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n111 1\n"), mps::util::ParseError);
}

}  // namespace
