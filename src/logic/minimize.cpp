#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/common.hpp"

namespace mps::logic {

namespace {

bool cube_hits_off(const Cube& cube, const std::vector<util::BitVec>& off) {
  for (const auto& code : off) {
    if (cube.contains_code(code)) return true;
  }
  return false;
}

// The heuristic loop runs on a packed form private to this file.  A code
// over n variables is W = ceil(n/64) words (bit v in word v/64, as in
// util::BitVec); a cube is W `care` words (bit set = the variable carries a
// literal) followed by W `value` words (the literal's polarity, kept zero
// where care is clear, so equal cubes have equal words).  A cube contains a
// code iff ((code ^ value) & care) == 0 in every word.

std::size_t words_for(std::size_t num_vars) {
  return std::max<std::size_t>(1, (num_vars + 63) / 64);
}

bool cube_contains_code(const std::uint64_t* care, const std::uint64_t* value,
                        const std::uint64_t* code, std::size_t w) {
  for (std::size_t k = 0; k < w; ++k) {
    if ((code[k] ^ value[k]) & care[k]) return false;
  }
  return true;
}

/// Does cube a contain every minterm of cube b?
bool cube_contains(const std::uint64_t* care_a, const std::uint64_t* value_a,
                   const std::uint64_t* care_b, const std::uint64_t* value_b, std::size_t w) {
  for (std::size_t k = 0; k < w; ++k) {
    if ((care_a[k] & ~care_b[k]) || ((value_a[k] ^ value_b[k]) & care_a[k])) return false;
  }
  return true;
}

/// Flat array of codes, W words each.
std::vector<std::uint64_t> pack_codes(const std::vector<util::BitVec>& codes, std::size_t w) {
  std::vector<std::uint64_t> out(codes.size() * w, 0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t k = 0; k < codes[i].num_words() && k < w; ++k) {
      out[i * w + k] = codes[i].word(k);
    }
  }
  return out;
}

/// Flat array of cubes, 2W words each (care, then value).
class CubeList {
 public:
  explicit CubeList(std::size_t w) : w_(w) {}

  std::size_t size() const { return words_.size() / (2 * w_); }
  bool empty() const { return words_.empty(); }
  const std::uint64_t* care(std::size_t i) const { return &words_[i * 2 * w_]; }
  const std::uint64_t* value(std::size_t i) const { return care(i) + w_; }

  void push(const std::uint64_t* care_words, const std::uint64_t* value_words) {
    words_.insert(words_.end(), care_words, care_words + w_);
    words_.insert(words_.end(), value_words, value_words + w_);
  }

  std::size_t literal_count(std::size_t i) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < w_; ++k) n += static_cast<std::size_t>(std::popcount(care(i)[k]));
    return n;
  }
  std::size_t literal_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); ++i) n += literal_count(i);
    return n;
  }

  bool contains_code(std::size_t i, const std::uint64_t* code) const {
    return cube_contains_code(care(i), value(i), code, w_);
  }
  /// Does cube i contain cube j?
  bool contains(std::size_t i, std::size_t j) const {
    return cube_contains(care(i), value(i), care(j), value(j), w_);
  }

  Cover to_cover(std::size_t num_vars) const {
    Cover out(num_vars);
    for (std::size_t i = 0; i < size(); ++i) {
      Cube c(num_vars);
      for (std::size_t v = 0; v < num_vars; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        if (care(i)[v >> 6] & bit) c.set_literal(v, (value(i)[v >> 6] & bit) != 0);
      }
      out.add(std::move(c));
    }
    return out;
  }

 private:
  std::size_t w_;
  std::vector<std::uint64_t> words_;
};

/// Does the cube contain any of the packed codes?
bool hits_any(const std::uint64_t* care, const std::uint64_t* value,
              const std::vector<std::uint64_t>& codes, std::size_t w) {
  if (w == 1) {  // the common case, kept free of the inner word loop
    const std::uint64_t c = care[0];
    const std::uint64_t v = value[0];
    for (const std::uint64_t code : codes) {
      if (((code ^ v) & c) == 0) return true;
    }
    return false;
  }
  for (std::size_t base = 0; base < codes.size(); base += w) {
    if (cube_contains_code(care, value, &codes[base], w)) return true;
  }
  return false;
}

/// Expand: free literals in the given variable order while the cube stays
/// disjoint from OFF.  Each literal is cleared in place and put back if the
/// widened cube hits OFF.  Produces a prime cube.
void expand_cube(std::uint64_t* care, std::uint64_t* value, const std::vector<std::uint64_t>& off,
                 std::size_t w, const std::vector<std::size_t>& var_order) {
  for (const std::size_t v : var_order) {
    const std::size_t k = v >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if (!(care[k] & bit)) continue;
    const std::uint64_t polarity = value[k] & bit;
    care[k] &= ~bit;
    value[k] &= ~bit;
    if (hits_any(care, value, off, w)) {
      care[k] |= bit;
      value[k] |= polarity;
    }
  }
}

/// Expand every cube of `cover`; a prime already contained in an earlier
/// prime is skipped, and primes contained in a later one are dropped (among
/// equal cubes the first is kept).
CubeList expand(const CubeList& cover, const std::vector<std::uint64_t>& off, std::size_t w,
                const std::vector<std::size_t>& var_order) {
  CubeList primes(w);
  std::vector<std::uint64_t> scratch(2 * w);
  for (std::size_t i = 0; i < cover.size(); ++i) {
    std::copy(cover.care(i), cover.care(i) + 2 * w, scratch.begin());
    std::uint64_t* care = scratch.data();
    std::uint64_t* value = care + w;
    expand_cube(care, value, off, w, var_order);
    bool contained = false;
    for (std::size_t e = 0; e < primes.size() && !contained; ++e) {
      contained = cube_contains(primes.care(e), primes.value(e), care, value, w);
    }
    if (!contained) primes.push(care, value);
  }
  CubeList kept(w);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < primes.size() && !contained; ++j) {
      if (i == j) continue;
      if (primes.contains(j, i) && !(primes.contains(i, j) && i < j)) contained = true;
    }
    if (!contained) kept.push(primes.care(i), primes.value(i));
  }
  return kept;
}

/// Irredundant: keep essential cubes (sole coverer of some ON minterm),
/// then greedily cover the remaining ON minterms: most newly covered
/// minterms, then fewest literals, then lowest index.  Each candidate's gain
/// is kept up to date as minterms get covered.
CubeList make_irredundant(const CubeList& cover, const std::vector<std::uint64_t>& on,
                          std::size_t w) {
  const std::size_t nc = cover.size();
  const std::size_t num_on = on.size() / w;
  // coverers of each minterm, and minterms of each cube (CSR form).
  std::vector<std::uint32_t> coverer_start(num_on + 1, 0);
  std::vector<std::uint32_t> coverers;
  std::vector<std::uint32_t> cube_count(nc, 0);
  for (std::size_t mi = 0; mi < num_on; ++mi) {
    for (std::uint32_t ci = 0; ci < nc; ++ci) {
      if (cover.contains_code(ci, &on[mi * w])) {
        coverers.push_back(ci);
        ++cube_count[ci];
      }
    }
    coverer_start[mi + 1] = static_cast<std::uint32_t>(coverers.size());
    MPS_ASSERT(coverer_start[mi + 1] > coverer_start[mi]);
  }
  std::vector<std::uint32_t> minterm_start(nc + 1, 0);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    minterm_start[ci + 1] = minterm_start[ci] + cube_count[ci];
  }
  std::vector<std::uint32_t> minterms(coverers.size());
  std::vector<std::uint32_t> fill(minterm_start.begin(), minterm_start.end() - 1);
  for (std::uint32_t mi = 0; mi < num_on; ++mi) {
    for (std::uint32_t p = coverer_start[mi]; p < coverer_start[mi + 1]; ++p) {
      minterms[fill[coverers[p]]++] = mi;
    }
  }

  std::vector<bool> selected(nc, false);
  std::vector<bool> covered(num_on, false);
  for (std::size_t mi = 0; mi < num_on; ++mi) {
    const std::uint32_t first = coverer_start[mi];
    if (coverer_start[mi + 1] == first + 1) selected[coverers[first]] = true;
  }
  std::vector<std::size_t> gain(cube_count.begin(), cube_count.end());
  std::size_t uncovered = num_on;
  const auto cover_minterms_of = [&](std::uint32_t ci) {
    for (std::uint32_t p = minterm_start[ci]; p < minterm_start[ci + 1]; ++p) {
      const std::uint32_t mi = minterms[p];
      if (covered[mi]) continue;
      covered[mi] = true;
      --uncovered;
      for (std::uint32_t q = coverer_start[mi]; q < coverer_start[mi + 1]; ++q) --gain[coverers[q]];
    }
  };
  for (std::uint32_t ci = 0; ci < nc; ++ci) {
    if (selected[ci]) cover_minterms_of(ci);
  }
  std::vector<std::size_t> lits(nc);
  for (std::size_t ci = 0; ci < nc; ++ci) lits[ci] = cover.literal_count(ci);
  while (uncovered > 0) {
    std::uint32_t best = 0;
    std::size_t best_gain = 0;
    std::size_t best_lits = ~std::size_t{0};
    for (std::uint32_t ci = 0; ci < nc; ++ci) {
      if (selected[ci]) continue;
      if (gain[ci] > best_gain || (gain[ci] == best_gain && gain[ci] > 0 && lits[ci] < best_lits)) {
        best = ci;
        best_gain = gain[ci];
        best_lits = lits[ci];
      }
    }
    MPS_ASSERT(best_gain > 0);
    selected[best] = true;
    cover_minterms_of(best);
  }
  CubeList out(w);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    if (selected[ci]) out.push(cover.care(ci), cover.value(ci));
  }
  return out;
}

/// Reduce (sequential, as in espresso): shrink each cube in turn to the
/// supercube of the ON minterms no *other current* cube covers; drop cubes
/// whose minterms are all covered elsewhere.  Processing against the
/// partially reduced cover preserves total ON coverage.  `minterm_care`
/// has the care bit of every variable set.
CubeList reduce(const CubeList& cover, const std::vector<std::uint64_t>& on,
                const std::vector<std::uint64_t>& minterm_care, std::size_t w) {
  const std::size_t num_on = on.size() / w;
  // How many current cubes cover each ON minterm.
  std::vector<std::uint32_t> coverers(num_on, 0);
  for (std::size_t mi = 0; mi < num_on; ++mi) {
    for (std::size_t ci = 0; ci < cover.size(); ++ci) {
      coverers[mi] += cover.contains_code(ci, &on[mi * w]) ? 1 : 0;
    }
  }
  CubeList out(w);
  std::vector<std::uint64_t> care(w), value(w);
  std::vector<std::uint32_t> inside;
  for (std::size_t ci = 0; ci < cover.size(); ++ci) {
    inside.clear();
    bool any = false;
    for (std::uint32_t mi = 0; mi < num_on; ++mi) {
      const std::uint64_t* code = &on[mi * w];
      if (!cover.contains_code(ci, code)) continue;
      inside.push_back(mi);
      if (coverers[mi] != 1) continue;
      if (!any) {
        std::copy(minterm_care.begin(), minterm_care.end(), care.begin());
        std::copy(code, code + w, value.begin());
        any = true;
      } else {
        for (std::size_t k = 0; k < w; ++k) {
          care[k] &= ~(value[k] ^ code[k]);
          value[k] &= care[k];
        }
      }
    }
    for (const std::uint32_t mi : inside) --coverers[mi];
    if (!any) continue;  // every minterm is covered elsewhere: drop the cube
    for (const std::uint32_t mi : inside) {
      coverers[mi] += cube_contains_code(care.data(), value.data(), &on[mi * w], w) ? 1 : 0;
    }
    out.push(care.data(), value.data());
  }
  return out;
}

}  // namespace

Cover heuristic_minimize(const SopSpec& spec, int loops) {
  const std::size_t n = spec.num_vars;
  if (spec.on.empty()) return Cover(n);
  const std::size_t w = words_for(n);
  const std::vector<std::uint64_t> on = pack_codes(spec.on, w);
  const std::vector<std::uint64_t> off = pack_codes(spec.off, w);

  std::vector<std::size_t> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = v;
  std::vector<std::size_t> reversed(order.rbegin(), order.rend());

  // Start from the minterm cubes of ON.
  CubeList cover(w);
  std::vector<std::uint64_t> minterm_care(w, 0);  // every variable carries a literal
  for (std::size_t v = 0; v < n; ++v) minterm_care[v >> 6] |= std::uint64_t{1} << (v & 63);
  for (std::size_t mi = 0; mi < spec.on.size(); ++mi) cover.push(minterm_care.data(), &on[mi * w]);

  std::size_t best_lits = ~std::size_t{0};
  CubeList best = cover;
  bool forward = true;
  for (int loop = 0; loop < loops; ++loop) {
    const CubeList expanded = expand(cover, off, w, forward ? order : reversed);
    CubeList irred = make_irredundant(expanded, on, w);
    const std::size_t lits = irred.literal_count();
    if (lits < best_lits) {
      best_lits = lits;
      best = irred;
    }
    if (loop + 1 == loops) break;
    // REDUCE, then loop back to EXPAND in the other direction.
    cover = reduce(irred, on, minterm_care, w);
    if (cover.empty()) break;
    forward = !forward;
  }
  Cover result = best.to_cover(n);
  MPS_ASSERT(cover_is_valid(spec, result));
  return result;
}

namespace {

/// QM implicant: fixed `values` on the non-dash positions.
struct Implicant {
  std::uint64_t values;  // bit v = value of variable v (0 where dashed)
  std::uint64_t dashes;  // bit v = variable v is free
  bool operator==(const Implicant&) const = default;
};
struct ImplicantHash {
  std::size_t operator()(const Implicant& a) const {
    return static_cast<std::size_t>(util::hash_combine(a.values, a.dashes));
  }
};

std::uint64_t code_to_u64(const util::BitVec& code) {
  std::uint64_t x = 0;
  for (std::size_t v = 0; v < code.size(); ++v) {
    if (code.test(v)) x |= std::uint64_t{1} << v;
  }
  return x;
}

Cube implicant_to_cube(const Implicant& imp, std::size_t num_vars) {
  Cube c(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) {
    if (!((imp.dashes >> v) & 1)) c.set_literal(v, (imp.values >> v) & 1);
  }
  return c;
}

/// Branch-and-bound unate covering: rows = ON minterms, cols = primes,
/// cost = literal count.  Returns selected column indices.
class CoveringSolver {
 public:
  CoveringSolver(std::size_t num_rows, std::vector<std::vector<std::uint32_t>> col_rows,
                 std::vector<int> col_cost, std::int64_t max_nodes)
      : num_rows_(num_rows),
        col_rows_(std::move(col_rows)),
        col_cost_(std::move(col_cost)),
        max_nodes_(max_nodes) {
    row_cols_.resize(num_rows_);
    for (std::uint32_t c = 0; c < col_rows_.size(); ++c) {
      for (const std::uint32_t r : col_rows_[c]) row_cols_[r].push_back(c);
    }
  }

  std::optional<std::vector<std::uint32_t>> solve() {
    std::vector<bool> covered(num_rows_, false);
    std::vector<std::uint32_t> chosen;
    best_cost_ = std::numeric_limits<int>::max();
    branch(covered, chosen, 0);
    if (nodes_ >= max_nodes_ && best_.empty() && num_rows_ > 0) return std::nullopt;
    return best_;
  }

 private:
  void branch(std::vector<bool>& covered, std::vector<std::uint32_t>& chosen, int cost) {
    if (++nodes_ >= max_nodes_ && !best_.empty()) return;
    if (cost >= best_cost_) return;
    // Find the uncovered row with the fewest candidate columns.
    std::uint32_t pick = 0xFFFFFFFFu;
    std::size_t fewest = ~std::size_t{0};
    for (std::uint32_t r = 0; r < num_rows_; ++r) {
      if (covered[r]) continue;
      std::size_t k = 0;
      for (const std::uint32_t c : row_cols_[r]) k += in_use(c, chosen) ? 0 : 1;
      if (k < fewest) {
        fewest = k;
        pick = r;
      }
    }
    if (pick == 0xFFFFFFFFu) {  // all covered
      best_cost_ = cost;
      best_ = chosen;
      return;
    }
    // Simple lower bound: at least one more column is needed.
    int min_extra = std::numeric_limits<int>::max();
    for (const std::uint32_t c : row_cols_[pick]) min_extra = std::min(min_extra, col_cost_[c]);
    if (min_extra == std::numeric_limits<int>::max() || cost + min_extra >= best_cost_) return;

    for (const std::uint32_t c : row_cols_[pick]) {
      std::vector<std::uint32_t> newly;
      for (const std::uint32_t r : col_rows_[c]) {
        if (!covered[r]) {
          covered[r] = true;
          newly.push_back(r);
        }
      }
      chosen.push_back(c);
      branch(covered, chosen, cost + col_cost_[c]);
      chosen.pop_back();
      for (const std::uint32_t r : newly) covered[r] = false;
      if (nodes_ >= max_nodes_ && !best_.empty()) return;
    }
  }

  static bool in_use(std::uint32_t c, const std::vector<std::uint32_t>& chosen) {
    return std::find(chosen.begin(), chosen.end(), c) != chosen.end();
  }

  std::size_t num_rows_;
  std::vector<std::vector<std::uint32_t>> col_rows_;
  std::vector<int> col_cost_;
  std::vector<std::vector<std::uint32_t>> row_cols_;
  std::int64_t max_nodes_;
  std::int64_t nodes_ = 0;
  int best_cost_ = 0;
  std::vector<std::uint32_t> best_;
};

}  // namespace

std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts) {
  const std::size_t n = spec.num_vars;
  if (n > opts.exact_max_vars || n >= 64) return std::nullopt;
  if (spec.on.empty()) return Cover(n);

  // Enumerate ON ∪ DC (= everything not OFF) as the implicant seed set.
  std::unordered_set<std::uint64_t> off_set;
  for (const auto& code : spec.off) off_set.insert(code_to_u64(code));

  std::unordered_set<Implicant, ImplicantHash> current;
  const std::uint64_t space = std::uint64_t{1} << n;
  for (std::uint64_t x = 0; x < space; ++x) {
    if (!off_set.contains(x)) current.insert(Implicant{x, 0});
  }

  // Iterative pairwise combination, collecting primes (uncombined cubes).
  std::vector<Implicant> primes;
  while (!current.empty()) {
    if (current.size() > opts.exact_max_primes) return std::nullopt;
    std::unordered_set<Implicant, ImplicantHash> next;
    std::unordered_set<Implicant, ImplicantHash> combined;
    std::vector<Implicant> list(current.begin(), current.end());
    // Group by dash mask for O(k) neighbour probing.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_dashes;
    std::unordered_set<Implicant, ImplicantHash> lookup(current.begin(), current.end());
    for (std::uint32_t i = 0; i < list.size(); ++i) by_dashes[list[i].dashes].push_back(i);
    for (const Implicant& imp : list) {
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << v;
        if (imp.dashes & bit) continue;
        const Implicant partner{imp.values ^ bit, imp.dashes};
        if (!lookup.contains(partner)) continue;
        combined.insert(imp);
        combined.insert(partner);
        next.insert(Implicant{imp.values & ~bit & ~(imp.dashes | bit), imp.dashes | bit});
      }
    }
    for (const Implicant& imp : list) {
      if (!combined.contains(imp)) primes.push_back(imp);
    }
    current = std::move(next);
    if (primes.size() > opts.exact_max_primes) return std::nullopt;
  }

  // Covering: only primes covering at least one ON minterm matter.
  std::vector<util::BitVec> on_codes = spec.on;
  std::vector<std::vector<std::uint32_t>> col_rows;
  std::vector<int> col_cost;
  std::vector<Implicant> cols;
  for (const Implicant& p : primes) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < on_codes.size(); ++r) {
      const std::uint64_t code = code_to_u64(on_codes[r]);
      if ((code & ~p.dashes) == (p.values & ~p.dashes)) rows.push_back(r);
    }
    if (!rows.empty()) {
      col_rows.push_back(std::move(rows));
      col_cost.push_back(static_cast<int>(n - static_cast<std::size_t>(
                                                  std::popcount(p.dashes & (space - 1)))));
      cols.push_back(p);
    }
  }

  CoveringSolver solver(on_codes.size(), std::move(col_rows), std::move(col_cost),
                        opts.exact_max_branch_nodes);
  const auto chosen = solver.solve();
  if (!chosen.has_value()) return std::nullopt;

  Cover out(n);
  for (const std::uint32_t c : *chosen) out.add(implicant_to_cube(cols[c], n));
  MPS_ASSERT(cover_is_valid(spec, out));
  return out;
}

Cover minimize(const SopSpec& spec, const MinimizeOptions& opts) {
  Cover heur = heuristic_minimize(spec, opts.heuristic_loops);
  if (opts.try_exact) {
    if (const auto exact = exact_minimize(spec, opts); exact.has_value()) {
      if (exact->literal_count() < heur.literal_count()) return *exact;
    }
  }
  return heur;
}

bool cover_is_valid(const SopSpec& spec, const Cover& cover) {
  for (const auto& code : spec.on) {
    if (!cover.covers_code(code)) return false;
  }
  for (const auto& code : spec.off) {
    if (cover.covers_code(code)) return false;
  }
  return true;
}

bool cube_is_prime(const SopSpec& spec, const Cube& cube) {
  if (cube_hits_off(cube, spec.off)) return false;
  for (std::size_t v = 0; v < spec.num_vars; ++v) {
    if (!cube.has_literal(v)) continue;
    Cube widened = cube;
    widened.free_var(v);
    if (!cube_hits_off(widened, spec.off)) return false;
  }
  return true;
}

bool cover_is_irredundant(const SopSpec& spec, const Cover& cover) {
  for (std::size_t ci = 0; ci < cover.size(); ++ci) {
    bool needed = false;
    for (const auto& code : spec.on) {
      if (!cover[ci].contains_code(code)) continue;
      bool elsewhere = false;
      for (std::size_t cj = 0; cj < cover.size() && !elsewhere; ++cj) {
        if (cj != ci && cover[cj].contains_code(code)) elsewhere = true;
      }
      if (!elsewhere) {
        needed = true;
        break;
      }
    }
    if (!needed) return false;
  }
  return true;
}

}  // namespace mps::logic
