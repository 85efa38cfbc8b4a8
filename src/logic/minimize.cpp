#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/obs.hpp"
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

/// The OFF-set held as columns: bit i of column v is variable v of OFF code
/// i, over ceil(|OFF|/64) words.  A literal's column is the variable's
/// column (positive literal) or its complement (negative), taken on the
/// fly.  A cube contains OFF code i iff bit i is set in the AND of its
/// literals' columns; every such AND starts from `valid()`, which clears
/// the unused bits of the last word.
class OffColumns {
 public:
  OffColumns(const std::vector<util::BitVec>& off, std::size_t num_vars)
      : words_((off.size() + 63) / 64),
        bits_(num_vars * words_, 0),
        valid_(words_, ~std::uint64_t{0}) {
    for (std::size_t i = 0; i < off.size(); ++i) {
      MPS_ASSERT(off[i].size() == num_vars);
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      for (std::size_t k = 0; k < off[i].num_words(); ++k) {
        for (std::uint64_t x = off[i].word(k); x != 0; x &= x - 1) {
          const std::size_t v = 64 * k + static_cast<std::size_t>(std::countr_zero(x));
          bits_[v * words_ + (i >> 6)] |= bit;
        }
      }
    }
    if (off.size() % 64 != 0) valid_.back() = (std::uint64_t{1} << (off.size() % 64)) - 1;
  }

  std::size_t words() const { return words_; }
  const std::uint64_t* valid() const { return valid_.data(); }

  /// out = in & column of the literal (v, polarity), word by word; true
  /// iff some bit of out is set.
  bool and_literal(std::uint64_t* out, const std::uint64_t* in, std::size_t v,
                   bool polarity) const {
    const std::uint64_t* col = bits_.data() + v * words_;
    const std::uint64_t flip = polarity ? 0 : ~std::uint64_t{0};
    std::uint64_t any = 0;
    for (std::size_t k = 0; k < words_; ++k) {
      out[k] = in[k] & (col[k] ^ flip);
      any |= out[k];
    }
    return any != 0;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;   ///< num_vars columns of words_ words
  std::vector<std::uint64_t> valid_;  ///< the OFF codes that exist
};

/// Buffers reused across the cubes of one EXPAND pass.
struct ExpandScratch {
  std::vector<std::size_t> lits;      ///< the cube's literals, in variable order
  std::vector<std::uint64_t> suffix;  ///< row k: AND of the columns of lits[k..]
  std::vector<std::uint64_t> kept;    ///< AND of the columns of the literals kept so far
};

/// Expand: free literals in the given variable order while the cube stays
/// disjoint from OFF.  Produces a prime cube.  Freeing lits[k] hits OFF iff
/// the AND of every other literal's column is nonzero; those literals are
/// the kept ones before k and all of lits[k+1..], so each test ANDs the
/// running `kept` columns with suffix row k+1.  Rows only lose bits as k
/// falls: below the first zero row they are all zero, and the literals
/// there are freed without a test.  Returns the column words ANDed.
std::int64_t expand_cube(std::uint64_t* care, std::uint64_t* value, const OffColumns& off,
                         const std::vector<std::size_t>& var_order, ExpandScratch& s) {
  const std::size_t nw = off.words();
  s.lits.clear();
  for (const std::size_t v : var_order) {
    if ((care[v >> 6] >> (v & 63)) & 1) s.lits.push_back(v);
  }
  const auto polarity = [&](std::size_t v) { return ((value[v >> 6] >> (v & 63)) & 1) != 0; };
  const std::size_t m = s.lits.size();
  s.suffix.resize((m + 1) * nw);
  std::uint64_t* rows = s.suffix.data();  // may be empty: |OFF| = 0 gives nw = 0
  std::copy(off.valid(), off.valid() + nw, rows + m * nw);
  std::int64_t words = 0;
  std::size_t zero_rows = 0;  // rows 0 .. zero_rows-1 are zero
  for (std::size_t k = m; k-- > 0;) {
    words += static_cast<std::int64_t>(nw);
    if (!off.and_literal(rows + k * nw, rows + (k + 1) * nw, s.lits[k], polarity(s.lits[k]))) {
      zero_rows = k + 1;
      break;
    }
  }
  s.kept.assign(off.valid(), off.valid() + nw);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t v = s.lits[k];
    bool hit = false;
    if (k + 1 >= zero_rows) {
      const std::uint64_t* rest = rows + (k + 1) * nw;
      std::size_t w = 0;
      while (w < nw && (s.kept[w] & rest[w]) == 0) ++w;
      words += static_cast<std::int64_t>(std::min(w + 1, nw));
      hit = w < nw;
    }
    if (hit) {  // the widened cube would hit OFF: keep the literal
      off.and_literal(s.kept.data(), s.kept.data(), v, polarity(v));
      words += static_cast<std::int64_t>(nw);
    } else {
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      care[v >> 6] &= ~bit;
      value[v >> 6] &= ~bit;
    }
  }
  return words;
}

/// Expand every cube of `cover`; a prime already contained in an earlier
/// prime is skipped, and primes contained in a later one are dropped (among
/// equal cubes the first is kept).  Adds the column words ANDed to `words`.
CubeList expand(const CubeList& cover, const OffColumns& off, std::size_t w,
                const std::vector<std::size_t>& var_order, std::int64_t* words) {
  CubeList primes(w);
  std::vector<std::uint64_t> cube(2 * w);
  ExpandScratch scratch;
  for (std::size_t i = 0; i < cover.size(); ++i) {
    std::copy(cover.care(i), cover.care(i) + 2 * w, cube.begin());
    std::uint64_t* care = cube.data();
    std::uint64_t* value = care + w;
    *words += expand_cube(care, value, off, var_order, scratch);
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
  const OffColumns off(spec.off, n);

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
  std::int64_t expand_words = 0;
  for (int loop = 0; loop < loops; ++loop) {
    const CubeList expanded = expand(cover, off, w, forward ? order : reversed, &expand_words);
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
  obs::counter_add("logic.expand_words", expand_words);
  Cover result = best.to_cover(n);
  MPS_ASSERT(cover_is_valid(spec, result));
  return result;
}

namespace {

/// QM implicant: fixed `values` on the non-dash positions.
struct Implicant {
  std::uint64_t values;  // bit v = value of variable v (0 where dashed)
  std::uint64_t dashes;  // bit v = variable v is free
};

std::uint64_t code_to_u64(const util::BitVec& code) {
  return code.num_words() == 0 ? 0 : code.word(0);
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

// Quine-McCluskey on bitmaps over the 2^n values of n < 64 variables (bit
// x in word x/64).  For a dash mask D, bit x of B_D is set iff the
// implicant {values x, dashes D} lies inside ON ∪ DC; such an x has every
// bit of D clear.  Level k holds the bitmaps of the masks with k dashes.

/// Word k of the values with bit v clear.
std::uint64_t bit_clear_mask(std::size_t v, std::size_t k) {
  static constexpr std::uint64_t kLow[6] = {0x5555555555555555, 0x3333333333333333,
                                            0x0F0F0F0F0F0F0F0F, 0x00FF00FF00FF00FF,
                                            0x0000FFFF0000FFFF, 0x00000000FFFFFFFF};
  if (v < 6) return kLow[v];
  return ((k >> (v - 6)) & 1) != 0 ? 0 : ~std::uint64_t{0};
}

/// Word k of bitmap b moved down by 2^v values (bit x takes bit x + 2^v).
/// Only values with bit v clear are read from the result, and for v < 6
/// such an x and x + 2^v share a word, so no bit crosses a word boundary.
std::uint64_t shifted_down(const std::uint64_t* b, std::size_t words, std::size_t v,
                           std::size_t k) {
  if (v < 6) return b[k] >> (1u << v);
  const std::size_t d = std::size_t{1} << (v - 6);
  return k + d < words ? b[k + d] : 0;
}

/// Word k of bitmap b moved up by 2^v values (bit x + 2^v takes bit x), for
/// a b that holds only values with bit v clear (so, as above, no bit
/// crosses a word boundary when v < 6).
std::uint64_t shifted_up(const std::uint64_t* b, std::size_t v, std::size_t k) {
  if (v < 6) return b[k] << (1u << v);
  const std::size_t d = std::size_t{1} << (v - 6);
  return k >= d ? b[k - d] : 0;
}

struct QmLevel {
  std::vector<std::uint64_t> masks;  ///< dash masks with a nonempty bitmap, ascending
  std::vector<std::uint64_t> bits;   ///< their bitmaps, one after another
  std::size_t implicants = 0;        ///< set bits over all the bitmaps
};

/// The prime implicants of ON ∪ DC, by level, then dash mask, then value.
/// Level k+1 comes from level k: B_D = B_{D\v} & (B_{D\v} >> 2^v) on the
/// values with bit v clear, v being D's highest bit.  An implicant of level
/// k is prime iff no variable v outside D merges it, i.e. it is in neither
/// B_{D|v} nor B_{D|v} << 2^v.  Only levels k and k+1 are live.  nullopt
/// when a level holds more than `max_primes` implicants (checked before the
/// next level is built; level 0, 2^n - |OFF|, before its bitmap exists) or
/// the running prime count exceeds it.  Adds every level's size to
/// `implicants`.
std::optional<std::vector<Implicant>> qm_primes(const SopSpec& spec, std::size_t max_primes,
                                                std::int64_t* implicants) {
  const std::size_t n = spec.num_vars;
  const std::uint64_t space = std::uint64_t{1} << n;
  std::vector<std::uint64_t> off;
  off.reserve(spec.off.size());
  for (const auto& code : spec.off) off.push_back(code_to_u64(code));
  std::sort(off.begin(), off.end());
  off.erase(std::unique(off.begin(), off.end()), off.end());

  QmLevel level;
  level.implicants = space - off.size();
  if (level.implicants > max_primes) return std::nullopt;
  const std::size_t words = std::max<std::uint64_t>(1, space / 64);
  level.masks.push_back(0);
  level.bits.assign(words, space < 64 ? (std::uint64_t{1} << space) - 1 : ~std::uint64_t{0});
  for (const std::uint64_t x : off) level.bits[x >> 6] &= ~(std::uint64_t{1} << (x & 63));

  // Where each dash mask's bitmap sits in its level (-1: empty).  Masks of
  // different levels differ in popcount, so one table serves both.
  std::vector<std::int32_t> slot(space, -1);
  slot[0] = 0;
  std::vector<Implicant> primes;
  std::vector<std::uint64_t> prime(words);
  for (std::size_t k = 0; level.implicants > 0; ++k) {
    if (level.implicants > max_primes) return std::nullopt;
    *implicants += static_cast<std::int64_t>(level.implicants);

    QmLevel next;
    // Masks with k+1 bits in ascending order (Gosper's next-combination step).
    for (std::uint64_t d = k < n ? (std::uint64_t{1} << (k + 1)) - 1 : space; d < space;) {
      const std::size_t v = static_cast<std::size_t>(std::bit_width(d)) - 1;
      if (const std::int32_t from = slot[d ^ (std::uint64_t{1} << v)]; from >= 0) {
        const std::uint64_t* b = &level.bits[static_cast<std::size_t>(from) * words];
        const std::size_t base = next.bits.size();
        next.bits.resize(base + words);
        std::size_t count = 0;
        for (std::size_t kw = 0; kw < words; ++kw) {
          const std::uint64_t x = b[kw] & shifted_down(b, words, v, kw) & bit_clear_mask(v, kw);
          next.bits[base + kw] = x;
          count += static_cast<std::size_t>(std::popcount(x));
        }
        if (count == 0) {
          next.bits.resize(base);
        } else {
          slot[d] = static_cast<std::int32_t>(next.masks.size());
          next.masks.push_back(d);
          next.implicants += count;
        }
      }
      const std::uint64_t low = d & (~d + 1);
      const std::uint64_t r = d + low;
      d = (((r ^ d) >> 2) / low) | r;
    }

    for (std::size_t i = 0; i < level.masks.size(); ++i) {
      const std::uint64_t dashes = level.masks[i];
      std::copy_n(&level.bits[i * words], words, prime.begin());
      for (std::size_t v = 0; v < n; ++v) {
        if ((dashes >> v) & 1) continue;
        const std::int32_t to = slot[dashes | (std::uint64_t{1} << v)];
        if (to < 0) continue;
        const std::uint64_t* b = &next.bits[static_cast<std::size_t>(to) * words];
        for (std::size_t kw = 0; kw < words; ++kw) prime[kw] &= ~(b[kw] | shifted_up(b, v, kw));
      }
      for (std::size_t kw = 0; kw < words; ++kw) {
        for (std::uint64_t x = prime[kw]; x != 0; x &= x - 1) {
          primes.push_back(Implicant{64 * kw + static_cast<std::uint64_t>(std::countr_zero(x)),
                                     dashes});
        }
      }
    }
    if (primes.size() > max_primes) return std::nullopt;
    level = std::move(next);
  }
  return primes;
}

/// qm_primes within the variable and prime limits of `opts`; the level
/// sizes go to the logic.qm_implicants counter.
std::optional<std::vector<Implicant>> limited_primes(const SopSpec& spec,
                                                     const MinimizeOptions& opts) {
  if (spec.num_vars > opts.exact_max_vars || spec.num_vars >= 64) return std::nullopt;
  std::int64_t implicants = 0;
  auto primes = qm_primes(spec, opts.exact_max_primes, &implicants);
  obs::counter_add("logic.qm_implicants", implicants);
  return primes;
}

}  // namespace

std::optional<Cover> prime_implicants(const SopSpec& spec, const MinimizeOptions& opts) {
  const auto primes = limited_primes(spec, opts);
  if (!primes.has_value()) return std::nullopt;
  Cover out(spec.num_vars);
  for (const Implicant& p : *primes) out.add(implicant_to_cube(p, spec.num_vars));
  return out;
}

std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts) {
  const std::size_t n = spec.num_vars;
  if (n > opts.exact_max_vars || n >= 64) return std::nullopt;
  if (spec.on.empty()) return Cover(n);
  const auto primes = limited_primes(spec, opts);
  if (!primes.has_value()) return std::nullopt;

  // Covering: only primes covering at least one ON minterm matter.
  std::vector<std::uint64_t> on_codes;
  on_codes.reserve(spec.on.size());
  for (const auto& code : spec.on) on_codes.push_back(code_to_u64(code));
  std::vector<std::vector<std::uint32_t>> col_rows;
  std::vector<int> col_cost;
  std::vector<Implicant> cols;
  for (const Implicant& p : *primes) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < on_codes.size(); ++r) {
      if ((on_codes[r] & ~p.dashes) == p.values) rows.push_back(r);
    }
    if (!rows.empty()) {
      col_rows.push_back(std::move(rows));
      col_cost.push_back(static_cast<int>(n) - std::popcount(p.dashes));
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
  obs::Span span("logic.minimize");
  span.arg("vars", static_cast<std::int64_t>(spec.num_vars));
  span.arg("on", static_cast<std::int64_t>(spec.on.size()));
  span.arg("off", static_cast<std::int64_t>(spec.off.size()));
  Cover cover = heuristic_minimize(spec, opts.heuristic_loops);
  if (opts.try_exact) {
    if (auto exact = exact_minimize(spec, opts);
        exact.has_value() && exact->literal_count() < cover.literal_count()) {
      cover = std::move(*exact);
    }
  }
  span.arg("cubes", static_cast<std::int64_t>(cover.size()));
  return cover;
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
