// Two-level single-output minimization, replacing the paper's use of
// `espresso -Dso -S1`:
//   * a heuristic EXPAND / IRREDUNDANT / REDUCE loop (espresso-style) on
//     packed cubes (any number of variables; 64 per word), and
//   * an exact Quine-McCluskey + branch-and-bound covering path for
//     functions small enough to enumerate the don't-care set.
//
// Functions are specified by explicit ON and OFF minterm lists; everything
// else is a don't-care (exactly the situation for next-state functions
// extracted from a state graph, where unreachable codes are free).
//
// Both inner kernels are word-parallel bitmaps:
//   * EXPAND holds OFF as one column per variable (bit i of column v is
//     variable v of OFF code i).  A cube hits OFF iff the AND of its
//     literals' columns (a negative literal takes the complement) is
//     nonzero, so testing one freed literal costs about 2 * |OFF| / 64
//     words instead of a scan of every OFF code.  The columns take
//     n * |OFF| bits, no more than the OFF list itself.
//   * Quine-McCluskey keeps, per dash mask, a bitmap over the 2^n values;
//     a level is built from the previous one by shift-and-AND, and only
//     two levels are live, each one 2^n-bit bitmap per nonempty dash mask.
//     Level 0 (2^n - |OFF| implicants) is checked against exact_max_primes
//     before its bitmap is allocated, so 2^n never exceeds
//     |OFF| + exact_max_primes.
// Both keep the predicates of the per-minterm formulation, so the covers
// are the same.  Effort counters (obs): logic.expand_words (column words
// ANDed by EXPAND) and logic.qm_implicants (implicants over all QM levels).
#pragma once

#include <optional>
#include <vector>

#include "logic/cover.hpp"
#include "util/bitvec.hpp"

namespace mps::logic {

struct SopSpec {
  std::size_t num_vars = 0;
  std::vector<util::BitVec> on;   ///< ON-set minterms
  std::vector<util::BitVec> off;  ///< OFF-set minterms (DC = complement of both)
};

struct MinimizeOptions {
  /// Attempt the exact path when the variable count permits DC enumeration.
  bool try_exact = true;
  /// Above 10 variables the exact path never finished on the Table-1 and
  /// generated specs: every such call hit exact_max_primes or the
  /// branch-node cap and returned nothing, after seconds of work.
  std::size_t exact_max_vars = 10;
  std::size_t exact_max_primes = 20000;
  std::int64_t exact_max_branch_nodes = 200000;
  int heuristic_loops = 4;
};

/// Minimize; returns a prime irredundant cover of ON against OFF (cubes may
/// use the don't-care space).  Picks the better of the heuristic and exact
/// results by literal count when both are available.
Cover minimize(const SopSpec& spec, const MinimizeOptions& opts = {});

/// The espresso-style heuristic loop only.
Cover heuristic_minimize(const SopSpec& spec, int loops = 4);

/// Exact Quine-McCluskey + covering.  nullopt if the instance exceeds the
/// configured limits (too many variables/primes) — never silently
/// approximate: callers fall back to the heuristic result.  The covering
/// sees the primes in prime_implicants' order, so among covers of equal
/// cost the choice is deterministic.
std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts = {});

/// Every prime implicant of ON ∪ DC (exact_minimize's first stage), ordered
/// by dash count, then dash mask, then values.  nullopt when the variable
/// count exceeds exact_max_vars, or a QM level or the running prime count
/// exceeds exact_max_primes.
std::optional<Cover> prime_implicants(const SopSpec& spec, const MinimizeOptions& opts = {});

/// Validation (used by tests and verify::): cover contains every ON minterm
/// and no OFF minterm.
bool cover_is_valid(const SopSpec& spec, const Cover& cover);

/// Is the cube prime (no literal can be removed without hitting OFF)?
bool cube_is_prime(const SopSpec& spec, const Cube& cube);

/// Is every cube needed (dropping any uncovers some ON minterm)?
bool cover_is_irredundant(const SopSpec& spec, const Cover& cover);

}  // namespace mps::logic
