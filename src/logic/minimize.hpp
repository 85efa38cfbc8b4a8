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
/// approximate: callers fall back to the heuristic result.
std::optional<Cover> exact_minimize(const SopSpec& spec, const MinimizeOptions& opts = {});

/// Validation (used by tests and verify::): cover contains every ON minterm
/// and no OFF minterm.
bool cover_is_valid(const SopSpec& spec, const Cover& cover);

/// Is the cube prime (no literal can be removed without hitting OFF)?
bool cube_is_prime(const SopSpec& spec, const Cube& cube);

/// Is every cube needed (dropping any uncovers some ON minterm)?
bool cover_is_irredundant(const SopSpec& spec, const Cover& cover);

}  // namespace mps::logic
