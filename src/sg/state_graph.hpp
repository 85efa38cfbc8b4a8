// State graphs (§2): the finite automaton of all reachable STG markings,
// with a consistent binary code per state.
//
// A StateGraph is self-contained (it carries its own signal table) because
// synthesis repeatedly derives new graphs — projections, quotients and
// expansions — whose signal sets differ from the source STG's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "petri/net.hpp"
#include "stg/stg.hpp"
#include "util/bitvec.hpp"

namespace mps::petri {
struct ReachabilityResult;
}

namespace mps::sg {

using StateId = std::uint32_t;
using stg::SignalId;
inline constexpr StateId kNoState = 0xFFFFFFFFu;

/// One labelled edge of the state graph: firing a rise/fall of `sig`
/// (or a silent ε step when sig == stg::kNoSignal).
struct Edge {
  SignalId sig = stg::kNoSignal;
  bool rise = false;  ///< meaningless for silent edges
  StateId to = kNoState;

  bool is_silent() const { return sig == stg::kNoSignal; }
  bool operator==(const Edge&) const = default;
};

struct SignalInfo {
  std::string name;
  bool is_input = false;
};

struct BuildOptions {
  std::size_t max_states = 1u << 20;
  /// Require a safe net (every reachable marking 0/1 tokens per place).
  bool require_safe = true;
  /// Run the full O(V·E) structural self-check on the freshly built graph.
  /// The default keeps checking; inner-loop callers that rebuild graphs
  /// repeatedly (baseline re-expansion) may turn it off — construction
  /// itself guarantees the invariants, the check is defense in depth.
  bool check_consistency = true;
};

class StateGraph {
 public:
  StateGraph() = default;
  explicit StateGraph(std::vector<SignalInfo> signals);
  /// A graph with no states whose signals are those of `parent` listed in
  /// `kept` (ascending ids; kept[i] becomes signal i) — where the quotient
  /// graphs of sg::hide_signals start.  The name index is filtered from the
  /// parent's instead of rebuilt.
  static StateGraph with_signals_of(const StateGraph& parent, const std::vector<SignalId>& kept);

  /// Exhaustive reachability + consistent-code inference (§2).  Throws
  /// util::SemanticsError if the STG admits no consistent state assignment
  /// (e.g. a+ enabled in a state where a is already 1), util::LimitError on
  /// state explosion beyond opts.max_states.  Dummy/ε transitions are kept
  /// as silent edges; see sg::contract_silent() to remove them.
  static StateGraph from_stg(const stg::Stg& stg, const BuildOptions& opts = {});

  // --- signals ---------------------------------------------------------
  std::size_t num_signals() const { return signals_.size(); }
  const SignalInfo& signal(SignalId s) const { return signals_[s]; }
  const std::vector<SignalInfo>& signals() const { return signals_; }
  bool is_input(SignalId s) const { return signals_[s].is_input; }
  /// Bit s set iff signal s is an input — maintained incrementally so hot
  /// loops can mask input signals with one and_not instead of a per-signal
  /// scan.
  const util::BitVec& input_mask() const { return input_mask_; }
  SignalId find_signal(std::string_view name) const;
  /// Append a signal column; every existing state code gets `value` for it.
  SignalId add_signal(const SignalInfo& info, bool value = false);

  // --- states & edges ---------------------------------------------------
  std::size_t num_states() const { return codes_.size(); }
  StateId initial() const { return initial_; }
  void set_initial(StateId s) { initial_ = s; }

  StateId add_state(util::BitVec code);
  void add_edge(StateId from, const Edge& e) {
    out_[from].push_back(e);
    ++num_edges_;
  }

  const util::BitVec& code(StateId s) const { return codes_[s]; }
  bool value(StateId s, SignalId sig) const { return codes_[s].test(sig); }
  const std::vector<Edge>& out(StateId s) const { return out_[s]; }

  /// Signals excited in `s` (those with an outgoing rise/fall edge).
  util::BitVec excited(StateId s) const;
  /// Non-input signals excited in `s` (the CSC-relevant set).
  util::BitVec excited_non_input(StateId s) const;
  /// True if `sig` has an outgoing edge at `s` with the given direction.
  bool excited_dir(StateId s, SignalId sig, bool rise) const;

  /// Total edge count (diagnostics / formula-size model); maintained by
  /// add_edge(), not recomputed.
  std::size_t num_edges() const { return num_edges_; }
  /// Number of (state, unordered transition pair) instances where two
  /// different signals are enabled together — N_ct in the §2.1 size model.
  std::size_t num_concurrent_pairs() const;

  /// Reverse adjacency, built on demand (stable until states/edges change).
  std::vector<std::vector<StateId>> predecessors() const;

  /// Defensive structural check (tests): edges in range, codes consistent
  /// with edge labels, initial in range.
  void check_consistency() const;

 private:
  /// (name, id) order on signal ids.
  bool name_less(SignalId a, SignalId b) const;

  std::vector<SignalInfo> signals_;
  /// Signal ids sorted by (name, id): find_signal is a binary search that
  /// returns the lowest id with the name (the answer of a front-to-back
  /// scan); maintained by the constructors and add_signal().
  std::vector<SignalId> by_name_;
  util::BitVec input_mask_;               // bit per signal; see input_mask()
  std::vector<util::BitVec> codes_;       // per state; width == signals_.size()
  std::vector<std::vector<Edge>> out_;    // per state
  std::size_t num_edges_ = 0;
  StateId initial_ = 0;
};

/// Group states by identical code.  Returns class representative list:
/// classes[k] = state ids sharing one code (only classes of size >= 2),
/// members ascending, classes ordered by smallest member.
std::vector<std::vector<StateId>> code_classes(const StateGraph& g);

/// Consistent state assignment inference (§2), exposed for tests and
/// microbenchmarks: per-state signal values over the reachability graph, in
/// one pass over its edges.  Throws util::SemanticsError if no consistent
/// assignment exists.  from_stg() is the normal entry point.
std::vector<util::BitVec> infer_codes(const stg::Stg& stg,
                                      const petri::ReachabilityResult& reach);

}  // namespace mps::sg
