#include "sg/projection.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/common.hpp"

namespace mps::sg {

namespace {

/// Plain union-find over state ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

Projection hide_signals(const StateGraph& g, const util::BitVec& hide,
                        const Assignments* assigns) {
  MPS_ASSERT(hide.size() == g.num_signals());

  const std::size_t n = g.num_states();
  const bool merge_assigns = assigns != nullptr && !assigns->empty();
  UnionFind uf(n);
  // The contracted edges (silent or hidden label), kept for the Figure-3
  // check; each joins two states of one class.
  std::vector<std::pair<StateId, StateId>> contracted;
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : g.out(s)) {
      if (!e.is_silent() && !hide.test(e.sig)) continue;
      uf.unite(s, e.to);
      if (merge_assigns) contracted.emplace_back(s, e.to);
    }
  }

  // Number the classes densely, in order of first member.
  Projection proj;
  proj.state_map.assign(n, kNoState);
  std::vector<StateId> class_rep;  // quotient id -> a representative full state
  for (StateId s = 0; s < n; ++s) {
    const StateId root = uf.find(s);
    if (proj.state_map[root] == kNoState) {
      proj.state_map[root] = static_cast<StateId>(class_rep.size());
      class_rep.push_back(root);
    }
    proj.state_map[s] = proj.state_map[root];
  }
  const std::size_t num_classes = class_rep.size();

  // The members of each class, ascending: members[first[c] .. first[c+1]).
  std::vector<std::uint32_t> first(num_classes + 1, 0);
  for (StateId s = 0; s < n; ++s) ++first[proj.state_map[s] + 1];
  for (std::size_t c = 0; c < num_classes; ++c) first[c + 1] += first[c];
  std::vector<StateId> members(n);
  {
    std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
    for (StateId s = 0; s < n; ++s) members[cursor[proj.state_map[s]]++] = s;
  }

  // Kept signal table.
  std::vector<SignalId> dense(g.num_signals(), stg::kNoSignal);
  for (SignalId sig = 0; sig < g.num_signals(); ++sig) {
    if (hide.test(sig)) continue;
    dense[sig] = static_cast<SignalId>(proj.kept.size());
    proj.kept.push_back(sig);
  }

  proj.graph = StateGraph::with_signals_of(g, proj.kept);
  for (std::size_t c = 0; c < num_classes; ++c) {
    // The representative's code restricted to the kept signals: set the
    // dense bit of each kept 1-bit.
    const util::BitVec& rep_code = g.code(class_rep[c]);
    util::BitVec code(proj.kept.size());
    for (std::size_t wi = 0; wi < rep_code.num_words(); ++wi) {
      for (std::uint64_t bits = rep_code.word(wi) & ~hide.word(wi); bits != 0; bits &= bits - 1) {
        code.set(dense[wi * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
      }
    }
    proj.graph.add_state(std::move(code));
  }
  proj.graph.set_initial(proj.state_map[g.initial()]);

  // Kept edges between classes, deduplicated, class by class with members
  // in ascending order: each class's out-list keeps the first-seen order.
  // A kept edge flips exactly one kept signal and all members of a class
  // share their kept code, so the label of an edge between two classes is
  // fixed by the pair; one stamp per target class dedups in O(1).
  std::vector<StateId> stamp(num_classes, kNoState);  // last source class seen
  std::vector<Edge> stamped(num_classes);             // the edge it added
  for (StateId c = 0; c < num_classes; ++c) {
    const util::BitVec& rep_code = g.code(class_rep[c]);
    for (std::uint32_t m = first[c]; m < first[c + 1]; ++m) {
      const StateId s = members[m];
      // All members of a class must agree on kept-signal values.
      for (std::size_t wi = 0; wi < hide.num_words(); ++wi) {
        MPS_ASSERT(((g.code(s).word(wi) ^ rep_code.word(wi)) & ~hide.word(wi)) == 0);
      }
      for (const Edge& e : g.out(s)) {
        if (e.is_silent() || hide.test(e.sig)) continue;
        const StateId to = proj.state_map[e.to];
        MPS_ASSERT(c != to);  // a kept edge changes a kept signal's value
        const Edge kept{dense[e.sig], e.rise, to};
        if (stamp[to] != c) {
          stamp[to] = c;
          stamped[to] = kept;
          proj.graph.add_edge(c, kept);
        } else {
          MPS_ASSERT(stamped[to] == kept);
        }
      }
    }
  }

  // Merge existing state-signal assignments (Figure 3).
  proj.assignments = Assignments(num_classes);
  if (merge_assigns) {
    // seen[c] bit v: some member of class c has value V4(v).
    std::vector<std::uint8_t> seen(num_classes);
    constexpr std::uint8_t kZero = 1u << static_cast<unsigned>(V4::Zero);
    constexpr std::uint8_t kOne = 1u << static_cast<unsigned>(V4::One);
    constexpr std::uint8_t kUp = 1u << static_cast<unsigned>(V4::Up);
    constexpr std::uint8_t kDown = 1u << static_cast<unsigned>(V4::Down);
    for (std::size_t k = 0; k < assigns->num_signals(); ++k) {
      const std::vector<V4>& values = assigns->values(k);
      std::fill(seen.begin(), seen.end(), 0);
      for (StateId s = 0; s < n; ++s) {
        seen[proj.state_map[s]] |=
            static_cast<std::uint8_t>(1u << static_cast<unsigned>(values[s]));
      }
      // Per-edge directed check (the paper's §3.2 restriction, generalized).
      for (const auto& [from, to] : contracted) {
        if (!merge_pair_allowed(values[from], values[to])) proj.assignments_consistent = false;
      }
      std::vector<V4> merged(num_classes, V4::Zero);
      for (std::size_t c = 0; c < num_classes; ++c) {
        const std::uint8_t f = seen[c];
        if ((f & kUp) && (f & kDown)) {
          // The signal both rises and falls inside the merged state: no
          // single value exists (the paper's §3.2 Up/Down restriction).
          proj.assignments_consistent = false;
          merged[c] = (f & kOne) ? V4::One : V4::Zero;
        } else if (f & kUp) {
          merged[c] = V4::Up;  // Figure 3 (f), (g): {0,Up}, {Up,1} -> Up
        } else if (f & kDown) {
          merged[c] = V4::Down;  // Figure 3 (h), (i): {1,Down}, {Down,0} -> Down
        } else if ((f & kZero) && (f & kOne)) {
          // 0 and 1 in one class with no excitation boundary: inconsistent.
          proj.assignments_consistent = false;
          merged[c] = V4::Zero;
        } else {
          merged[c] = (f & kOne) ? V4::One : V4::Zero;
        }
      }
      proj.assignments.add_signal(assigns->name(k), std::move(merged));
    }
  }

  return proj;
}

StateGraph contract_silent(const StateGraph& g) {
  util::BitVec hide(g.num_signals());  // hide nothing; ε edges contract anyway
  return hide_signals(g, hide).graph;
}

}  // namespace mps::sg
