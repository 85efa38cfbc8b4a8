#include "sg/assignments.hpp"

#include "util/common.hpp"

namespace mps::sg {

const char* to_string(V4 v) {
  switch (v) {
    case V4::Zero: return "0";
    case V4::One: return "1";
    case V4::Up: return "Up";
    case V4::Down: return "Down";
  }
  return "?";
}

bool merge_pair_allowed(V4 from, V4 to) {
  if (from == to) return true;
  // The four "excitation boundary" pairs of Figure 3 (f)-(i).
  return (from == V4::Zero && to == V4::Up) || (from == V4::Up && to == V4::One) ||
         (from == V4::One && to == V4::Down) || (from == V4::Down && to == V4::Zero);
}

std::size_t Assignments::add_signal(std::string name) {
  signals_.push_back({std::move(name), std::vector<V4>(num_states_, V4::Zero)});
  return signals_.size() - 1;
}

std::size_t Assignments::add_signal(std::string name, std::vector<V4> values) {
  MPS_ASSERT(values.size() == num_states_);
  signals_.push_back({std::move(name), std::move(values)});
  return signals_.size() - 1;
}

Assignments Assignments::subset(const std::vector<std::size_t>& keep) const {
  Assignments out(num_states_);
  for (const std::size_t k : keep) {
    MPS_ASSERT(k < signals_.size());
    out.signals_.push_back(signals_[k]);
  }
  return out;
}

std::optional<Assignments::Incoherence> Assignments::check_coherence(const StateGraph& g) const {
  MPS_ASSERT(g.num_states() == num_states_);
  for (std::size_t k = 0; k < signals_.size(); ++k) {
    const auto& vals = signals_[k].values;
    for (StateId s = 0; s < g.num_states(); ++s) {
      for (const Edge& e : g.out(s)) {
        if (!edge_pair_allowed(vals[s], vals[e.to])) {
          return Incoherence{k, s, e.to};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace mps::sg
