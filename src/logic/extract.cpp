#include "logic/extract.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::logic {

bool implied_value(const sg::StateGraph& g, sg::StateId st, sg::SignalId s) {
  const bool value = g.value(st, s);
  if (value) return !g.excited_dir(st, s, /*rise=*/false);
  return g.excited_dir(st, s, /*rise=*/true);
}

bool code_less(const util::BitVec& a, const util::BitVec& b) {
  MPS_ASSERT(a.size() == b.size());
  for (std::size_t k = 0; k < a.num_words(); ++k) {
    const std::uint64_t diff = a.word(k) ^ b.word(k);
    if (diff != 0) return (a.word(k) & (diff & -diff)) == 0;
  }
  return false;
}

SopSpec extract_next_state(const sg::StateGraph& g, sg::SignalId s) {
  MPS_ASSERT(!g.is_input(s));
  obs::Span span("logic.extract", g.signal(s).name);
  SopSpec spec;
  spec.num_vars = g.num_signals();

  std::unordered_map<util::BitVec, bool, util::BitVecHash> table;
  for (sg::StateId st = 0; st < g.num_states(); ++st) {
    const bool f = implied_value(g, st, s);
    const auto [it, inserted] = table.emplace(g.code(st), f);
    if (!inserted && it->second != f) {
      throw util::SemanticsError("CSC violation: signal " + g.signal(s).name +
                                 " has conflicting implied values for code " +
                                 g.code(st).to_string());
    }
  }
  for (const auto& [code, f] : table) {
    (f ? spec.on : spec.off).push_back(code);
  }
  // Deterministic order (hash maps iterate arbitrarily).
  std::sort(spec.on.begin(), spec.on.end(), code_less);
  std::sort(spec.off.begin(), spec.off.end(), code_less);
  span.arg("states", static_cast<std::int64_t>(g.num_states()));
  span.arg("on", static_cast<std::int64_t>(spec.on.size()));
  span.arg("off", static_cast<std::int64_t>(spec.off.size()));
  return spec;
}

}  // namespace mps::logic
