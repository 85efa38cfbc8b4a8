#include "core/input_set.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"
#include "sg/csc.hpp"
#include "sg/projection.hpp"
#include "util/common.hpp"

namespace mps::core {

std::vector<sg::SignalId> sg_trigger_signals(const sg::StateGraph& g, sg::SignalId o) {
  std::vector<bool> is_trigger(g.num_signals(), false);
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    const bool excited_before =
        g.excited_dir(s, o, true) || g.excited_dir(s, o, false);
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent() || e.sig == o) continue;
      const bool excited_after =
          g.excited_dir(e.to, o, true) || g.excited_dir(e.to, o, false);
      if (excited_after && !excited_before) is_trigger[e.sig] = true;
    }
  }
  std::vector<sg::SignalId> out;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (is_trigger[s]) out.push_back(s);
  }
  return out;
}

namespace {

/// Conflict count and lower bound of the module graph obtained by hiding
/// `hidden`, focused on output o.  Returns nullopt if the hiding merges
/// states with inconsistent state-signal values (Fig. 3 violation).
struct ProbeResult {
  std::size_t conflicts;
  int lower_bound;
};

std::optional<ProbeResult> probe_hiding(const sg::StateGraph& g, sg::SignalId o,
                                        const util::BitVec& hidden,
                                        const sg::Assignments& assigns) {
  const sg::Projection proj = sg::hide_signals(g, hidden, assigns.empty() ? nullptr : &assigns);
  if (!proj.assignments_consistent) return std::nullopt;
  // Remap o into the projection's signal space.
  sg::SignalId focus = stg::kNoSignal;
  for (std::size_t i = 0; i < proj.kept.size(); ++i) {
    if (proj.kept[i] == o) focus = static_cast<sg::SignalId>(i);
  }
  MPS_ASSERT(focus != stg::kNoSignal);
  sg::CscOptions copts;
  copts.focus_signal = focus;
  const auto analysis =
      sg::analyze_csc(proj.graph, proj.assignments.empty() ? nullptr : &proj.assignments, copts);
  return ProbeResult{analysis.conflicts.size(), analysis.lower_bound};
}

}  // namespace

InputSetResult determine_input_set(const sg::StateGraph& g, sg::SignalId o,
                                   const sg::Assignments& assigns, const InputSetOptions& opts) {
  MPS_ASSERT(o < g.num_signals());
  obs::Span span("core.input_set");
  // Every hide_signals + analyze_csc probe, counted: a deterministic
  // effort measure of the Figure 2 search.
  std::int64_t probes = 0;
  const auto probe = [&](const util::BitVec& hidden, const sg::Assignments& carried) {
    ++probes;
    return probe_hiding(g, o, hidden, carried);
  };
  InputSetResult result;
  result.triggers = sg_trigger_signals(g, o);

  // Start: keep o and its immediate input set; everything else is a
  // candidate for hiding.
  util::BitVec hidden(g.num_signals());
  result.kept = util::BitVec(g.num_signals());
  result.kept.set(o);
  for (const sg::SignalId t : result.triggers) result.kept.set(t);

  std::vector<sg::SignalId> candidates;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (!result.kept.test(s)) candidates.push_back(s);
  }
  if (opts.order != InputSetOptions::Order::SignalId) {
    std::vector<std::size_t> edge_count(g.num_signals(), 0);
    for (sg::StateId st = 0; st < g.num_states(); ++st) {
      for (const sg::Edge& e : g.out(st)) {
        if (!e.is_silent()) ++edge_count[e.sig];
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](sg::SignalId a, sg::SignalId b) {
                       return opts.order == InputSetOptions::Order::FewestEdgesFirst
                                  ? edge_count[a] < edge_count[b]
                                  : edge_count[a] > edge_count[b];
                     });
  }

  // Baseline conflicts/lower-bound on the unhidden graph.
  const auto base = probe(hidden, assigns);
  MPS_ASSERT(base.has_value());
  std::size_t n_csc = base->conflicts;
  int lb = base->lower_bound;

  // Greedy hiding (Figure 2 main loop), iterated to a fixed point: a
  // signal rejected early in the pass can become hideable once later
  // signals are gone, so re-try the rejects until nothing changes.
  std::vector<sg::SignalId> pending = candidates;
  for (int pass = 0; pass < 4 && !pending.empty(); ++pass) {
    std::vector<sg::SignalId> rejected;
    for (const sg::SignalId s : pending) {
      hidden.set(s);
      const auto probed = probe(hidden, assigns);
      if (probed.has_value() && probed->conflicts <= n_csc && probed->lower_bound <= lb) {
        n_csc = probed->conflicts;
        lb = probed->lower_bound;
      } else {
        hidden.reset(s);  // signal (still) required
        rejected.push_back(s);
      }
    }
    if (rejected.size() == pending.size()) {
      pending = std::move(rejected);
      break;
    }
    pending = std::move(rejected);
  }
  for (const sg::SignalId s : pending) result.kept.set(s);

  // State-signal retention (Figure 2 tail loop): drop each state signal
  // unless dropping it increases the module's conflicts.
  std::vector<std::size_t> kept_ss(assigns.num_signals());
  std::iota(kept_ss.begin(), kept_ss.end(), 0u);
  {
    const auto full = probe(hidden, assigns.subset(kept_ss));
    MPS_ASSERT(full.has_value());
    std::size_t current = full->conflicts;
    for (std::size_t k = assigns.num_signals(); k-- > 0;) {
      std::vector<std::size_t> without;
      for (const std::size_t x : kept_ss) {
        if (x != k) without.push_back(x);
      }
      const auto probed = probe(hidden, assigns.subset(without));
      if (probed.has_value() && probed->conflicts <= current) {
        kept_ss = std::move(without);
        current = probed->conflicts;
      }
    }
    n_csc = current;
  }
  result.kept_state_signals = std::move(kept_ss);
  result.module_conflicts = n_csc;
  result.module_lower_bound = lb;
  obs::counter_add("core.input_set_probes", probes);
  span.arg("output", o);
  span.arg("probes", probes);
  return result;
}

}  // namespace mps::core
