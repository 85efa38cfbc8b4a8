#include "verify/verify.hpp"

#include <algorithm>
#include <deque>

#include "bdd/csc_bdd.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "netlist/build.hpp"
#include "netlist/verify_si.hpp"
#include "obs/obs.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "util/text.hpp"

namespace mps::verify {

namespace {

bool check_codes(const sg::StateGraph& g, std::vector<std::string>* issues) {
  bool ok = true;
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent()) {
        if (!(g.code(s) == g.code(e.to))) {
          issues->push_back(util::format("silent edge %u->%u changes the code", s, e.to));
          ok = false;
        }
        continue;
      }
      const util::BitVec diff = g.code(s) ^ g.code(e.to);
      if (diff.count() != 1 || !diff.test(e.sig) || g.value(s, e.sig) != !e.rise) {
        issues->push_back(util::format("edge %u->%u violates consistent assignment on %s", s,
                                       e.to, g.signal(e.sig).name.c_str()));
        ok = false;
      }
    }
  }
  return ok;
}

/// Every non-input signal has a cover that passes both the cube check
/// (logic::cover_is_valid) and the BDD oracle (bdd::cover_matches_spec)
/// against its ON/OFF spec.
void check_covers(const sg::StateGraph& g,
                  const std::vector<std::pair<std::string, logic::Cover>>& covers,
                  Report* report) {
  obs::Span span("verify.covers");
  span.arg("covers", static_cast<std::int64_t>(covers.size()));
  report->covers_valid = true;
  report->covers_exact = true;
  bdd::Manager mgr(g.num_signals());
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const auto it =
        std::find_if(covers.begin(), covers.end(),
                     [&](const auto& entry) { return entry.first == g.signal(s).name; });
    if (it == covers.end()) {
      report->issues.push_back("missing cover for signal " + g.signal(s).name);
      report->covers_valid = false;
      report->covers_exact = false;
      continue;
    }
    const logic::SopSpec spec = logic::extract_next_state(g, s);
    if (!logic::cover_is_valid(spec, it->second)) {
      report->issues.push_back("cover of " + g.signal(s).name + " violates its ON/OFF spec");
      report->covers_valid = false;
    }
    if (!bdd::cover_matches_spec(mgr, spec, it->second)) {
      report->issues.push_back("BDD mismatch for cover of " + g.signal(s).name);
      report->covers_exact = false;
    }
  }
}

}  // namespace

Report verify_synthesis(const sg::StateGraph& g,
                        const std::vector<std::pair<std::string, logic::Cover>>& covers) {
  Report report;
  report.codes_consistent = check_codes(g, &report.issues);

  const auto analysis = sg::analyze_csc(g);
  report.csc_satisfied = analysis.satisfied();
  if (!report.csc_satisfied) {
    report.issues.push_back(util::format("%zu CSC conflict pairs remain",
                                         analysis.conflicts.size()));
  }

  const auto violations = sg::semi_modularity_violations(g, /*allow_input_choice=*/true);
  report.semi_modular = violations.empty();
  for (const auto& [state, sig] : violations) {
    report.issues.push_back(util::format("signal %s disabled entering state %u",
                                         g.signal(sig).name.c_str(), state));
  }

  if (covers.empty()) {
    report.covers_valid = true;
    report.covers_exact = true;
    report.circuit_ok = true;
    return report;
  }
  if (!report.csc_satisfied) {
    // Specs are not well defined under CSC conflicts; report and stop.
    report.covers_valid = false;
    report.covers_exact = false;
    report.circuit_ok = false;
    return report;
  }

  check_covers(g, covers, &report);

  // Gate level: materialize the complex-gate netlist and check it under
  // the unbounded-delay model against the graph it was read off.
  obs::Span si_span("verify.si");
  try {
    const netlist::Netlist circuit = netlist::build_netlist(g, covers);
    const netlist::SiResult si = netlist::verify_speed_independence(circuit, g);
    report.circuit_ok = si.ok();
    for (const auto& issue : si.issues) report.issues.push_back("circuit: " + issue);
  } catch (const util::Error& e) {
    report.circuit_ok = false;
    report.issues.push_back(std::string("circuit: ") + e.what());
  }
  return report;
}

bool expansion_simulates(const sg::StateGraph& original, const sg::StateGraph& expanded,
                         const std::vector<sg::StateId>& origin) {
  if (origin.size() != expanded.num_states()) return false;
  const std::size_t n_orig = original.num_signals();

  // Backward: every original-signal edge of the expansion projects to an
  // original edge.
  for (sg::StateId es = 0; es < expanded.num_states(); ++es) {
    for (const sg::Edge& e : expanded.out(es)) {
      if (e.is_silent() || e.sig >= n_orig) continue;
      const sg::StateId from = origin[es];
      const sg::StateId to = origin[e.to];
      bool found = false;
      for (const sg::Edge& oe : original.out(from)) {
        if (!oe.is_silent() && oe.sig == e.sig && oe.rise == e.rise && oe.to == to) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }

  // Forward: from every expanded state, every original edge of its origin
  // is reachable through inserted-signal transitions alone.
  for (sg::StateId es = 0; es < expanded.num_states(); ++es) {
    const sg::StateId o = origin[es];
    for (const sg::Edge& oe : original.out(o)) {
      if (oe.is_silent()) continue;
      bool matched = false;
      std::deque<sg::StateId> frontier{es};
      std::vector<bool> seen(expanded.num_states(), false);
      seen[es] = true;
      while (!frontier.empty() && !matched) {
        const sg::StateId cur = frontier.front();
        frontier.pop_front();
        for (const sg::Edge& e : expanded.out(cur)) {
          if (e.sig == oe.sig && e.rise == oe.rise && origin[e.to] == oe.to) {
            matched = true;
            break;
          }
          if (e.sig >= n_orig && !seen[e.to]) {  // inserted-signal step
            seen[e.to] = true;
            frontier.push_back(e.to);
          }
        }
      }
      if (!matched) return false;
    }
  }
  return true;
}

}  // namespace mps::verify
