#include "bdd/csc_bdd.hpp"

#include <algorithm>
#include <vector>

#include "logic/extract.hpp"
#include "util/common.hpp"

namespace mps::bdd {

bool cover_matches_spec(Manager& mgr, const logic::SopSpec& spec, const logic::Cover& cover) {
  MPS_ASSERT(mgr.num_vars() == spec.num_vars && cover.num_vars() == spec.num_vars);
  // ON and OFF are minterm lists, so ON ⊆ f ⊆ ¬OFF holds iff f is 1 on
  // every ON code and 0 on every OFF code: one root-to-terminal walk of the
  // canonical BDD of the cover per code, with no BDD built for the lists.
  const NodeId f = mgr.from_cover(cover);
  for (const util::BitVec& code : spec.on) {
    MPS_ASSERT(code.size() == spec.num_vars);
    if (!mgr.eval(f, code)) return false;
  }
  for (const util::BitVec& code : spec.off) {
    MPS_ASSERT(code.size() == spec.num_vars);
    if (mgr.eval(f, code)) return false;
  }
  return true;
}

std::optional<std::vector<bool>> solve_cnf_bdd(const sat::Cnf& cnf, std::size_t max_nodes) {
  Manager mgr(cnf.num_vars());
  mgr.set_max_nodes(max_nodes);
  NodeId f = mgr.bdd_true();
  // Conjoin clauses sorted by their maximum variable: keeps the live
  // frontier narrow under the natural (state-major) variable order the
  // CSC encoding uses.
  std::vector<std::uint32_t> order(cnf.num_clauses());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    sat::Var ma = 0;
    for (const sat::Lit l : cnf.clause(a)) ma = std::max(ma, l.var());
    sat::Var mb = 0;
    for (const sat::Lit l : cnf.clause(b)) mb = std::max(mb, l.var());
    return ma < mb;
  });
  for (const std::uint32_t ci : order) {
    NodeId clause = mgr.bdd_false();
    for (const sat::Lit l : cnf.clause(ci)) {
      clause = mgr.bdd_or(clause, l.negated() ? mgr.nvar(l.var()) : mgr.var(l.var()));
    }
    f = mgr.bdd_and(f, clause);
    if (f == mgr.bdd_false()) return std::nullopt;
  }
  util::BitVec model;
  if (!mgr.pick_model(f, &model)) return std::nullopt;
  std::vector<bool> out(cnf.num_vars(), false);
  for (std::size_t v = 0; v < cnf.num_vars(); ++v) out[v] = model.test(v);
  MPS_ASSERT(cnf.satisfied_by(out));
  return out;
}

}  // namespace mps::bdd
