#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/common.hpp"

namespace mps::bdd {

namespace {
constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFu;
/// First slot count of every table; kept small because verify:: builds one
/// Manager per checked cover.
constexpr std::size_t kInitialSlots = 1024;

/// The splitmix64 finalizer: every input bit reaches every output bit, so
/// a power-of-two mask over the low bits sees the whole key.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

inline std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) {
  return std::uint64_t{hi} << 32 | lo;
}

inline std::uint64_t hash_words(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                                std::uint32_t d) {
  return mix64(pack(a, b) + pack(c, d) * 0x9e3779b97f4a7c15ULL);
}
}  // namespace

std::size_t Manager::Memo::slot(const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_words(key.a, key.b, key.c, key.d) & mask;
  while (slots_[i].key.a != 0 && !(slots_[i].key == key)) i = (i + 1) & mask;
  return i;
}

bool Manager::Memo::find(const Key& key, NodeId* result) const {
  if (slots_.empty()) return false;
  const Entry& e = slots_[slot(key)];
  if (e.key.a == 0) return false;
  *result = e.result;
  return true;
}

bool Manager::Memo::place(const Key& key, NodeId result) {
  Entry& e = slots_[slot(key)];
  if (e.key.a != 0) return false;
  e = Entry{key, result};
  return true;
}

void Manager::Memo::insert(const Key& key, NodeId result) {
  MPS_ASSERT(key.a != 0);
  if (slots_.empty()) slots_.resize(kInitialSlots);
  if (!place(key, result)) return;
  if (2 * ++size_ <= slots_.size()) return;
  std::vector<Entry> old = std::exchange(slots_, std::vector<Entry>(2 * slots_.size()));
  for (const Entry& e : old) {
    if (e.key.a != 0) place(e.key, e.result);
  }
}

void Manager::Memo::clear() {
  std::fill(slots_.begin(), slots_.end(), Entry{});
  size_ = 0;
}

Manager::Manager(std::size_t num_vars) : num_vars_(num_vars) {
  nodes_.push_back({kTerminalVar, kFalse, kFalse});  // 0 = false
  nodes_.push_back({kTerminalVar, kTrue, kTrue});    // 1 = true
}

NodeId Manager::make(std::uint32_t v, NodeId low, NodeId high) {
  if (low == high) return low;  // reduction rule
  if (unique_.empty()) unique_.resize(kInitialSlots);
  const std::size_t mask = unique_.size() - 1;
  std::size_t i = hash_words(v, low, high, 0) & mask;
  for (NodeId id; (id = unique_[i]) != 0; i = (i + 1) & mask) {
    const Node& n = nodes_[id];
    if (n.var == v && n.low == low && n.high == high) return id;
  }
  if (max_nodes_ != 0 && nodes_.size() >= max_nodes_) {
    throw util::LimitError("bdd: node budget exceeded (" + std::to_string(max_nodes_) +
                           " nodes)");
  }
  nodes_.push_back({v, low, high});
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  unique_[i] = id;
  if (2 * (nodes_.size() - 2) > unique_.size()) rehash_unique(2 * unique_.size());
  return id;
}

void Manager::rehash_unique(std::size_t slots) {
  unique_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    std::size_t i = hash_words(n.var, n.low, n.high, 0) & mask;
    while (unique_[i] != 0) i = (i + 1) & mask;
    unique_[i] = id;
  }
}

void Manager::tick_op() {
  ++stats_.ops;
  if (max_ops_ != 0 && stats_.ops > max_ops_) {
    throw util::LimitError("bdd: operation budget exceeded (" + std::to_string(max_ops_) +
                           " steps)");
  }
}

NodeId Manager::var(std::uint32_t v) {
  MPS_ASSERT(v < num_vars_);
  return make(v, kFalse, kTrue);
}

NodeId Manager::nvar(std::uint32_t v) {
  MPS_ASSERT(v < num_vars_);
  return make(v, kTrue, kFalse);
}

NodeId Manager::top_var(NodeId f, NodeId g, NodeId h) const {
  std::uint32_t top = kTerminalVar;
  for (const NodeId x : {f, g, h}) {
    if (x > kTrue) top = std::min(top, nodes_[x].var);
  }
  return top;
}

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const Memo::Key key{f, g, h, 0};
  if (NodeId hit; ite_cache_.find(key, &hit)) {
    ++stats_.cache_hits;
    return hit;
  }
  ++stats_.cache_misses;
  tick_op();

  const std::uint32_t v = top_var(f, g, h);
  auto cof = [&](NodeId x, bool value) -> NodeId {
    if (x <= kTrue || nodes_[x].var != v) return x;
    return value ? nodes_[x].high : nodes_[x].low;
  };
  const NodeId low = ite(cof(f, false), cof(g, false), cof(h, false));
  const NodeId high = ite(cof(f, true), cof(g, true), cof(h, true));
  const NodeId result = make(v, low, high);
  ite_cache_.insert(key, result);
  return result;
}

NodeId Manager::restrict(NodeId f, std::uint32_t v, bool value) {
  if (f <= kTrue) return f;
  const Node n = nodes_[f];
  if (n.var > v && n.var != kTerminalVar) return f;   // ordered: v not in support
  if (n.var == v) return value ? n.high : n.low;
  const Memo::Key key{restrict_op(v, value), f, 0, 0};
  if (NodeId hit; op_cache_.find(key, &hit)) {
    ++stats_.cache_hits;
    return hit;
  }
  ++stats_.cache_misses;
  tick_op();
  const NodeId low = restrict(n.low, v, value);
  const NodeId high = restrict(n.high, v, value);
  const NodeId result = make(n.var, low, high);
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::restrict_nomemo(NodeId f, std::uint32_t v, bool value) {
  if (f <= kTrue) return f;
  const Node n = nodes_[f];
  if (n.var > v && n.var != kTerminalVar) return f;
  if (n.var == v) return value ? n.high : n.low;
  const NodeId low = restrict_nomemo(n.low, v, value);
  const NodeId high = restrict_nomemo(n.high, v, value);
  return make(n.var, low, high);
}

NodeId Manager::exists(NodeId f, std::uint32_t v) {
  return bdd_or(restrict(f, v, false), restrict(f, v, true));
}

NodeId Manager::forall(NodeId f, std::uint32_t v) {
  return bdd_and(restrict(f, v, false), restrict(f, v, true));
}

NodeId Manager::cube(const std::vector<std::uint32_t>& vars) {
  // Built bottom-up so the cube is linear no matter the input order.
  std::vector<std::uint32_t> sorted = vars;
  std::sort(sorted.begin(), sorted.end());
  NodeId c = kTrue;
  for (std::size_t i = sorted.size(); i-- > 0;) {
    MPS_ASSERT(sorted[i] < num_vars_);
    MPS_ASSERT(i == 0 || sorted[i - 1] != sorted[i]);
    c = make(sorted[i], kFalse, c);
  }
  return c;
}

NodeId Manager::exists_cube(NodeId f, NodeId cube) {
  if (f <= kTrue || cube == kTrue) return f;
  MPS_ASSERT(cube != kFalse);
  const Node n = nodes_[f];
  // Skip quantified variables above f's support: ∃x. f = f when x ∉ support.
  while (cube > kTrue && nodes_[cube].var < n.var) cube = nodes_[cube].high;
  if (cube == kTrue) return f;
  const Memo::Key key{kOpExists, f, cube, 0};
  if (NodeId hit; op_cache_.find(key, &hit)) {
    ++stats_.cache_hits;
    return hit;
  }
  ++stats_.cache_misses;
  tick_op();
  NodeId result;
  if (nodes_[cube].var == n.var) {
    const NodeId rest = nodes_[cube].high;
    const NodeId low = exists_cube(n.low, rest);
    // ∨-cutoff: once one cofactor quantifies to ⊤ the disjunction is ⊤.
    result = low == kTrue ? kTrue : bdd_or(low, exists_cube(n.high, rest));
  } else {
    result = make(n.var, exists_cube(n.low, cube), exists_cube(n.high, cube));
  }
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::and_exists(NodeId f, NodeId g, NodeId cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (cube == kTrue) return bdd_and(f, g);
  if (f == kTrue) return exists_cube(g, cube);
  if (g == kTrue) return exists_cube(f, cube);
  if (f == g) return exists_cube(f, cube);

  const std::uint32_t v = std::min(nodes_[f].var, nodes_[g].var);
  while (cube > kTrue && nodes_[cube].var < v) cube = nodes_[cube].high;
  if (cube == kTrue) return bdd_and(f, g);

  // The cache key orders the unordered pair {f, g} (∧ is commutative).
  const Memo::Key key{kOpAndExists, std::min(f, g), std::max(f, g), cube};
  if (NodeId hit; op_cache_.find(key, &hit)) {
    ++stats_.cache_hits;
    return hit;
  }
  ++stats_.cache_misses;
  tick_op();

  auto cof = [&](NodeId x, bool value) -> NodeId {
    if (x <= kTrue || nodes_[x].var != v) return x;
    return value ? nodes_[x].high : nodes_[x].low;
  };
  NodeId result;
  if (nodes_[cube].var == v) {
    const NodeId rest = nodes_[cube].high;
    const NodeId low = and_exists(cof(f, false), cof(g, false), rest);
    // ∨-cutoff as in exists_cube.
    result = low == kTrue ? kTrue : bdd_or(low, and_exists(cof(f, true), cof(g, true), rest));
  } else {
    result = make(v, and_exists(cof(f, false), cof(g, false), cube),
                  and_exists(cof(f, true), cof(g, true), cube));
  }
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::rename_shift_down(NodeId f) {
  if (f <= kTrue) return f;
  const Memo::Key key{kOpRename, f, 0, 0};
  if (NodeId hit; op_cache_.find(key, &hit)) {
    ++stats_.cache_hits;
    return hit;
  }
  ++stats_.cache_misses;
  tick_op();
  const Node n = nodes_[f];
  const std::uint32_t v = (n.var & 1u) ? n.var - 1 : n.var;
  const NodeId low = rename_shift_down(n.low);
  const NodeId high = rename_shift_down(n.high);
  // The substitution is only order-preserving when the renamed children
  // still sit strictly below v — i.e. 2i and 2i+1 never co-occur on a path.
  MPS_ASSERT(low <= kTrue || nodes_[low].var > v);
  MPS_ASSERT(high <= kTrue || nodes_[high].var > v);
  const NodeId result = make(v, low, high);
  op_cache_.insert(key, result);
  return result;
}

std::size_t Manager::gc(const std::vector<NodeId*>& roots) {
  std::vector<char> mark(nodes_.size(), 0);
  mark[kFalse] = mark[kTrue] = 1;
  std::vector<NodeId> stack;
  for (const NodeId* r : roots) {
    MPS_ASSERT(*r < nodes_.size());
    stack.push_back(*r);
  }
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    if (mark[x]) continue;
    mark[x] = 1;
    stack.push_back(nodes_[x].low);
    stack.push_back(nodes_[x].high);
  }

  // Compact in index order: make() only ever references already-existing
  // children, so children keep smaller ids than their parents.
  std::vector<NodeId> remap(nodes_.size(), kFalse);
  std::vector<Node> kept;
  kept.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!mark[id]) continue;
    remap[id] = static_cast<NodeId>(kept.size());
    Node n = nodes_[id];
    if (n.var != kTerminalVar) {
      n.low = remap[n.low];
      n.high = remap[n.high];
    }
    kept.push_back(n);
  }
  const std::size_t collected = nodes_.size() - kept.size();
  nodes_ = std::move(kept);

  if (!unique_.empty()) rehash_unique(unique_.size());
  // Every cached result may reference a freed or renumbered node: drop all.
  ite_cache_.clear();
  op_cache_.clear();

  for (NodeId* r : roots) *r = remap[*r];
  ++stats_.gc_runs;
  stats_.nodes_collected += collected;
  return collected;
}

bool Manager::eval(NodeId f, const util::BitVec& assignment) const {
  MPS_ASSERT(assignment.size() >= num_vars_);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    f = assignment.test(n.var) ? n.high : n.low;
  }
  return f == kTrue;
}

double Manager::sat_count(NodeId f) const {
  // Memoized count of assignments below each node, scaled by skipped vars;
  // ids are dense, NaN marks "not counted yet".
  std::vector<double> memo(nodes_.size(), std::numeric_limits<double>::quiet_NaN());
  auto count = [&](auto&& self, NodeId x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    if (!std::isnan(memo[x])) return memo[x];
    const Node& n = nodes_[x];
    auto weight = [&](NodeId child) {
      const std::uint32_t child_var =
          child <= kTrue ? static_cast<std::uint32_t>(num_vars_) : nodes_[child].var;
      return std::pow(2.0, static_cast<double>(child_var - n.var - 1));
    };
    const double total = self(self, n.low) * weight(n.low) + self(self, n.high) * weight(n.high);
    memo[x] = total;
    return total;
  };
  const std::uint32_t top = f <= kTrue ? static_cast<std::uint32_t>(num_vars_) : nodes_[f].var;
  return count(count, f) * std::pow(2.0, static_cast<double>(top));
}

bool Manager::pick_model(NodeId f, util::BitVec* out) const {
  if (f == kFalse) return false;
  util::BitVec model(num_vars_);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.high != kFalse) {
      model.set(n.var);
      f = n.high;
    } else {
      f = n.low;
    }
  }
  *out = std::move(model);
  return true;
}

NodeId Manager::from_cover(const logic::Cover& cover) {
  MPS_ASSERT(cover.num_vars() == num_vars_);
  NodeId sum = kFalse;
  for (const logic::Cube& cube : cover.cubes()) {
    NodeId product = kTrue;
    // Build bottom-up (highest variable first) to keep intermediate sizes small.
    for (std::size_t v = num_vars_; v-- > 0;) {
      const auto lit = cube.literal(v);
      if (!lit.has_value()) continue;
      product = ite(var(static_cast<std::uint32_t>(v)), *lit ? product : kFalse,
                    *lit ? kFalse : product);
    }
    sum = bdd_or(sum, product);
  }
  return sum;
}

NodeId Manager::from_minterms(const std::vector<util::BitVec>& codes) {
  NodeId sum = kFalse;
  for (const auto& code : codes) {
    MPS_ASSERT(code.size() == num_vars_);
    NodeId product = kTrue;
    for (std::size_t v = num_vars_; v-- > 0;) {
      product = ite(var(static_cast<std::uint32_t>(v)), code.test(v) ? product : kFalse,
                    code.test(v) ? kFalse : product);
    }
    sum = bdd_or(sum, product);
  }
  return sum;
}

}  // namespace mps::bdd
