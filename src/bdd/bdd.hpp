// A reduced ordered BDD package — the substrate for the paper's cited
// follow-up ("the implementation area was further reduced by developing a
// BDD based constraint satisfaction approach [19]"), for exact equivalence
// checking in verify::, and for the symbolic reachability / CSC engine in
// bdd::SymbolicStg (symbolic.hpp).
//
// Classic design: hash-consed nodes addressed by index in one global
// variable order, complement-free (both terminals are materialized),
// memoized ITE.  Node 0 = false, node 1 = true.
//
// The unique table and both memos are flat open-addressing arrays
// (power-of-two size, linear probing, 64-bit mixer hash, doubled at load
// 1/2): no heap node per entry, and teardown frees three arrays.  The
// unique table holds node ids and compares against the node array; slot 0
// means empty, which is safe because terminals are never inserted.  The
// memos are lossless (an entry is never evicted), so the sequence of
// recursion steps, hits, misses and created nodes is the one a plain hash
// map gives: node ids, results, Stats and the max_ops budget do not depend
// on table sizes.  No table allocates before its first insertion.
//
// Beyond the textbook core the manager carries what image computation
// needs:
//   * a shared operation cache (restrict / exists_cube / and_exists /
//     rename_shift_down all memoize into one table, invalidated as a whole
//     by garbage collection),
//   * cube quantification (∃ over a variable set in one pass) and the
//     relational product and_exists(f, g, cube) = ∃cube. f ∧ g, which never
//     materializes f ∧ g,
//   * rename_shift_down: the next-state → current-state substitution for
//     the interleaved variable order (odd var 2i+1 ↦ even var 2i),
//   * mark-and-sweep garbage collection over caller-registered roots, with
//     full cache invalidation and node-id compaction,
//   * node and operation budgets surfaced as util::LimitError so runaway
//     fixed points fail cleanly instead of eating the machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "util/bitvec.hpp"

namespace mps::bdd {

using NodeId = std::uint32_t;
inline constexpr NodeId kFalse = 0;
inline constexpr NodeId kTrue = 1;

class Manager {
 public:
  explicit Manager(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  NodeId bdd_false() const { return kFalse; }
  NodeId bdd_true() const { return kTrue; }
  /// The function "variable v" (positive literal).
  NodeId var(std::uint32_t v);
  /// The function "¬v".
  NodeId nvar(std::uint32_t v);

  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId bdd_not(NodeId f) { return ite(f, kFalse, kTrue); }
  NodeId bdd_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  NodeId bdd_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  NodeId bdd_xor(NodeId f, NodeId g) { return ite(f, bdd_not(g), g); }
  NodeId bdd_implies(NodeId f, NodeId g) { return ite(f, g, kTrue); }

  /// Cofactor with respect to v = value.  Memoized in the shared op cache:
  /// shared subgraphs are visited once per call, not once per path.
  NodeId restrict(NodeId f, std::uint32_t v, bool value);
  /// Reference implementation without memoization — exponential on shared
  /// graphs (it re-walks a subgraph once per path reaching it).  Kept only
  /// so bench/micro_bdd can pin the win of the memoized version and tests
  /// can cross-check results; never call it from library code.
  NodeId restrict_nomemo(NodeId f, std::uint32_t v, bool value);
  /// ∃v. f
  NodeId exists(NodeId f, std::uint32_t v);
  /// ∀v. f
  NodeId forall(NodeId f, std::uint32_t v);

  /// The positive cube x_{v1} ∧ x_{v2} ∧ … used as a quantification set.
  NodeId cube(const std::vector<std::uint32_t>& vars);
  /// ∃vars(cube). f — single pass, memoized per (f, cube).
  NodeId exists_cube(NodeId f, NodeId cube);
  /// Relational product ∃vars(cube). f ∧ g without building f ∧ g — the
  /// quantification happens *inside* the conjunction (early quantification:
  /// a variable disappears as soon as both cofactor pairs are combined, and
  /// the ∨ of cofactors cuts off at the first kTrue).  Own memo entries in
  /// the shared op cache keyed by the unordered pair {f, g} and the cube.
  NodeId and_exists(NodeId f, NodeId g, NodeId cube);
  /// Substitute every odd variable 2i+1 by its even partner 2i — the
  /// next-state → current-state renaming of the interleaved order used by
  /// the symbolic engine.  Requires (checked): whenever 2i+1 occurs in the
  /// support of f, 2i does not occur above/below it on the same path, so
  /// the substitution is order-preserving.
  NodeId rename_shift_down(NodeId f);

  /// Evaluate under a total assignment.
  bool eval(NodeId f, const util::BitVec& assignment) const;
  /// Number of satisfying assignments over all num_vars() variables.
  double sat_count(NodeId f) const;
  /// Any satisfying assignment; false if f == kFalse.
  bool pick_model(NodeId f, util::BitVec* out) const;

  /// Build from a sum-of-cubes cover (variables must match num_vars()).
  NodeId from_cover(const logic::Cover& cover);
  /// Build the characteristic function of a minterm list.
  NodeId from_minterms(const std::vector<util::BitVec>& codes);

  // --- budgets ----------------------------------------------------------
  /// Abort (util::LimitError) when the node table would exceed `n` nodes.
  /// 0 = unlimited (the default).
  void set_max_nodes(std::size_t n) { max_nodes_ = n; }
  /// Abort (util::LimitError) after `n` cache-miss operation steps across
  /// all recursive ops.  0 = unlimited (the default).
  void set_max_ops(std::uint64_t n) { max_ops_ = n; }

  // --- garbage collection -----------------------------------------------
  /// Mark-and-sweep over the given roots: every node not reachable from a
  /// root is freed, surviving nodes are compacted (ids change!) and the
  /// NodeIds behind the passed pointers are rewritten in place.  All other
  /// outstanding NodeIds are invalidated, and both operation caches are
  /// cleared.  Returns the number of collected nodes.
  std::size_t gc(const std::vector<NodeId*>& roots);

  struct Stats {
    std::uint64_t ops = 0;              ///< cache-miss recursion steps
    std::uint64_t cache_hits = 0;       ///< op-cache + ite-cache hits
    std::uint64_t cache_misses = 0;     ///< op-cache + ite-cache misses
    std::uint64_t gc_runs = 0;          ///< number of gc() calls
    std::uint64_t nodes_collected = 0;  ///< total nodes freed across gcs
  };
  const Stats& stats() const { return stats_; }

  struct Node {
    std::uint32_t var;  // 0xFFFFFFFF for terminals
    NodeId low, high;
  };
  const Node& node(NodeId id) const { return nodes_[id]; }

 private:
  NodeId make(std::uint32_t v, NodeId low, NodeId high);
  NodeId top_var(NodeId f, NodeId g, NodeId h) const;
  /// Budget bookkeeping for one cache-miss expansion.
  void tick_op();

  enum OpCode : std::uint32_t {
    kOpRestrict0 = 1,
    kOpRestrict1 = 2,
    kOpExists = 3,
    kOpAndExists = 4,
    kOpRename = 5,
  };
  /// Restrict's op word packs the opcode with the variable: opcode + 8·v.
  /// The stride must exceed every opcode, so that the restrict words
  /// (≡ 1 or 2 mod 8) never equal kOpExists..kOpRename: with a stride of 4,
  /// restrict-0 on var 1 would be 1 + 4 = kOpRename.
  static std::uint32_t restrict_op(std::uint32_t v, bool value) {
    return (value ? kOpRestrict1 : kOpRestrict0) + 8 * v;
  }

  /// Lossless memo over four-word keys: ITE stores (f, g, h, 0), every
  /// other operation (op word, a, b, c) with cubes riding in c.  `a == 0`
  /// marks an empty slot: ITE keys have f > kTrue, op words are ≥ 1.
  class Memo {
   public:
    struct Key {
      std::uint32_t a, b, c, d;
      bool operator==(const Key&) const = default;
    };
    /// The stored result for `key`, if any.
    bool find(const Key& key, NodeId* result) const;
    void insert(const Key& key, NodeId result);
    /// Drop every entry, keeping the slot array.
    void clear();

   private:
    struct Entry {
      Key key;
      NodeId result;
    };
    /// Index of `key`'s entry, or of the free slot where it would go.
    std::size_t slot(const Key& key) const;
    /// Store into `slots_` without a load check; an existing key is kept.
    bool place(const Key& key, NodeId result);

    std::vector<Entry> slots_;  // power of two (or empty), a == 0 = free
    std::size_t size_ = 0;
  };

  /// Rebuild the unique table with `slots` buckets from nodes_[2..].
  void rehash_unique(std::size_t slots);

  std::size_t num_vars_;
  std::vector<Node> nodes_;
  /// Buckets of node ids over nodes_ (power of two or empty; 0 = free).
  /// Every non-terminal node is in it, so its load is num_nodes() - 2.
  std::vector<NodeId> unique_;
  Memo ite_cache_;
  Memo op_cache_;
  std::size_t max_nodes_ = 0;
  std::uint64_t max_ops_ = 0;
  Stats stats_;
};

}  // namespace mps::bdd
