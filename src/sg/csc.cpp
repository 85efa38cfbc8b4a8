#include "sg/csc.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::sg {

int ceil_log2(std::size_t n) {
  MPS_ASSERT(n >= 1);
  int bits = 0;
  std::size_t cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits;
}

namespace {

/// The behaviour signature compared between code-equal states, packed into
/// a fixed number of 64-bit words per state instead of a heap-allocated
/// string (DESIGN.md "Hot paths").  Layout: the excitation part first
/// (2 bits for a focus signal, else one bit per signal of the
/// excited-non-input set), then, from the next even bit, 2 bits per
/// inserted state signal encoding {Up, Down, stable} — the same three-way
/// distinction the old character key made (Zero and One both rendered as
/// '.').  Packing is injective per component, so key equality coincides
/// with string equality.
class SignatureKeys {
 public:
  SignatureKeys(const StateGraph& g, const Assignments* assigns, const CscOptions& opts)
      : g_(g), assigns_(assigns), focus_(opts.focus_signal) {
    const std::size_t excite_bits = focus_ != stg::kNoSignal ? 2 : g.num_signals();
    // Even, so no 2-bit field straddles a word boundary: a field at bit 63
    // would lose its high bit, and Down would read as stable.
    assign_base_ = (excite_bits + 1) & ~std::size_t{1};
    const std::size_t total_bits =
        assign_base_ + 2 * (assigns != nullptr ? assigns->num_signals() : 0);
    words_ = std::max<std::size_t>(1, (total_bits + 63) / 64);
  }

  std::size_t words_per_key() const { return words_; }

  /// Write the signature of state `s` into `out[0 .. words_per_key())`.
  void fill(StateId s, std::uint64_t* out) const {
    std::fill(out, out + words_, 0);
    if (focus_ != stg::kNoSignal) {
      if (g_.excited_dir(s, focus_, true)) out[0] |= 1u;
      if (g_.excited_dir(s, focus_, false)) out[0] |= 2u;
    } else {
      // excited_non_input(s), written straight into the key words: set the
      // bit of every non-silent edge label, then mask the input columns.
      for (const Edge& e : g_.out(s)) {
        if (!e.is_silent()) out[e.sig >> 6] |= std::uint64_t{1} << (e.sig & 63);
      }
      const util::BitVec& inputs = g_.input_mask();
      for (std::size_t wi = 0; wi < inputs.num_words(); ++wi) out[wi] &= ~inputs.word(wi);
    }
    if (assigns_ != nullptr) {
      for (std::size_t k = 0; k < assigns_->num_signals(); ++k) {
        const V4 v = assigns_->value(k, s);
        const std::uint64_t code = v == V4::Up ? 1 : v == V4::Down ? 2 : 0;
        const std::size_t bit = assign_base_ + 2 * k;
        out[bit >> 6] |= code << (bit & 63);
      }
    }
  }

 private:
  const StateGraph& g_;
  const Assignments* assigns_;
  SignalId focus_;
  std::size_t assign_base_ = 0;
  std::size_t words_ = 1;
};

/// Stable-value masks of the state signals, KW = ceil(K/64) words per
/// state: bit k of zero(s) / one(s) is set iff signal k is stable at 0 / 1
/// in s.  Only stable complementary values separate a pair (sg::separates),
/// so a and b are separated iff (zero(a) & one(b)) | (one(a) & zero(b)) is
/// nonzero in some word.
class SeparationMasks {
 public:
  SeparationMasks(const StateGraph& g, const Assignments* assigns) {
    const std::size_t k_signals = assigns != nullptr ? assigns->num_signals() : 0;
    words_ = (k_signals + 63) / 64;
    zero_.assign(g.num_states() * words_, 0);
    one_.assign(g.num_states() * words_, 0);
    for (std::size_t k = 0; k < k_signals; ++k) {
      const std::vector<V4>& values = assigns->values(k);
      const std::size_t wi = k >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (k & 63);
      for (StateId s = 0; s < g.num_states(); ++s) {
        if (values[s] == V4::Zero) zero_[s * words_ + wi] |= bit;
        if (values[s] == V4::One) one_[s * words_ + wi] |= bit;
      }
    }
  }

  bool separated(StateId a, StateId b) const {
    const std::uint64_t* za = zero_.data() + a * words_;
    const std::uint64_t* oa = one_.data() + a * words_;
    const std::uint64_t* zb = zero_.data() + b * words_;
    const std::uint64_t* ob = one_.data() + b * words_;
    for (std::size_t wi = 0; wi < words_; ++wi) {
      if (((za[wi] & ob[wi]) | (oa[wi] & zb[wi])) != 0) return true;
    }
    return false;
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> zero_, one_;
};

}  // namespace

CscResult analyze_csc(const StateGraph& g, const Assignments* assigns, const CscOptions& opts) {
  obs::Span span("sg.analyze_csc");
  CscResult result;

  // Code classes of two or more states, ordered by smallest member, and
  // next_member[s]: the next member of s's class in ascending order.
  const std::size_t n = g.num_states();
  const std::vector<std::vector<StateId>> classes = code_classes(g);
  std::vector<StateId> next_member(n, kNoState);
  for (const auto& members : classes) {
    for (std::size_t i = 0; i + 1 < members.size(); ++i) next_member[members[i]] = members[i + 1];
  }

  // Signatures of the class members (n rows of W words; the rows of
  // states without a code twin stay unused).
  const SignatureKeys keys(g, assigns, opts);
  const SeparationMasks masks(g, assigns);
  const std::size_t W = keys.words_per_key();
  std::vector<std::uint64_t> sigs(n * W);
  for (const auto& members : classes) {
    for (const StateId s : members) keys.fill(s, sigs.data() + s * W);
  }
  const auto same_sig = [&](StateId a, StateId b) {
    return std::equal(sigs.data() + a * W, sigs.data() + (a + 1) * W, sigs.data() + b * W);
  };

  // Every unseparated pair (a, b), a < b, in lexicographic order with no
  // sort: a ascending, then the later members of a's class ascending.
  // in_conflict marks the states in at least one unresolved conflict.
  std::vector<char> in_conflict(n, 0);
  for (StateId a = 0; a < n; ++a) {
    for (StateId b = next_member[a]; b != kNoState; b = next_member[b]) {
      if (masks.separated(a, b)) continue;
      if (same_sig(a, b)) {
        result.compatible_pairs.emplace_back(a, b);
      } else {
        result.conflicts.emplace_back(a, b);
        in_conflict[a] = in_conflict[b] = 1;
      }
    }
  }

  // Per class: the conflicted states still need distinguishing, so the
  // number of distinct signatures among them lower-bounds the state
  // signals the class requires.
  std::vector<StateId> distinct;  // one conflicted member per distinct signature
  for (const auto& members : classes) {
    const std::size_t k = members.size();
    result.num_usc_pairs += k * (k - 1) / 2;
    result.max_class_size = std::max(result.max_class_size, k);
    distinct.clear();
    for (const StateId s : members) {
      if (in_conflict[s] && std::none_of(distinct.begin(), distinct.end(),
                                         [&](StateId rep) { return same_sig(s, rep); })) {
        distinct.push_back(s);
      }
    }
    if (!distinct.empty()) {
      result.lower_bound = std::max(result.lower_bound, ceil_log2(distinct.size()));
    }
  }

  span.arg("states", static_cast<std::int64_t>(g.num_states()));
  span.arg("conflicts", static_cast<std::int64_t>(result.conflicts.size()));
  span.arg("usc_pairs", static_cast<std::int64_t>(result.num_usc_pairs));
  return result;
}

}  // namespace mps::sg
