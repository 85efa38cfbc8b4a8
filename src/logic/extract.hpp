// Next-state function extraction (§3.5): the logic of a non-input signal
// is read off the (CSC-satisfying) state graph as the implied value of the
// signal in every reachable code; unreachable codes are don't-cares.
#pragma once

#include "logic/minimize.hpp"
#include "sg/state_graph.hpp"

namespace mps::logic {

/// The implied value of non-input signal `s` in state `st`: 1 if the signal
/// is 1 and not excited to fall, or 0 and excited to rise.
bool implied_value(const sg::StateGraph& g, sg::StateId st, sg::SignalId s);

/// The order in which ON/OFF lists are sorted: the order of the "0101..."
/// renderings (bit 0 first), so at the lowest differing bit the code with
/// 0 there comes first.  Compared word by word; equal widths required.
bool code_less(const util::BitVec& a, const util::BitVec& b);

/// Build the ON/OFF minterm spec of `s`'s next-state function over all
/// graph signals.  Throws util::SemanticsError if two states share a code
/// but imply different values — i.e. the graph violates CSC for `s`.
SopSpec extract_next_state(const sg::StateGraph& g, sg::SignalId s);

}  // namespace mps::logic
