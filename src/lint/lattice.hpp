// The ternary constant lattice behind lint's const-fold rule.
//
// A Ternary abstracts the set of values a net can carry across every cycle
// of every workload: kZero = {0}, kOne = {1}, kX = {0, 1}. constant_values()
// is the least fixpoint through sequential state: primary inputs stay X,
// constants hold their tied value, flip-flops start at the simulators'
// reset value (0) and widen with their D value until the state is stable,
// and combinational nodes apply eval_ternary. The result holds at reset and
// is preserved by every clock edge, so it holds in every reachable cycle
// (docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/cell_library.hpp"
#include "src/netlist/netlist.hpp"

namespace fcrit::lint {

enum class Ternary : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline bool is_definite(Ternary t) { return t != Ternary::kX; }

/// Join of the cell's truth table over every concrete input assignment
/// consistent with `ins`. `ins.size()` must equal the cell arity; kDff is a
/// transparent buffer, kInput is not evaluable.
Ternary eval_ternary(netlist::CellKind kind, std::span<const Ternary> ins);

/// Per-node fixpoint values, indexed by NodeId. Every fanin must be in
/// range; throws std::runtime_error on a combinational loop.
std::vector<Ternary> constant_values(const netlist::Netlist& nl);

}  // namespace fcrit::lint
