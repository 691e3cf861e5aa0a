#include "src/lint/lattice.hpp"

#include <array>
#include <cassert>

#include "src/netlist/levelize.hpp"

namespace fcrit::lint {

using netlist::CellKind;
using netlist::NodeId;

Ternary eval_ternary(CellKind kind, std::span<const Ternary> ins) {
  const auto arity = static_cast<unsigned>(ins.size());
  assert(static_cast<int>(arity) == netlist::spec(kind).arity);
  const std::uint16_t tt = netlist::truth_table(kind);
  bool seen0 = false;
  bool seen1 = false;
  // Arity <= 4, so at most 16 assignments; input i is bit i.
  for (unsigned a = 0; a < (1u << arity); ++a) {
    bool consistent = true;
    for (unsigned i = 0; consistent && i < arity; ++i)
      consistent = !is_definite(ins[i]) ||
                   ((a >> i) & 1u) == static_cast<unsigned>(ins[i]);
    if (!consistent) continue;
    ((tt >> a) & 1u) != 0 ? seen1 = true : seen0 = true;
  }
  if (seen0 && seen1) return Ternary::kX;
  return seen1 ? Ternary::kOne : Ternary::kZero;
}

std::vector<Ternary> constant_values(const netlist::Netlist& nl) {
  const netlist::Levelization lev = netlist::levelize(nl);
  std::vector<Ternary> v(nl.num_nodes(), Ternary::kX);
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const CellKind kind = nl.kind(id);
    if (kind == CellKind::kConst1) v[id] = Ternary::kOne;
    if (kind == CellKind::kConst0 || kind == CellKind::kDff)
      v[id] = Ternary::kZero;
  }
  std::array<Ternary, netlist::kMaxFanins> ins{};
  for (bool widened = true; widened;) {
    for (const NodeId id : lev.order) {
      const netlist::Node& node = nl.node(id);
      for (std::size_t i = 0; i < node.fanin_count; ++i)
        ins[i] = v[node.fanin[i]];
      v[id] = eval_ternary(node.kind,
                           std::span<const Ternary>(ins.data(), node.fanin_count));
    }
    // Join each flop with its settled D value. A flop widens at most once
    // (0 -> X), so this loop runs at most |flops| + 1 times.
    widened = false;
    for (const NodeId q : nl.flops()) {
      if (v[q] == Ternary::kX || v[nl.node(q).fanin[0]] == v[q]) continue;
      v[q] = Ternary::kX;
      widened = true;
    }
  }
  return v;
}

}  // namespace fcrit::lint
