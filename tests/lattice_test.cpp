// Constant lattice unit tests: the ternary transfer function of every cell
// kind checked exhaustively against the concrete evaluator, the
// sequential fixpoint on crafted netlists, and soundness on the registered
// designs and on random sequential circuits — every proved constant holds
// in every lane and cycle of a packed simulation, and the fixpoint values
// are locally inductive.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/lint/lattice.hpp"
#include "src/netlist/cell_library.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::lint {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

const std::array<CellKind, 21> kCombKinds = {
    CellKind::kBuf,   CellKind::kInv,   CellKind::kAnd2,  CellKind::kAnd3,
    CellKind::kAnd4,  CellKind::kNand2, CellKind::kNand3, CellKind::kNand4,
    CellKind::kOr2,   CellKind::kOr3,   CellKind::kOr4,   CellKind::kNor2,
    CellKind::kNor3,  CellKind::kNor4,  CellKind::kXor2,  CellKind::kXnor2,
    CellKind::kAoi21, CellKind::kAoi22, CellKind::kOai21, CellKind::kOai22,
    CellKind::kMux2};

/// Reference transfer function: join of eval_bool over every concrete
/// assignment consistent with the ternary inputs.
Ternary brute_force(CellKind kind, std::span<const Ternary> ins) {
  const int n = static_cast<int>(ins.size());
  bool seen0 = false;
  bool seen1 = false;
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::array<bool, netlist::kMaxFanins> concrete = {};
    bool consistent = true;
    for (int i = 0; i < n; ++i) {
      const bool v = ((bits >> i) & 1) != 0;
      const Ternary in = ins[static_cast<std::size_t>(i)];
      if (is_definite(in) && (in == Ternary::kOne) != v) consistent = false;
      concrete[static_cast<std::size_t>(i)] = v;
    }
    if (!consistent) continue;
    (netlist::eval_bool(kind, std::span<const bool>(
                                  concrete.data(), static_cast<std::size_t>(n)))
         ? seen1
         : seen0) = true;
  }
  EXPECT_TRUE(seen0 || seen1);
  if (seen0 && seen1) return Ternary::kX;
  return seen1 ? Ternary::kOne : Ternary::kZero;
}

/// Local inductiveness of the fixpoint values: inputs are X, constant
/// cells hold their tied value, a definite combinational node equals
/// eval_ternary over its fanins' values, and a definite flop is 0 with a D
/// input that is 0. Together with the simulators' reset state (all flops
/// 0) this makes every definite value hold in every reachable cycle.
/// Returns the first violation, "" when there is none.
std::string first_non_inductive(const Netlist& nl,
                                const std::vector<Ternary>& v) {
  if (v.size() != nl.num_nodes()) return "one value per node expected";
  std::array<Ternary, netlist::kMaxFanins> ins{};
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const netlist::Node& node = nl.node(id);
    const std::string where = " at '" + node.name + "'";
    switch (node.kind) {
      case CellKind::kInput:
        if (is_definite(v[id])) return "definite primary input" + where;
        continue;
      case CellKind::kConst0:
        if (v[id] != Ternary::kZero) return "wrong constant" + where;
        continue;
      case CellKind::kConst1:
        if (v[id] != Ternary::kOne) return "wrong constant" + where;
        continue;
      case CellKind::kDff:
        if (is_definite(v[id]) &&
            (v[id] != Ternary::kZero || v[node.fanin[0]] != Ternary::kZero))
          return "definite flop without 0 and a 0 D input" + where;
        continue;
      default:
        break;
    }
    if (!is_definite(v[id])) continue;
    for (std::size_t i = 0; i < node.fanin_count; ++i)
      ins[i] = v[node.fanin[i]];
    if (eval_ternary(node.kind, std::span<const Ternary>(
                                    ins.data(), node.fanin_count)) != v[id])
      return "value not implied by its fanins" + where;
  }
  return "";
}

/// Simulate `cycles` cycles of 64 lanes under the design's stimulus and
/// return the first lattice constant the simulation contradicts, "" when
/// there is none. *num_constants counts the definite nodes checked.
std::string first_unsound(const designs::Design& d, int cycles,
                          std::size_t* num_constants) {
  const Netlist& nl = d.netlist;
  const std::vector<Ternary> v = constant_values(nl);
  std::vector<NodeId> constants;
  for (NodeId id = 0; id < nl.num_nodes(); ++id)
    if (is_definite(v[id])) constants.push_back(id);
  *num_constants = constants.size();

  sim::PackedSimulator simulator(nl);
  sim::StimulusGenerator stim(nl, d.stimulus, 1);
  std::vector<std::uint64_t> words;
  for (int t = 0; t < cycles; ++t) {
    stim.next_cycle(words);
    simulator.eval_comb(words);
    for (const NodeId id : constants) {
      const std::uint64_t want = v[id] == Ternary::kOne ? ~0ULL : 0ULL;
      if (simulator.value(id) != want)
        return "'" + nl.node(id).name + "' leaves its proved constant in "
               "cycle " + std::to_string(t);
    }
    simulator.clock();
  }
  return "";
}

TEST(Ternary, TransferMatchesConcreteForEveryKindAndInput) {
  for (const CellKind kind : kCombKinds) {
    const int arity = netlist::spec(kind).arity;
    int combos = 1;
    for (int i = 0; i < arity; ++i) combos *= 3;
    for (int c = 0; c < combos; ++c) {
      std::vector<Ternary> ins;
      int rest = c;
      for (int i = 0; i < arity; ++i) {
        ins.push_back(static_cast<Ternary>(rest % 3));
        rest /= 3;
      }
      EXPECT_EQ(eval_ternary(kind, ins), brute_force(kind, ins))
          << netlist::spec(kind).name << " combo " << c;
    }
  }
}

TEST(Ternary, DffIsTransparent) {
  const std::array<Ternary, 1> z = {Ternary::kZero};
  const std::array<Ternary, 1> o = {Ternary::kOne};
  const std::array<Ternary, 1> x = {Ternary::kX};
  EXPECT_EQ(eval_ternary(CellKind::kDff, z), Ternary::kZero);
  EXPECT_EQ(eval_ternary(CellKind::kDff, o), Ternary::kOne);
  EXPECT_EQ(eval_ternary(CellKind::kDff, x), Ternary::kX);
}

TEST(Lattice, ConstantsPropagateThroughGates) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId c1 = nl.add_const(true);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c0}, "g");   // == 0
  const NodeId h = nl.add_gate(CellKind::kOr2, {a, c1}, "h");    // == 1
  const NodeId k = nl.add_gate(CellKind::kXor2, {g, h}, "k");    // == 1
  const NodeId free = nl.add_gate(CellKind::kInv, {a}, "free");  // == X
  nl.add_output("y", k);
  nl.add_output("z", free);
  nl.validate();

  const std::vector<Ternary> v = constant_values(nl);
  EXPECT_EQ(v[a], Ternary::kX);
  EXPECT_EQ(v[c0], Ternary::kZero);
  EXPECT_EQ(v[c1], Ternary::kOne);
  EXPECT_EQ(v[g], Ternary::kZero);
  EXPECT_EQ(v[h], Ternary::kOne);
  EXPECT_EQ(v[k], Ternary::kOne);
  EXPECT_EQ(v[free], Ternary::kX);
  EXPECT_EQ(first_non_inductive(nl, v), "");
}

TEST(Lattice, SequentialFixpointThroughFlops) {
  Netlist nl;
  const NodeId c0 = nl.add_const(false);
  // q <= AND(q, 0): reset 0, D always 0 — provably constant 0 forever.
  const NodeId q =
      nl.add_gate(CellKind::kDff, {netlist::kNoNode}, "q");
  const NodeId d = nl.add_gate(CellKind::kAnd2, {q, c0}, "d");
  nl.set_fanin(q, 0, d);
  // t <= INV(t): reset 0, toggles — must widen to X.
  const NodeId t =
      nl.add_gate(CellKind::kDff, {netlist::kNoNode}, "t");
  const NodeId ti = nl.add_gate(CellKind::kInv, {t}, "ti");
  nl.set_fanin(t, 0, ti);
  nl.add_output("q", q);
  nl.add_output("t", t);
  nl.validate();

  const std::vector<Ternary> v = constant_values(nl);
  EXPECT_EQ(v[q], Ternary::kZero);
  EXPECT_EQ(v[d], Ternary::kZero);
  EXPECT_EQ(v[t], Ternary::kX);
  EXPECT_EQ(v[ti], Ternary::kX);
  EXPECT_EQ(first_non_inductive(nl, v), "");
}

TEST(Lattice, CombinationalLoopThrows) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::kInv, {netlist::kNoNode}, "g1");
  const NodeId g2 = nl.add_gate(CellKind::kAnd2, {g1, a}, "g2");
  nl.set_fanin(g1, 0, g2);
  nl.add_output("y", g2);
  EXPECT_THROW(constant_values(nl), std::runtime_error);
}

TEST(Lattice, SoundOnRegisteredDesigns) {
  for (const std::string& name : designs::all_design_names()) {
    const auto d = designs::build_design(name);
    EXPECT_EQ(first_non_inductive(d.netlist, constant_values(d.netlist)), "")
        << name;
    std::size_t num_constants = 0;
    EXPECT_EQ(first_unsound(d, 256, &num_constants), "") << name;
    EXPECT_GT(num_constants, 0u) << name;
  }
}

TEST(Lattice, SoundOnRandomDesigns) {
  for (std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    designs::RandomCircuitConfig cfg;
    cfg.num_inputs = 6;
    cfg.num_gates = 70;
    cfg.num_flops = 7;
    cfg.num_outputs = 4;
    cfg.seed = seed;
    const auto d = designs::build_random_circuit(cfg);
    EXPECT_EQ(first_non_inductive(d.netlist, constant_values(d.netlist)), "")
        << "seed " << seed;
    std::size_t num_constants = 0;
    EXPECT_EQ(first_unsound(d, 256, &num_constants), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace fcrit::lint
