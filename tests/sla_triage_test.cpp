// Static fault pruning tests: the output-reachability pass on crafted
// netlists (dead chains and a flip-flop ring with no output), the
// soundness property — every fault it skips really simulates Benign —
// fuzzed over random sequential circuits, campaign bit-identity with
// pruning on vs off (crafted constant-site and constant-blocked netlists
// included), and the diff_static_prune oracle including its
// planted-defect self-tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/check/differential.hpp"
#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/fault/fault.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/netlist/netlist.hpp"

namespace fcrit::fault {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

designs::Design random_design(std::uint64_t seed) {
  designs::RandomCircuitConfig cfg;
  cfg.num_inputs = 6;
  cfg.num_gates = 70;
  cfg.num_flops = 7;
  cfg.num_outputs = 4;
  cfg.seed = seed;
  return designs::build_random_circuit(cfg);
}

designs::Design crafted(std::string name, Netlist nl) {
  nl.validate();
  designs::Design d;
  d.name = std::move(name);
  d.netlist = std::move(nl);
  return d;
}

/// g = AND(a, 0) holds 0 forever: SA0 at g simulates to all-zero on its
/// own, SA1 flips an observable net.
designs::Design constant_site_design() {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c0}, "g");
  const NodeId h = nl.add_gate(CellKind::kOr2, {g, a}, "h");
  nl.add_output("y", h);
  return crafted("constant_site", std::move(nl));
}

/// g structurally reaches the output through k, but k = AND(g, 0) is
/// pinned at 0 whatever g does: not a dead cone, so g is simulated.
designs::Design constant_blocked_design() {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "g");
  const NodeId k = nl.add_gate(CellKind::kAnd2, {g, c0}, "k");
  const NodeId out = nl.add_gate(CellKind::kOr2, {k, a}, "out");
  nl.add_output("y", out);
  return crafted("constant_blocked", std::move(nl));
}

TEST(StaticPrune, SkipsExactlyTheSitesThatCannotReachAnOutput) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  // A dead combinational chain.
  const NodeId dead = nl.add_gate(CellKind::kInv, {a}, "dead");
  const NodeId dead2 = nl.add_gate(CellKind::kBuf, {dead}, "dead2");
  // A site that drives only a flip-flop ring: s -> x -> q1 -> q2 -> x.
  const NodeId s = nl.add_gate(CellKind::kBuf, {b}, "s");
  const NodeId x = nl.add_gate(CellKind::kXor2, {s, netlist::kNoNode}, "x");
  const NodeId q1 = nl.add_gate(CellKind::kDff, {x}, "q1");
  const NodeId q2 = nl.add_gate(CellKind::kDff, {q1}, "q2");
  nl.set_fanin(x, 1, q2);
  const NodeId live = nl.add_gate(CellKind::kAnd2, {a, b}, "live");
  nl.add_output("y", live);
  const designs::Design d = crafted("dead_cones", std::move(nl));

  const std::vector<char> reach =
      netlist::reach_backward_from_outputs(d.netlist);
  const std::vector<NodeId> unreachable{dead, dead2, s, x, q1, q2};
  for (NodeId id = 0; id < d.netlist.num_nodes(); ++id) {
    const bool expect_dead =
        std::find(unreachable.begin(), unreachable.end(), id) !=
        unreachable.end();
    EXPECT_EQ(reach[id] == 0, expect_dead) << d.netlist.node(id).name;
  }

  CampaignConfig on;
  on.cycles = 32;
  on.seed = 3;
  CampaignConfig off = on;
  off.static_prune = false;
  FaultCampaign cam_on(d.netlist, d.stimulus, on);
  FaultCampaign cam_off(d.netlist, d.stimulus, off);
  const CampaignResult r_on = cam_on.run_all();
  const CampaignResult r_off = cam_off.run_all();

  EXPECT_EQ(r_on.pruned_faults, 2 * unreachable.size());
  EXPECT_EQ(r_off.pruned_faults, 0u);
  ASSERT_EQ(r_on.faults.size(), r_off.faults.size());
  for (std::size_t i = 0; i < r_on.faults.size(); ++i) {
    const FaultResult& f = r_on.faults[i];
    if (reach[f.fault.node]) continue;
    EXPECT_EQ(f.detected_lanes, 0u) << fault_name(d.netlist, f.fault);
    EXPECT_EQ(f.mismatch_cycles, 0u);
    EXPECT_LT(f.first_detect_cycle, 0);
    EXPECT_EQ(f.cone_size, r_off.faults[i].cone_size)
        << fault_name(d.netlist, f.fault);
  }
}

TEST(StaticPrune, PrunedFaultsSimulateBenign) {
  for (std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    const auto d = random_design(seed);
    const std::vector<char> reach =
        netlist::reach_backward_from_outputs(d.netlist);
    CampaignConfig cfg;
    cfg.cycles = 48;
    cfg.seed = seed;
    cfg.static_prune = false;  // the reference must actually simulate
    FaultCampaign campaign(d.netlist, d.stimulus, cfg);
    campaign.run_golden();
    for (const Fault& f : full_fault_list(d.netlist)) {
      if (reach[f.node]) continue;
      const auto r = campaign.simulate_fault(f);
      EXPECT_EQ(r.detected_lanes, 0u)
          << "seed " << seed << " fault " << fault_name(d.netlist, f);
      EXPECT_EQ(r.dangerous_lanes, 0u);
      EXPECT_EQ(r.mismatch_cycles, 0u);
      EXPECT_LT(r.first_detect_cycle, 0);
    }
  }
}

TEST(StaticPrune, CampaignBitIdenticalWithPruningOnAndOff) {
  // The crafted constant-site and constant-blocked netlists have no dead
  // cone, so every fault on them is simulated; the results must still
  // match pruning off bit for bit.
  for (const auto& d :
       {designs::build_design("or1200_icfsm"), constant_site_design(),
        constant_blocked_design()}) {
    CampaignConfig on;
    on.cycles = 48;
    on.seed = 11;
    on.static_prune = true;
    CampaignConfig off = on;
    off.static_prune = false;

    FaultCampaign cam_on(d.netlist, d.stimulus, on);
    FaultCampaign cam_off(d.netlist, d.stimulus, off);
    const auto r_on = cam_on.run_all();
    const auto r_off = cam_off.run_all();

    if (d.name == "or1200_icfsm") {
      EXPECT_GT(r_on.pruned_faults, 0u);
    } else {
      EXPECT_EQ(r_on.pruned_faults, 0u) << d.name;
    }
    ASSERT_EQ(r_on.faults.size(), r_off.faults.size()) << d.name;
    for (std::size_t i = 0; i < r_on.faults.size(); ++i) {
      const auto& a = r_on.faults[i];
      const auto& b = r_off.faults[i];
      EXPECT_EQ(a.dangerous_lanes, b.dangerous_lanes) << d.name << " " << i;
      EXPECT_EQ(a.detected_lanes, b.detected_lanes) << d.name << " " << i;
      EXPECT_EQ(a.mismatch_cycles, b.mismatch_cycles) << d.name << " " << i;
      EXPECT_EQ(a.cone_size, b.cone_size) << d.name << " " << i;
      EXPECT_EQ(a.first_detect_cycle, b.first_detect_cycle)
          << d.name << " " << i;
    }
    if (d.name == "constant_site") {
      // SA0 at the constant-0 net g is simulated and comes out all-zero.
      const NodeId g = *d.netlist.find("g");
      for (const auto& f : r_on.faults)
        if (f.fault.node == g && !f.fault.stuck_value) {
          EXPECT_EQ(f.mismatch_cycles, 0u);
        }
    }
  }
}

TEST(StaticPruneOracle, CleanOnRegisteredAndRandomDesigns) {
  CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 4;
  EXPECT_EQ(check::diff_static_prune(designs::build_design("or1200_icfsm"),
                                     cfg),
            "");
  cfg.cycles = 32;
  for (std::uint64_t seed : {5u, 6u}) {
    cfg.seed = seed;
    EXPECT_EQ(check::diff_static_prune(random_design(seed), cfg), "")
        << "seed " << seed;
  }
}

TEST(StaticPruneOracle, PlantedReachablePruneIsCaught) {
  CampaignConfig cfg;
  cfg.cycles = 32;
  cfg.seed = 5;
  const auto msg =
      check::diff_static_prune(designs::build_design("sdram_ctrl"), cfg,
                               check::PruneBug::kPruneReachable);
  // The planted fault simulates all-zero, so only the structural check
  // can object.
  EXPECT_NE(msg.find("reaches output driver"), std::string::npos) << msg;
}

TEST(StaticPruneOracle, PlantedObservablePruneIsCaught) {
  CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 5;
  const auto msg =
      check::diff_static_prune(designs::build_design("sdram_ctrl"), cfg,
                               check::PruneBug::kPruneObservable);
  EXPECT_NE(msg.find("observable in simulation"), std::string::npos) << msg;
}

}  // namespace
}  // namespace fcrit::fault
