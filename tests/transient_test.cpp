#include <gtest/gtest.h>

#include <bit>

#include "src/check/cone_sweep.hpp"
#include "src/designs/designs.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/rtl/builder.hpp"

namespace fcrit::fault {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

sim::StimulusSpec spec() {
  sim::StimulusSpec s;
  s.default_profile.p1 = 0.5;
  return s;
}

TEST(Transient, CombFlipIsVisibleExactlyOneCycleWhenUnlatched) {
  // a -> inv -> y: a flipped inverter output corrupts y for one cycle and
  // leaves no state behind.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", g);
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, spec(), cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(g, 5);
  EXPECT_EQ(r.affected_lanes, ~0ULL);  // flip corrupts every lane
  EXPECT_EQ(r.mismatch_cycles, 64u);   // exactly one cycle x 64 lanes
}

TEST(Transient, RegisterFlipPersistsUntilOverwritten) {
  // A held register (enable tied low after load) keeps a flipped bit
  // forever: mismatches accumulate over the remaining window.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  b.output("y", q);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(q, 8);
  EXPECT_EQ(r.affected_lanes, ~0ULL);
  // Flip persists from cycle 8 to 31: 24 cycles x 64 lanes.
  EXPECT_EQ(r.mismatch_cycles, 24u * 64u);
}

TEST(Transient, UnobservedNodeHasNoEffect) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId orphan = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, spec(), cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(orphan, 3);
  EXPECT_EQ(r.affected_lanes, 0u);
  EXPECT_EQ(r.mismatch_cycles, 0u);
}

TEST(Transient, InjectAtCycleZeroCorruptsFromTheStart) {
  // Flip at cycle 0 on the held register: no golden history before the
  // injection exists, and the corruption must persist across the whole
  // window (cycles 0..31 = 32 cycles x 64 lanes).
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  b.output("y", q);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(q, 0);
  EXPECT_EQ(r.affected_lanes, ~0ULL);
  EXPECT_EQ(r.mismatch_cycles, 32u * 64u);
}

TEST(Transient, InjectAtLastCycleIsVisibleExactlyOnce) {
  // Flip on the final cycle of the window: the corrupted value reaches the
  // PO that same cycle but there is no later cycle for it to persist into,
  // so exactly one cycle x 64 lanes mismatches — on both a comb node and a
  // held register.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  const NodeId g = b.inv(d);
  b.output("y", q);
  b.output("z", g);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  for (const NodeId site : {q, g}) {
    const auto r = campaign.simulate_transient(site, cfg.cycles - 1);
    EXPECT_EQ(r.affected_lanes, ~0ULL) << nl.node(site).name;
    EXPECT_EQ(r.mismatch_cycles, 64u) << nl.node(site).name;
  }
}

TEST(Transient, MatchesConeSweepReferenceAtEveryFaultSite) {
  // The frontier transient pass against the test-only cone sweep's flip
  // mode, at every fault site, including the cycle-0 and last-cycle edges.
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 48;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const netlist::Levelization lev = netlist::levelize(d.netlist);
  int affected = 0;
  for (const NodeId node : fault_sites(d.netlist)) {
    for (const int cycle : {0, 23, 47}) {
      const auto r = campaign.simulate_transient(node, cycle);
      const auto ref = check::cone_sweep(campaign, lev, {node, false}, cycle);
      EXPECT_EQ(r.affected_lanes, ref.detected_lanes)
          << d.netlist.node(node).name << " @" << cycle;
      EXPECT_EQ(r.mismatch_cycles, ref.mismatch_cycles)
          << d.netlist.node(node).name << " @" << cycle;
      affected += r.affected_lanes != 0;
    }
  }
  EXPECT_GT(affected, 0);  // the comparison is not all-zero against all-zero
}

TEST(Transient, RejectsBadArguments) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  CampaignConfig cfg;
  cfg.cycles = 8;
  FaultCampaign campaign(nl, spec(), cfg);
  EXPECT_THROW(campaign.simulate_transient(1, 0), std::runtime_error);
  campaign.run_golden();
  EXPECT_THROW(campaign.simulate_transient(1, 8), std::runtime_error);
  EXPECT_THROW(campaign.simulate_transient(1, -1), std::runtime_error);
  // Only fault sites take transients: not a primary input, and no id past
  // the netlist.
  EXPECT_THROW(campaign.simulate_transient(a, 0), std::runtime_error);
  EXPECT_THROW(campaign.simulate_transient(
                   static_cast<NodeId>(nl.num_nodes()), 0),
               std::runtime_error);
  EXPECT_THROW(campaign.simulate_transient(netlist::kNoNode, 0),
               std::runtime_error);
  EXPECT_NO_THROW(campaign.simulate_transient(1, 0));
}

TEST(Transient, CriticalityRarelyExceedsStuckAtDetection) {
  // A one-cycle flip locally equals the stuck-at of the opposite polarity
  // during that cycle, so SEU criticality should (almost) never exceed the
  // union detected fraction of the node's two permanent faults. Permanent
  // faults corrupt state from cycle 0, so exact dominance is not a theorem
  // — allow slack and require the bound in aggregate.
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 64;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  const auto permanent = campaign.run_all();

  std::vector<NodeId> nodes;
  for (const NodeId s : fault_sites(d.netlist))
    if (s % 7 == 0) nodes.push_back(s);
  const auto seu = campaign.transient_criticality(nodes, {8, 24, 48});

  std::map<NodeId, std::uint64_t> detected_union;
  for (const auto& fr : permanent.faults)
    detected_union[fr.fault.node] |= fr.detected_lanes;
  int violations = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double bound =
        std::popcount(detected_union[nodes[i]]) / 64.0;
    if (seu[i] > bound + 0.05) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(nodes.size()) / 10);
}

TEST(Transient, CriticalityVectorAligns) {
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const std::vector<NodeId> nodes{fault_sites(d.netlist)[0],
                                  fault_sites(d.netlist)[1]};
  const auto c = campaign.transient_criticality(nodes, {4, 20});
  ASSERT_EQ(c.size(), 2u);
  for (const double v : c) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_THROW(campaign.transient_criticality(nodes, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace fcrit::fault
