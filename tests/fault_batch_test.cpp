// Property tests for the event-driven frontier engine: every way of
// running the stuck-at universe — one fault at a time, one whole-universe
// campaign, a shuffled fault list, with or without collapse-equivalence
// sharing, at any thread count — must produce FaultResults byte-identical
// to the test-only cone-sweep reference run one fault at a time.
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/cone_sweep.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/fault/collapse.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/rtl/builder.hpp"

namespace fcrit::fault {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

sim::StimulusSpec default_spec() {
  sim::StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  return spec;
}

/// 4-bit counter with enable: heavy cone overlap (every bit's fault cone
/// reaches the shared carry chain), sequential feedback through DFFs.
struct CounterCircuit {
  Netlist nl;
  CounterCircuit() {
    rtl::Builder b(nl, 1);
    const NodeId en = b.input("en");
    rtl::Bus cnt = b.reg_placeholder_bus(4);
    const rtl::Bus inc = b.increment(cnt);
    b.connect_reg_bus(cnt, b.mux_bus(cnt, inc, en));
    b.output_bus("q", cnt);
    nl.validate();
  }
};

/// Two independent XOR/AND islands fed by constants and inputs: disjoint
/// cones plus gates whose fanins are constant nodes.
struct ConstIslandsCircuit {
  Netlist nl;
  ConstIslandsCircuit() {
    rtl::Builder b(nl, 1);
    const NodeId a = b.input("a");
    const NodeId bb = b.input("b");
    const NodeId one = b.const1();
    const NodeId zero = b.const0();
    const NodeId x1 = b.xor2(a, one);    // island 1: const fanin
    const NodeId q1 = b.dff(x1);
    b.output("o1", b.and2(q1, a));
    const NodeId x2 = b.or2(bb, zero);   // island 2: const fanin
    const NodeId q2 = b.dff(x2);
    b.output("o2", b.xor2(q2, bb));
    nl.validate();
  }
};

void expect_same_result(const FaultResult& a, const FaultResult& b,
                        const char* what) {
  EXPECT_EQ(a.fault.node, b.fault.node) << what;
  EXPECT_EQ(a.fault.stuck_value, b.fault.stuck_value) << what;
  EXPECT_EQ(a.dangerous_lanes, b.dangerous_lanes)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.detected_lanes, b.detected_lanes)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.mismatch_cycles, b.mismatch_cycles)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.first_detect_cycle, b.first_detect_cycle)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.cone_size, b.cone_size)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
}

/// One-at-a-time cone-sweep reference over the same campaign.
std::vector<FaultResult> sweep_reference(const Netlist& nl,
                                         const CampaignConfig& cfg,
                                         const std::vector<Fault>& faults) {
  FaultCampaign camp(nl, default_spec(), cfg);
  camp.run_golden();
  const netlist::Levelization lev = netlist::levelize(nl);
  std::vector<FaultResult> out;
  out.reserve(faults.size());
  for (const Fault& f : faults)
    out.push_back(check::cone_sweep(camp, lev, f));
  return out;
}

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 7;
  return cfg;
}

class FrontierEquivalenceTest : public ::testing::Test {
 protected:
  /// Check single-fault simulation and one whole-universe campaign of
  /// `nl` against the one-at-a-time cone-sweep reference. Static pruning
  /// is off, so dead-cone sites also take the reused-scratch frontier pass.
  void check_circuit(const Netlist& nl, CampaignConfig cfg) {
    const std::vector<Fault> faults = full_fault_list(nl);
    ASSERT_FALSE(faults.empty());
    const std::vector<FaultResult> ref = sweep_reference(nl, cfg, faults);

    cfg.static_prune = false;
    FaultCampaign camp(nl, default_spec(), cfg);
    camp.run_golden();
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_same_result(camp.simulate_fault(faults[i]), ref[i], "single");

    const CampaignResult whole = camp.run(faults);
    ASSERT_EQ(whole.faults.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_same_result(whole.faults[i], ref[i], "whole-universe");
  }
};

TEST_F(FrontierEquivalenceTest, OverlappingConesOnCounter) {
  CounterCircuit c;
  check_circuit(c.nl, small_config());
}

TEST_F(FrontierEquivalenceTest, ConstantNodesAndDisjointIslands) {
  ConstIslandsCircuit c;
  check_circuit(c.nl, small_config());
}

TEST_F(FrontierEquivalenceTest, RandomCircuits) {
  for (std::uint64_t seed : {3u, 17u}) {
    designs::RandomCircuitConfig rc;
    rc.num_gates = 80;
    rc.num_flops = 10;
    rc.num_inputs = 6;
    rc.num_outputs = 5;
    rc.seed = seed;
    const designs::Design d = designs::build_random_circuit(rc);
    check_circuit(d.netlist, small_config());
  }
}

TEST_F(FrontierEquivalenceTest, CollapseSharingOffMatchesToo) {
  CounterCircuit c;
  CampaignConfig cfg = small_config();
  cfg.collapse_equivalent = false;
  check_circuit(c.nl, cfg);
}

TEST(FaultBatch, DffOutputFaultsMatchReference) {
  CounterCircuit c;
  const CampaignConfig cfg = small_config();
  std::vector<Fault> dff_faults;
  for (const NodeId ff : c.nl.flops()) {
    dff_faults.push_back({ff, false});
    dff_faults.push_back({ff, true});
  }
  ASSERT_FALSE(dff_faults.empty());
  const auto ref = sweep_reference(c.nl, cfg, dff_faults);

  CampaignConfig fcfg = cfg;
  fcfg.static_prune = false;  // flop-ring sites must be simulated too
  FaultCampaign camp(c.nl, default_spec(), fcfg);
  const auto got = camp.run(dff_faults).faults;
  ASSERT_EQ(got.size(), dff_faults.size());
  for (std::size_t i = 0; i < dff_faults.size(); ++i)
    expect_same_result(got[i], ref[i], "dff-output");
  // A stuck counter bit must actually corrupt the observed count.
  bool any_detected = false;
  for (const auto& r : got) any_detected |= r.detected_lanes != 0;
  EXPECT_TRUE(any_detected);
}

TEST(FaultBatch, ShuffledFaultListMatchesReference) {
  // One worker reuses its scratch across the whole list, so in a shuffled
  // order many faults sit on a flop inside an earlier fault's cone; a
  // flop site must never capture its own divergent D input. Static pruning
  // is off so every fault of the list takes that shared-scratch pass.
  std::vector<Netlist> circuits;
  circuits.push_back(CounterCircuit().nl);
  for (std::uint64_t seed : {5u, 29u}) {
    designs::RandomCircuitConfig rc;
    rc.num_gates = 120;
    rc.num_flops = 12;
    rc.seed = seed;
    circuits.push_back(designs::build_random_circuit(rc).netlist);
  }
  std::mt19937_64 rng(99);
  for (const Netlist& nl : circuits) {
    std::vector<Fault> faults = full_fault_list(nl);
    std::shuffle(faults.begin(), faults.end(), rng);
    const std::vector<FaultResult> ref =
        sweep_reference(nl, small_config(), faults);
    CampaignConfig cfg = small_config();
    cfg.num_threads = 1;
    cfg.static_prune = false;
    FaultCampaign camp(nl, default_spec(), cfg);
    const CampaignResult got = camp.run(faults);
    ASSERT_EQ(got.faults.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_same_result(got.faults[i], ref[i], "shuffled");
  }
}

TEST(FaultBatch, CollapseSharingSimulatesOneFaultPerClass) {
  CounterCircuit c;
  CampaignConfig cfg = small_config();
  cfg.static_prune = false;
  FaultCampaign camp(c.nl, default_spec(), cfg);
  const CampaignResult r = camp.run_all();
  // Collapse-equivalence must actually merge some of the style mapper's
  // INV(NAND)/INV(NOR) pairs, and the campaign simulates exactly one
  // fault per class.
  const CollapsedFaults collapsed = collapse_faults(c.nl);
  EXPECT_LT(collapsed.representatives.size(), r.faults.size());
  EXPECT_EQ(r.simulated_faults, collapsed.representatives.size());
}

TEST(FaultBatch, ThreadCountSweepIsBitIdentical) {
  designs::RandomCircuitConfig rc;
  rc.num_gates = 100;
  rc.num_flops = 10;
  rc.seed = 11;
  const designs::Design d = designs::build_random_circuit(rc);

  auto run_with_threads = [&](int threads) {
    CampaignConfig cfg = small_config();
    cfg.num_threads = threads;
    FaultCampaign camp(d.netlist, default_spec(), cfg);
    return camp.run_all();
  };
  const CampaignResult r1 = run_with_threads(1);
  for (const int threads : {2, 4}) {
    const CampaignResult rn = run_with_threads(threads);
    ASSERT_EQ(rn.faults.size(), r1.faults.size());
    for (std::size_t i = 0; i < r1.faults.size(); ++i) {
      // Bit-identical CampaignResult ordering and content per the
      // campaign determinism contract.
      expect_same_result(rn.faults[i], r1.faults[i], "thread-sweep");
    }
    EXPECT_EQ(rn.simulated_faults, r1.simulated_faults);
    EXPECT_EQ(rn.frontier_evals, r1.frontier_evals);
    EXPECT_EQ(rn.early_exit_cycles, r1.early_exit_cycles);
  }
}

TEST(FaultBatch, PrunedRunMatchesReference) {
  // The default campaign (static pruning and collapse sharing on) against
  // the reference: pruned faults must come back with the verdicts and cone
  // sizes the sweep simulates for them.
  designs::RandomCircuitConfig rc;
  rc.num_gates = 90;
  rc.num_flops = 8;
  rc.seed = 23;
  const designs::Design d = designs::build_random_circuit(rc);
  const std::vector<Fault> faults = full_fault_list(d.netlist);
  const std::vector<FaultResult> ref =
      sweep_reference(d.netlist, small_config(), faults);

  FaultCampaign fr(d.netlist, default_spec(), small_config());
  const CampaignResult rr = fr.run_all();
  ASSERT_EQ(rr.faults.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_same_result(rr.faults[i], ref[i], "default-run");
  EXPECT_GT(rr.simulated_faults, 0u);
  EXPECT_LE(rr.simulated_faults, rr.faults.size());
  EXPECT_GT(rr.frontier_evals, 0u);
}

}  // namespace
}  // namespace fcrit::fault
