#include "src/designs/random_circuit.hpp"

#include <gtest/gtest.h>

#include "src/check/cone_sweep.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/netlist/levelize.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"

namespace fcrit::designs {
namespace {

TEST(RandomCircuit, ProducesValidNetlist) {
  RandomCircuitConfig cfg;
  cfg.seed = 42;
  const auto d = build_random_circuit(cfg);
  EXPECT_NO_THROW(d.netlist.validate());
  EXPECT_TRUE(netlist::is_combinationally_acyclic(d.netlist));
  EXPECT_EQ(d.netlist.inputs().size(),
            static_cast<std::size_t>(cfg.num_inputs));
  EXPECT_EQ(d.netlist.flops().size(),
            static_cast<std::size_t>(cfg.num_flops));
  EXPECT_EQ(d.netlist.outputs().size(),
            static_cast<std::size_t>(cfg.num_outputs));
}

TEST(RandomCircuit, DeterministicPerSeed) {
  RandomCircuitConfig cfg;
  cfg.seed = 7;
  const auto a = build_random_circuit(cfg);
  const auto b = build_random_circuit(cfg);
  ASSERT_EQ(a.netlist.num_nodes(), b.netlist.num_nodes());
  for (netlist::NodeId id = 0; id < a.netlist.num_nodes(); ++id) {
    EXPECT_EQ(a.netlist.kind(id), b.netlist.kind(id));
    const auto fa = a.netlist.fanins(id);
    const auto fb = b.netlist.fanins(id);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
  }
  cfg.seed = 8;
  const auto c = build_random_circuit(cfg);
  bool differs = a.netlist.num_nodes() != c.netlist.num_nodes();
  for (netlist::NodeId id = 0; !differs && id < a.netlist.num_nodes(); ++id)
    differs = a.netlist.kind(id) != c.netlist.kind(id);
  EXPECT_TRUE(differs);
}

TEST(RandomCircuit, DegenerateConfigThrows) {
  RandomCircuitConfig cfg;
  cfg.num_inputs = 0;
  EXPECT_THROW(build_random_circuit(cfg), std::runtime_error);
}

/// Property sweep: the frontier fault simulator agrees with the test-only
/// cone-sweep reference on randomly-structured sequential circuits.
class RandomConeEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomConeEquivalence, FrontierMatchesConeSweep) {
  RandomCircuitConfig cfg;
  cfg.seed = GetParam();
  cfg.num_gates = 120;
  cfg.num_flops = 10;
  const auto d = build_random_circuit(cfg);

  fault::CampaignConfig fc;
  fc.cycles = 24;
  fc.seed = GetParam();
  fault::FaultCampaign campaign(d.netlist, d.stimulus, fc);
  campaign.run_golden();
  const netlist::Levelization lev = netlist::levelize(d.netlist);
  const auto faults = fault::full_fault_list(d.netlist);
  for (std::size_t i = 0; i < faults.size(); i += 5) {
    const auto rf = campaign.simulate_fault(faults[i]);
    const auto rs = check::cone_sweep(campaign, lev, faults[i]);
    EXPECT_EQ(rf.dangerous_lanes, rs.dangerous_lanes)
        << fault_name(d.netlist, faults[i]);
    EXPECT_EQ(rf.mismatch_cycles, rs.mismatch_cycles);
    EXPECT_EQ(rf.cone_size, rs.cone_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConeEquivalence,
                         ::testing::Values(11, 22, 33, 44));

/// Property sweep: Verilog round-trips hold on random circuits too.
class RandomVerilogRoundTrip
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomVerilogRoundTrip, StructurePreserved) {
  RandomCircuitConfig cfg;
  cfg.seed = GetParam();
  cfg.num_gates = 80;
  const auto d = build_random_circuit(cfg);
  const auto reparsed =
      netlist::parse_verilog(netlist::to_verilog(d.netlist));
  ASSERT_EQ(reparsed.num_nodes(), d.netlist.num_nodes());
  EXPECT_EQ(reparsed.num_edges(), d.netlist.num_edges());
  EXPECT_EQ(reparsed.flops().size(), d.netlist.flops().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomVerilogRoundTrip,
                         ::testing::Values(5, 6));

}  // namespace
}  // namespace fcrit::designs
