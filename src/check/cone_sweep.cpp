#include "src/check/cone_sweep.hpp"

#include <array>
#include <bit>
#include <span>
#include <vector>

#include "src/sim/packed_sim.hpp"

namespace fcrit::check {

using netlist::CellKind;
using netlist::NodeId;

fault::FaultResult cone_sweep(const fault::FaultCampaign& campaign,
                              const netlist::Levelization& lev,
                              const fault::Fault& fault, int flip_cycle) {
  const netlist::Netlist& nl = campaign.netlist();
  const fault::CampaignConfig& config = campaign.config();
  const NodeId site = fault.node;
  const bool flip = flip_cycle >= 0;
  fault::FaultResult result;
  result.fault = fault;

  // Cone: the site's transitive fanout across flip-flops, minus primary
  // inputs and constants (they always carry their golden values).
  std::vector<std::uint8_t> in_cone(nl.num_nodes(), 0);
  std::vector<NodeId> queue{site};
  in_cone[site] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const NodeId c : nl.fanouts(queue[head]))
      if (!in_cone[c]) {
        in_cone[c] = 1;
        queue.push_back(c);
      }
  for (NodeId id = 0; id < nl.num_nodes(); ++id)
    if (!fault::is_fault_site(nl, id)) in_cone[id] = 0;

  std::vector<NodeId> cone_comb;
  for (const NodeId id : lev.order)
    if (in_cone[id]) cone_comb.push_back(id);
  std::vector<NodeId> cone_ffs;
  for (const NodeId ff : nl.flops())
    if (in_cone[ff]) cone_ffs.push_back(ff);
  std::vector<NodeId> cone_pos;
  for (const auto& port : nl.outputs())
    if (in_cone[port.driver]) cone_pos.push_back(port.driver);
  result.cone_size =
      static_cast<std::uint32_t>(cone_comb.size() + cone_ffs.size());

  // Before the first simulated cycle the faulty design equals golden: from
  // power-on for a stuck-at fault, up to the flip for an SEU.
  const int first = flip ? flip_cycle : 0;
  std::vector<std::uint64_t> val(nl.num_nodes(), 0);
  for (const NodeId ff : cone_ffs) val[ff] = campaign.golden_value(first, ff);

  const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0;
  const bool site_is_ff = nl.kind(site) == CellKind::kDff;
  std::array<std::uint64_t, netlist::kMaxFanins> ins{};
  std::array<std::uint32_t, sim::kLanes> lane_mismatch_cycles{};
  std::vector<std::uint64_t> ff_next(cone_ffs.size(), 0);
  auto value = [&](int t, NodeId id) {
    return in_cone[id] ? val[id] : campaign.golden_value(t, id);
  };

  for (int t = first; t < config.cycles; ++t) {
    // A flop site's state is forced (or flipped) before the cycle's logic
    // sees it.
    if (site_is_ff && !flip) val[site] = stuck;
    if (site_is_ff && t == flip_cycle) val[site] = ~val[site];

    for (const NodeId id : cone_comb) {
      const netlist::Node& node = nl.node(id);
      for (std::size_t i = 0; i < node.fanin_count; ++i)
        ins[i] = value(t, node.fanin[i]);
      std::uint64_t v =
          netlist::eval_packed(node.kind, std::span(ins.data(), node.fanin_count));
      if (id == site && !flip) v = stuck;
      if (id == site && t == flip_cycle) v = ~v;
      val[id] = v;
    }

    std::uint64_t mismatch = 0;
    for (const NodeId po : cone_pos)
      mismatch |= val[po] ^ campaign.golden_value(t, po);
    if (mismatch) {
      if (result.first_detect_cycle < 0) result.first_detect_cycle = t;
      result.detected_lanes |= mismatch;
      result.mismatch_cycles +=
          static_cast<std::uint32_t>(std::popcount(mismatch));
      for (std::uint64_t m = mismatch; m; m &= m - 1)
        ++lane_mismatch_cycles[static_cast<std::size_t>(std::countr_zero(m))];
    }

    // Clock edge for the cone's flip-flops.
    for (std::size_t i = 0; i < cone_ffs.size(); ++i)
      ff_next[i] = value(t, nl.node(cone_ffs[i]).fanin[0]);
    for (std::size_t i = 0; i < cone_ffs.size(); ++i)
      val[cone_ffs[i]] = ff_next[i];
  }

  const auto threshold =
      static_cast<std::uint32_t>(config.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane)
    if (lane_mismatch_cycles[static_cast<std::size_t>(lane)] >= threshold)
      result.dangerous_lanes |= 1ULL << lane;
  return result;
}

}  // namespace fcrit::check
