// Test-only reference fault simulator for the differential oracles.
//
// A levelized cone sweep over a campaign's recorded golden trace: every
// node in the site's static transitive fanout (crossing flip-flops, found
// by its own BFS) is re-evaluated every cycle in netlist::levelize order
// with the library's eval_packed, and every fanin outside that cone reads
// its golden value. It shares nothing with the production frontier pass
// beyond the golden trace and the netlist, so a bug in the worklist,
// the divergence schedule, the flop capture or the inlined cell evaluator
// shows up as a divergence instead of cancelling out.
//
// It is much slower than the frontier but fast enough for whole-universe
// runs: full re-simulation through PackedSimulator::inject, the other
// reference, costs about 50x more per fault (ee_zonal, 256 cycles, Release
// build: 44 ms against 0.9 ms), so the oracles replay only a strided
// subset through that one.
#pragma once

#include "src/fault/fault_sim.hpp"
#include "src/netlist/levelize.hpp"

namespace fcrit::check {

/// Simulate one fault against `campaign`'s golden trace (which must be
/// recorded); `lev` is netlist::levelize of the campaign's netlist.
///
/// `flip_cycle < 0`: `fault.node` is stuck at `fault.stuck_value` on every
/// cycle. Otherwise the node's value is inverted on cycle `flip_cycle` only
/// (an SEU, `stuck_value` ignored): the sweep starts there with golden
/// state, a flipped flip-flop takes its D again from the next clock edge,
/// and `detected_lanes` / `mismatch_cycles` are the SEU's affected lanes
/// and corrupted (cycle, lane) count.
///
/// Every FaultResult field is filled, cone_size with the number of non-source
/// nodes in the BFS cone.
fault::FaultResult cone_sweep(const fault::FaultCampaign& campaign,
                              const netlist::Levelization& lev,
                              const fault::Fault& fault, int flip_cycle = -1);

}  // namespace fcrit::check
