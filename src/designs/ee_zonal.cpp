// Zonal E/E integration fabric: four zone ECUs behind a zonal gateway.
//
// This is the scale design of the benchmark suite — the paper's target is
// automotive E/E systems built from many interacting ECUs, and this design
// reproduces that shape at gate level:
//   * per zone, a lean always-on front end: a CAN-style frame capture
//     register (valid-gated), a fold/rotate conditioning stage, a per-frame
//     checksum accumulator cleared at frame boundaries, a heartbeat
//     watchdog, and a four-state receive/check/forward FSM
//   * per zone, a large end-of-frame diagnosis block behind a frame-strobe
//     gate: a deep syndrome-distiller chain, pattern matchers, a first-hit
//     encoder, an activity profiler, and limp-home decision logic, with the
//     verdict latched into frame-strobed status registers. Real zone
//     controllers run exactly this shape — heavy diagnosis logic that only
//     observes data at frame boundaries and idles (inputs forced to zero)
//     between them.
//   * gateway: a free-running round-robin grant counter; each zone owns a
//     dedicated egress register and backbone port (zonal gateways dedicate
//     per-zone ports, which also keeps fault cones of different zones
//     structurally disjoint)
//
// Unlike the OR1200 fetch unit — whose dense global feedback keeps every
// fault cone active on every cycle — the diagnosis block here is
// golden-constant between frame strobes: its inputs are ANDed with a
// frame-end strobe derived from a free-running (input-independent, hence
// workload-lane-uniform) phase counter, so 15 of every 16 cycles the whole
// block sees all-zero words and produces no events. The distiller is built
// from AND-of-OR stages whose idle value is zero, so an upset injected
// mid-chain is absorbed within one stage while its *static* cone still
// spans every stage downstream. A static cone analysis therefore charges
// most faults for hundreds of nodes that event-driven resimulation never
// touches. That is the activity profile E/E-scale fault campaigns actually
// present, and the regime where the frontier engine pays off.
#include "src/designs/designs.hpp"

#include "src/rtl/builder.hpp"

namespace fcrit::designs {

using rtl::Builder;
using rtl::Bus;
using netlist::NodeId;

namespace {

constexpr int kZones = 4;
constexpr int kFrameBits = 32;
constexpr int kWordBits = 8;       // folded internal datapath width
constexpr int kPhaseBits = 4;      // 16-cycle frame window
constexpr int kWdBits = 6;         // watchdog timeout horizon
constexpr int kDistillStages = 24; // depth of the syndrome distiller

/// Left-rotate a bus by `amount` (pure rewiring, no gates).
Bus rotl(const Bus& a, int amount) {
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[(i + static_cast<std::size_t>(amount)) % a.size()] = a[i];
  return out;
}

/// AND every bit of `a` with the scalar strobe `s`.
Bus gate_bus(Builder& b, const Bus& a, NodeId s) {
  Bus out;
  out.reserve(a.size());
  for (const NodeId n : a) out.push_back(b.and2(n, s));
  return out;
}

/// One distiller stage: each output bit is the AND of two OR-terms over
/// four distinct input bits. Zero-preserving (the idle value stays zero
/// down the whole chain) and strongly masking: while the chain idles, a
/// single upset raises at most one OR-term of any consumer, and the AND
/// with the other (zero) term absorbs it.
Bus distill_stage(Builder& b, const Bus& s) {
  const int w = static_cast<int>(s.size());
  Bus out;
  out.reserve(s.size());
  for (int i = 0; i < w; ++i)
    out.push_back(b.and2(b.or2(s[i], s[(i + 1) % w]),
                         b.or2(s[(i + 3) % w], s[(i + 5) % w])));
  return out;
}

/// A bank of 8-bit syndrome matchers over several rotations of `view`.
/// Patterns are chosen dense in 1-bits so that, while the view idles at
/// all-zeros, every matcher's AND-reduce holds hard zeros that absorb
/// single-bit upsets. Returns the per-matcher hit bits.
Bus syndrome_bank(Builder& b, const Bus& view, const std::vector<int>& rots) {
  static constexpr std::uint64_t kPatterns[4] = {0xB6, 0x6D, 0xD9, 0x9B};
  Bus hits;
  for (const int r : rots) {
    const Bus v = rotl(view, r);
    const int slices = static_cast<int>(view.size()) / 8;
    for (int s = 0; s < slices; ++s)
      hits.push_back(
          b.eq_const(Builder::slice(v, s * 8, 8), kPatterns[(s + r) % 4]));
  }
  return hits;
}

/// First-hit encoder: priority-resolve `hits` (lowest index wins) and
/// OR-encode the winner's index. Returns the index bus.
Bus first_hit_encode(Builder& b, const Bus& hits, int index_bits) {
  Bus first;
  first.reserve(hits.size());
  NodeId seen = b.const0();
  for (const NodeId h : hits) {
    first.push_back(b.and2(h, b.inv(seen)));
    seen = b.or2(seen, h);
  }
  Bus idx;
  for (int j = 0; j < index_bits; ++j) {
    std::vector<NodeId> terms;
    for (std::size_t i = 0; i < first.size(); ++i)
      if (i & (1u << j)) terms.push_back(first[i]);
    idx.push_back(terms.empty() ? b.const0() : b.or_n(terms));
  }
  return idx;
}

/// One zone ECU. `grant` is the gateway's egress strobe for this zone.
void build_zone(Builder& b, int z, NodeId rst, NodeId grant) {
  const std::string zp = "z" + std::to_string(z) + "_";
  const NodeId valid = b.input(zp + "valid");
  const Bus frame = b.input_bus(zp + "frame", kFrameBits);

  // --- Always-on front end (small) -------------------------------------
  // Fold the frame down to the internal word width and latch it while
  // the valid strobe is high.
  const Bus fold16 = b.xor_bus(Builder::slice(frame, 0, 16),
                               Builder::slice(frame, 16, 16));
  const Bus fold = b.xor_bus(Builder::slice(fold16, 0, kWordBits),
                             Builder::slice(fold16, kWordBits, kWordBits));
  const Bus captured = b.reg_en_bus(fold, valid);

  // Frame-phase counter: the zone's free-running local timebase. It is
  // deliberately not resettable — frame windows are self-timed, so the
  // frame-end strobe is a pure function of time, identical across every
  // workload lane. That lane uniformity is what lets the strobe gate
  // below hold the diagnosis block at all-zero *words*.
  const Bus phase = b.reg_placeholder_bus(kPhaseBits);
  b.connect_reg_bus(phase, b.increment(phase));
  const NodeId frame_end = b.eq_const(phase, (1u << kPhaseBits) - 1);

  // One flush-through conditioning stage.
  Bus stage = b.xor_bus(captured, rotl(captured, 3));
  {
    Bus q;
    q.reserve(stage.size());
    for (const NodeId d : stage) q.push_back(b.dff(d));
    stage = q;
  }

  // Per-frame checksum: accumulate across the frame window, cleared at
  // every frame boundary so divergence cannot stick.
  const Bus sum = b.reg_placeholder_bus(kWordBits);
  const Bus sum_next = b.xor_bus(rotl(sum, 5), stage);
  b.connect_reg_bus(sum, b.mux_bus(sum_next, b.constant(0, kWordBits),
                                   b.or2(rst, frame_end)));

  // Heartbeat watchdog: counts idle cycles, cleared by traffic; a timeout
  // raises the zone error flag until the next valid frame.
  const Bus wd = b.reg_placeholder_bus(kWdBits);
  b.connect_reg_bus(wd, b.mux_bus(b.increment(wd), b.constant(0, kWdBits),
                                  b.or2(valid, rst)));
  const NodeId timeout = b.eq_const(wd, (1u << kWdBits) - 1);
  const NodeId err = b.reg_placeholder();
  b.connect_reg(err, b.and2(b.or2(b.and2(err, b.inv(valid)), timeout),
                            b.inv(rst)));

  // Receive/check/forward FSM (re-syncs to IDLE, so state divergence is
  // short-lived): IDLE -> RX on valid, RX -> CHECK, CHECK -> FWD when the
  // checksum parity agrees with the phase parity (else IDLE), FWD -> IDLE
  // once granted.
  const Bus st = b.reg_placeholder_bus(2);
  const NodeId in_idle = b.eq_const(st, 0);
  const NodeId in_rx = b.eq_const(st, 1);
  const NodeId in_check = b.eq_const(st, 2);
  const NodeId in_fwd = b.eq_const(st, 3);
  const NodeId sum_ok =
      b.xnor2(b.xor2(sum[0], sum[kWordBits / 2]), phase[0]);
  Bus st_next = b.mux_bus(st, b.constant(1, 2), b.and2(in_idle, valid));
  st_next = b.mux_bus(st_next, b.constant(2, 2), in_rx);
  st_next = b.mux_bus(st_next,
                      b.mux_bus(b.constant(0, 2), b.constant(3, 2), sum_ok),
                      in_check);
  st_next = b.mux_bus(st_next, b.constant(0, 2), b.and2(in_fwd, grant));
  st_next = b.mux_bus(st_next, b.constant(0, 2), rst);
  b.connect_reg_bus(st, st_next);

  // Egress: the zone's dedicated gateway port. The egress register loads
  // when the gateway grants this zone while it is forwarding.
  const NodeId load = b.and2(in_fwd, grant);
  const Bus egress = b.reg_en_bus(
      Builder::concat(sum, Builder::slice(phase, 0, kPhaseBits)), load);
  b.output_bus(zp + "egress", egress);
  b.output(zp + "err", err);
  b.output(zp + "state0", st[0]);
  b.output(zp + "state1", st[1]);

  // --- Frame-strobe gate (the chokepoint) ------------------------------
  // The diagnosis block only observes data at the frame boundary: every
  // input bit is ANDed with the lane-uniform frame-end strobe, so between
  // strobes the whole block computes on all-zero words.
  const Bus snapshot = Builder::concat(sum, stage);  // 2*kWordBits wide
  const Bus gated = gate_bus(b, snapshot, frame_end);

  // --- End-of-frame diagnosis block (large, strobe-idle) ---------------
  // Syndrome distiller: a deep chain of masking stages over the gated
  // snapshot. Depth is the point — a fault in stage k has every later
  // stage in its static cone, but while the chain idles an upset is
  // absorbed within one stage.
  Bus d = Bus(kWordBits);
  for (int i = 0; i < kWordBits; ++i)
    d[i] = b.or2(gated[2 * i], gated[2 * i + 1]);
  Bus mid;
  for (int s = 0; s < kDistillStages; ++s) {
    d = distill_stage(b, d);
    if (s == kDistillStages / 2) mid = d;
  }

  // Syndrome matchers over the distiller mid-tap and tail.
  const Bus view = Builder::concat(mid, d);
  const Bus hits = syndrome_bank(b, view, {0, 3, 7, 11});
  const Bus syndrome = first_hit_encode(b, hits, 3);
  const NodeId hit_any = b.reduce_or(hits);

  // Activity profiler: did the frame carry energy, and was it balanced
  // across halves? All OR/AND trees — at idle every input is a hard zero.
  const NodeId active = b.reduce_or(gated);
  const Bus halves = b.and_bus(Builder::slice(gated, 0, kWordBits),
                               Builder::slice(gated, kWordBits, kWordBits));
  const NodeId dense = b.reduce_or(halves);

  // Limp-home decision: a frame that matched a fault syndrome while the
  // watchdog or checksum path already flagged trouble demands degraded
  // operation. Re-gated with the strobe so the decision tree is also
  // quiescent between frames.
  const NodeId trouble = b.or2(err, timeout);
  const NodeId limp =
      b.and2(b.or2(b.and2(hit_any, trouble), b.and2(dense, err)), frame_end);
  const NodeId quiet_frame = b.and2(b.inv(active), frame_end);

  // Frame-strobed status register: the diagnosis verdict is only captured
  // at the boundary, so mid-frame divergence never reaches architected
  // state.
  Bus status_d = syndrome;
  status_d.push_back(hit_any);
  status_d.push_back(active);
  status_d.push_back(dense);
  status_d.push_back(limp);
  status_d.push_back(quiet_frame);
  const Bus status = b.reg_en_bus(status_d, frame_end);
  b.output_bus(zp + "status", status);
}

}  // namespace

Design build_ee_zonal() {
  Design d;
  d.name = "ee_zonal";
  d.netlist.set_name("ee_zonal");
  Builder b(d.netlist, /*style_seed=*/0xee20);

  const NodeId rst = b.input("rst");

  // Gateway grant generator: a free-running 2-bit round-robin counter
  // decoded to one-hot per-zone strobes. Zones depend on it, never the
  // other way around, so zone fault cones stay pairwise disjoint.
  const Bus rr = b.reg_placeholder_bus(2);
  b.connect_reg_bus(rr, b.mux_bus(b.increment(rr), b.constant(0, 2), rst));
  const Bus grant = b.decode(rr);
  b.output("gw_grant0", grant[0]);
  b.output("gw_grant1", grant[1]);

  for (int z = 0; z < kZones; ++z) build_zone(b, z, rst, grant[z]);

  d.stimulus.profiles["rst"] = {.p1 = 0.01, .hold_cycles = 2,
                                .hold_value = true};
  for (int z = 0; z < kZones; ++z) {
    const std::string zp = "z" + std::to_string(z) + "_";
    // Zones see different traffic densities, like mixed CAN buses.
    d.stimulus.profiles[zp + "valid"] = {.p1 = 0.10 + 0.05 * z,
                                         .hold_cycles = 0,
                                         .hold_value = false};
    d.stimulus.profiles[zp + "frame"] = {.p1 = 0.5, .hold_cycles = 0,
                                         .hold_value = false};
  }
  d.netlist.validate();
  return d;
}

}  // namespace fcrit::designs
