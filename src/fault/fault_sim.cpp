#include "src/fault/fault_sim.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "src/fault/collapse.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"

namespace fcrit::fault {

using netlist::CellKind;
using netlist::NodeId;

namespace {

std::uint64_t fault_key(const Fault& f) {
  return (static_cast<std::uint64_t>(f.node) << 1) | (f.stuck_value ? 1 : 0);
}

/// Inlined twin of netlist::eval_packed for the frontier hot loop (the
/// library version is an out-of-line call, which costs more than the
/// evaluation itself at frontier eval rates). Semantics must match
/// src/netlist/cell_library.cpp exactly; the tests and `fcrit check`
/// compare every verdict against the cone-sweep reference, which calls
/// eval_packed, so any drift trips them immediately.
inline std::uint64_t eval_cell(CellKind kind, const std::uint64_t* ins) {
  switch (kind) {
    case CellKind::kBuf: return ins[0];
    case CellKind::kInv: return ~ins[0];
    case CellKind::kAnd2: return ins[0] & ins[1];
    case CellKind::kAnd3: return ins[0] & ins[1] & ins[2];
    case CellKind::kAnd4: return ins[0] & ins[1] & ins[2] & ins[3];
    case CellKind::kNand2: return ~(ins[0] & ins[1]);
    case CellKind::kNand3: return ~(ins[0] & ins[1] & ins[2]);
    case CellKind::kNand4: return ~(ins[0] & ins[1] & ins[2] & ins[3]);
    case CellKind::kOr2: return ins[0] | ins[1];
    case CellKind::kOr3: return ins[0] | ins[1] | ins[2];
    case CellKind::kOr4: return ins[0] | ins[1] | ins[2] | ins[3];
    case CellKind::kNor2: return ~(ins[0] | ins[1]);
    case CellKind::kNor3: return ~(ins[0] | ins[1] | ins[2]);
    case CellKind::kNor4: return ~(ins[0] | ins[1] | ins[2] | ins[3]);
    case CellKind::kXor2: return ins[0] ^ ins[1];
    case CellKind::kXnor2: return ~(ins[0] ^ ins[1]);
    case CellKind::kAoi21: return ~((ins[0] & ins[1]) | ins[2]);
    case CellKind::kAoi22: return ~((ins[0] & ins[1]) | (ins[2] & ins[3]));
    case CellKind::kOai21: return ~((ins[0] | ins[1]) & ins[2]);
    case CellKind::kOai22: return ~((ins[0] | ins[1]) & (ins[2] | ins[3]));
    case CellKind::kMux2: return (ins[0] & ~ins[2]) | (ins[1] & ins[2]);
    default:
      // Sources and DFFs never enter the combinational worklist.
      throw std::logic_error("frontier eval: non-evaluable cell kind");
  }
}

/// Run `lane(next)` once on each of the lanes CampaignConfig::num_threads
/// resolves to: -1 = the process pool (--jobs / FCRIT_THREADS), otherwise
/// a private pool of exactly that many lanes (0 = hardware concurrency),
/// so an explicit request never reconfigures global state. `next(i)` hands
/// out the indices of [0, items) from one shared atomic cursor and returns
/// false once they run out, so a lane held up by a slow fault never
/// strands the faults behind it.
template <class Lane>
void pull_each(int num_threads, std::size_t items, const Lane& lane) {
  if (items == 0) return;
  std::atomic<std::size_t> cursor{0};
  const auto next = [&](std::size_t& i) {
    i = cursor.fetch_add(1, std::memory_order_relaxed);
    return i < items;
  };
  const int lanes = num_threads < 0    ? util::num_threads()
                    : num_threads == 0 ? util::hardware_threads()
                                       : num_threads;
  const auto n = static_cast<std::int64_t>(
      std::min(static_cast<std::size_t>(lanes), items));
  const util::ChunkFn body = [&](std::int64_t, std::int64_t) { lane(next); };
  if (num_threads < 0) {
    util::parallel_for(0, n, 1, body);
  } else {
    util::ThreadPool pool(static_cast<int>(n));
    pool.parallel_for(0, n, 1, body);
  }
}

}  // namespace

int CampaignConfig::min_mismatch_cycles() const {
  // ceil(fraction * cycles) with a 1e-9 tolerance: the threshold is the
  // smallest cycle count whose fraction of the campaign reaches the
  // configured value, and exact products (0.25 * 256) must not be bumped
  // to the next integer by FP representation noise.
  const int k =
      static_cast<int>(std::ceil(dangerous_cycle_fraction * cycles - 1e-9));
  return k < 1 ? 1 : k;
}

int FaultResult::dangerous_count() const {
  return std::popcount(dangerous_lanes);
}

int FaultResult::detected_count() const {
  return std::popcount(detected_lanes);
}

FaultCampaign::FaultCampaign(const netlist::Netlist& nl,
                             const sim::StimulusSpec& stimulus,
                             CampaignConfig config)
    : nl_(&nl),
      stimulus_(stimulus),
      config_(config),
      lev_(netlist::levelize(nl)),
      num_nodes_(nl.num_nodes()) {
  if (config_.cycles <= 0)
    throw std::runtime_error("FaultCampaign: cycles must be positive");
  is_po_driver_.assign(num_nodes_, 0);
  for (const auto& port : nl.outputs()) is_po_driver_[port.driver] = 1;
  build_frontier_graph();
  // The fanout CSR cache (transitive_fanout) must exist before worker
  // threads race to read it.
  if (num_nodes_ > 0) nl.fanouts(0);
}

void FaultCampaign::build_frontier_graph() {
  const std::size_t n = num_nodes_;
  FrontierGraph& g = fgraph_;
  g.kind.resize(n);
  g.fanin_count.resize(n);
  g.fanin.assign(n * netlist::kMaxFanins, 0);
  g.comb_off.assign(n + 1, 0);
  g.flop_off.assign(n + 1, 0);
  // Count edges per producer (offset slot id + 1, so the prefix sum lands
  // the counts in place), splitting DFF consumers from combinational ones.
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = nl_->node(id);
    g.kind[id] = static_cast<std::uint8_t>(node.kind);
    g.fanin_count[id] = node.fanin_count;
    auto& off = node.kind == CellKind::kDff ? g.flop_off : g.comb_off;
    for (std::size_t j = 0; j < node.fanin_count; ++j) {
      g.fanin[id * netlist::kMaxFanins + j] = node.fanin[j];
      ++off[node.fanin[j] + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.comb_off[i + 1] += g.comb_off[i];
    g.flop_off[i + 1] += g.flop_off[i];
  }
  g.comb_edge.resize(g.comb_off[n]);
  g.flop_edge.resize(g.flop_off[n]);
  std::vector<std::uint32_t> ccur(g.comb_off.begin(), g.comb_off.end() - 1);
  std::vector<std::uint32_t> fcur(g.flop_off.begin(), g.flop_off.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = nl_->node(id);
    if (node.kind == CellKind::kDff) {
      for (std::size_t j = 0; j < node.fanin_count; ++j)
        g.flop_edge[fcur[node.fanin[j]]++] = id;
    } else {
      const std::uint64_t entry =
          (static_cast<std::uint64_t>(lev_.level[id]) << 32) | id;
      for (std::size_t j = 0; j < node.fanin_count; ++j)
        g.comb_edge[ccur[node.fanin[j]]++] = entry;
    }
  }
}

void FaultCampaign::run_golden() {
  util::Timer timer;
  sim::PackedSimulator simulator(*nl_);
  sim::StimulusGenerator stim(*nl_, stimulus_, config_.seed);
  trace_.assign(static_cast<std::size_t>(config_.cycles) * num_nodes_, 0);

  std::vector<std::uint64_t> words;
  for (int t = 0; t < config_.cycles; ++t) {
    stim.next_cycle(words);
    simulator.eval_comb(words);
    std::uint64_t* row = trace_.data() +
                         static_cast<std::size_t>(t) * num_nodes_;
    std::memcpy(row, simulator.values().data(),
                num_nodes_ * sizeof(std::uint64_t));
    simulator.clock();
  }
  golden_ready_ = true;
  golden_seconds_ = timer.seconds();
}

std::vector<NodeId> FaultCampaign::transitive_fanout(NodeId src) const {
  std::vector<std::uint8_t> seen(num_nodes_, 0);
  std::vector<NodeId> queue{src};
  seen[src] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId consumer : nl_->fanouts(queue[head])) {
      if (!seen[consumer]) {
        seen[consumer] = 1;
        queue.push_back(consumer);  // crosses DFFs: sequential propagation
      }
    }
  }
  return queue;
}

// ---------------------------------------------------------------------------
// Event-driven frontier engine.
// ---------------------------------------------------------------------------

/// Per-worker frontier state. All per-node arrays are epoch-stamped (one
/// epoch per simulated fault-cycle), so reusing the scratch across faults
/// never requires an O(num_nodes) clear.
struct FaultCampaign::FrontierScratch {
  /// A flip-flop whose state diverged on the last clock edge, with the
  /// faulty state word.
  struct DivFlop {
    netlist::NodeId ff;
    std::uint64_t value;
  };

  /// Divergence record per node, packed so one cache line carries both the
  /// "is it divergent this cycle" answer and the faulty word.
  struct DivState {
    std::uint64_t epoch;
    std::uint64_t val;
  };

  std::vector<DivState> div;               // divergence epoch + faulty word
  std::vector<std::uint64_t> queue_epoch;  // node queued this cycle
  std::vector<std::vector<netlist::NodeId>> buckets;  // worklist per level
  std::vector<netlist::NodeId> divergent_pos;  // PO drivers marked this cycle
  std::vector<netlist::NodeId> captures;       // flops capturing divergence
  std::vector<DivFlop> div_ffs, next_div_ffs;
  std::vector<std::uint64_t> sched;  // site divergence bitmask per cycle
  std::uint64_t epoch = 0;
  std::uint64_t evals = 0;        // nodes re-evaluated (fi.frontier_nodes)
  std::uint64_t early_exits = 0;  // quiesced fault-cycles (fi.early_exits)

  void ensure(std::size_t n, int max_level) {
    if (div.size() != n) {
      div.assign(n, DivState{0, 0});
      queue_epoch.assign(n, 0);
      epoch = 0;
    }
    if (static_cast<int>(buckets.size()) < max_level + 1)
      buckets.resize(static_cast<std::size_t>(max_level) + 1);
  }
};

FaultResult FaultCampaign::simulate_frontier(const Fault& fault,
                                             int seu_cycle,
                                             FrontierScratch& s) const {
  s.ensure(num_nodes_, lev_.max_level);
  FaultResult out;
  out.fault = fault;
  const NodeId site = fault.node;
  const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0;
  const bool seu = seu_cycle >= 0;
  // A stuck flop never captures its D; a flipped one captures it again on
  // the edge that ends its flip cycle.
  const NodeId pinned = seu ? netlist::kNoNode : site;

  // Divergence schedule, one strided sweep over the golden trace up front:
  // bit t says the forced word differs from golden on cycle t (an SEU
  // differs on its flip cycle only). Quiet cycles are then decided from
  // this bitmask (plus the carried flop state) without touching the trace,
  // which is what makes a mostly-quiescent fault nearly free to simulate.
  s.sched.assign((static_cast<std::size_t>(config_.cycles) + 63) / 64, 0);
  if (seu) {
    const auto c = static_cast<std::size_t>(seu_cycle);
    s.sched[c >> 6] |= 1ULL << (c & 63);
  } else {
    for (int t = 0; t < config_.cycles; ++t)
      if (trace_[static_cast<std::size_t>(t) * num_nodes_ + site] != stuck)
        s.sched[static_cast<std::size_t>(t) >> 6] |= 1ULL << (t & 63);
  }
  const std::uint64_t* sched = s.sched.data();

  std::array<std::uint64_t, netlist::kMaxFanins> ins{};
  std::array<std::uint32_t, sim::kLanes> lane_cycles{};

  // Hot-loop state as raw pointers: the pass must never touch the
  // string-bearing Node structs or the shared fanout cache (FrontierGraph
  // is the SoA shadow built once per campaign).
  const FrontierGraph& g = fgraph_;
  const std::uint8_t* kind = g.kind.data();
  const std::uint8_t* fanin_count = g.fanin_count.data();
  const std::uint32_t* fanin = g.fanin.data();
  const std::uint32_t* comb_off = g.comb_off.data();
  const std::uint64_t* comb_edge = g.comb_edge.data();
  const std::uint32_t* flop_off = g.flop_off.data();
  const std::uint32_t* flop_edge = g.flop_edge.data();
  const std::uint8_t* is_po = is_po_driver_.data();
  FrontierScratch::DivState* div = s.div.data();
  std::uint64_t* queue_epoch = s.queue_epoch.data();
  std::uint64_t evals = 0;

  s.div_ffs.clear();
  for (int t = seu ? seu_cycle : 0; t < config_.cycles; ++t) {
    const std::size_t tw = static_cast<std::size_t>(t) >> 6;
    const std::uint64_t tb = 1ULL << (t & 63);
    if (!(sched[tw] & tb) && s.div_ffs.empty()) {
      // The fault is indistinguishable from golden this cycle, and no
      // divergent state survives from the previous one.
      ++s.early_exits;
      continue;
    }
    const std::uint64_t* golden_row =
        trace_.data() + static_cast<std::size_t>(t) * num_nodes_;
    const std::uint64_t ep = ++s.epoch;
    int min_lvl = lev_.max_level + 1;
    int max_lvl = -1;
    s.divergent_pos.clear();
    s.captures.clear();

    // Record a node's divergence from golden and schedule its fanout:
    // combinational consumers join the level-ordered worklist, flip-flops
    // capture the divergent D on this cycle's clock edge (unless the flop
    // is the stuck fault site itself).
    auto mark_divergent = [&](NodeId n, std::uint64_t v) {
      div[n] = {ep, v};
      if (is_po[n]) s.divergent_pos.push_back(n);
      for (std::uint32_t e = comb_off[n]; e < comb_off[n + 1]; ++e) {
        const std::uint64_t entry = comb_edge[e];
        const NodeId c = static_cast<NodeId>(entry);
        if (queue_epoch[c] == ep) continue;
        queue_epoch[c] = ep;
        const int lvl = static_cast<int>(entry >> 32);
        s.buckets[static_cast<std::size_t>(lvl)].push_back(c);
        if (lvl < min_lvl) min_lvl = lvl;
        if (lvl > max_lvl) max_lvl = lvl;
      }
      for (std::uint32_t e = flop_off[n]; e < flop_off[n + 1]; ++e) {
        const NodeId c = flop_edge[e];
        if (c != pinned) s.captures.push_back(c);
      }
    };

    // Seed the frontier. While forced, the site first pre-claims its
    // worklist slot — a forced value never depends on its fanins, so even
    // when the site's own divergence wraps around through flip-flop state
    // it must not be re-evaluated — then the site (when the schedule says
    // its forced word differs from golden this cycle) and flip-flops whose
    // state diverged on the previous clock edge (DFFs never appear in the
    // combinational CSR, so they are never queued). A stuck site is forced
    // on every cycle, a flipped one on its flip cycle only.
    const bool diverges = (sched[tw] & tb) != 0;
    if (diverges || !seu) queue_epoch[site] = ep;
    if (diverges) mark_divergent(site, seu ? ~golden_row[site] : stuck);
    for (const auto& df : s.div_ffs) mark_divergent(df.ff, df.value);

    // Drain the worklist in ascending level order; marking a node only
    // ever queues strictly deeper levels, so one sweep settles the cycle
    // and every queued node is evaluated exactly once (queue_epoch dedups
    // at push time).
    for (int lvl = min_lvl; lvl <= max_lvl; ++lvl) {
      auto& bucket = s.buckets[static_cast<std::size_t>(lvl)];
      for (const NodeId n : bucket) {
        ++evals;
        const std::uint32_t* fi =
            fanin + static_cast<std::size_t>(n) * netlist::kMaxFanins;
        const std::size_t fc = fanin_count[n];
        // Branchless gather: whether a fanin is divergent this cycle is
        // data-dependent and unpredictable, so a select beats a branch
        // here by a wide margin.
        for (std::size_t j = 0; j < fc; ++j) {
          const NodeId f = fi[j];
          const std::uint64_t m = static_cast<std::uint64_t>(0) -
                                  static_cast<std::uint64_t>(div[f].epoch == ep);
          ins[j] = (div[f].val & m) | (golden_row[f] & ~m);
        }
        const std::uint64_t v =
            eval_cell(static_cast<CellKind>(kind[n]), ins.data());
        if (v != golden_row[n]) mark_divergent(n, v);
      }
      bucket.clear();
    }

    // Accumulate the primary-output mismatches: the OR over the divergent
    // PO drivers (every other driver matches golden).
    if (!s.divergent_pos.empty()) {
      std::uint64_t m = 0;
      for (const NodeId p : s.divergent_pos) m |= div[p].val ^ golden_row[p];
      if (m) {
        if (out.first_detect_cycle < 0)
          out.first_detect_cycle = static_cast<std::int32_t>(t);
        out.detected_lanes |= m;
        out.mismatch_cycles += static_cast<std::uint32_t>(std::popcount(m));
        for (std::uint64_t mm = m; mm; mm &= mm - 1)
          ++lane_cycles[static_cast<std::size_t>(std::countr_zero(mm))];
      }
    }

    // Clock edge: flops whose D diverged carry the divergence into the
    // next cycle; every other flop matches golden and simply drops out.
    s.next_div_ffs.clear();
    for (const NodeId ff : s.captures) {
      const NodeId d =
          fanin[static_cast<std::size_t>(ff) * netlist::kMaxFanins];
      s.next_div_ffs.push_back({ff, div[d].val});
    }
    s.div_ffs.swap(s.next_div_ffs);
  }
  s.evals += evals;

  const auto threshold =
      static_cast<std::uint32_t>(config_.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane)
    if (lane_cycles[static_cast<std::size_t>(lane)] >= threshold)
      out.dangerous_lanes |= (1ULL << lane);
  return out;
}

FaultResult FaultCampaign::simulate_fault(const Fault& fault) const {
  if (!golden_ready_)
    throw std::runtime_error("simulate_fault: golden trace not recorded");
  FrontierScratch scratch;
  FaultResult result = simulate_frontier(fault, -1, scratch);
  result.cone_size = static_cone_size(fault.node);
  return result;
}

CampaignResult FaultCampaign::run_frontier(const std::vector<Fault>& faults) {
  CampaignResult out;
  out.config = config_;
  out.num_nodes = num_nodes_;
  util::Timer timer;

  // Per input fault: the input index whose simulation supplies its verdict
  // (itself unless collapse-equivalence sharing maps it onto the first
  // input occurrence of its class representative — the BUF/INV chain rule
  // makes their PO corruption, and so every verdict field, identical) and
  // its own static cone size (SA0/SA1 share one BFS).
  const std::size_t n = faults.size();
  std::vector<std::uint32_t> sim_as(n);
  std::vector<std::uint32_t> simulated;  // inputs that get their own pass
  std::vector<std::uint32_t> cone_size(n);
  {
    obs::Span span("fi_plan");
    CollapsedFaults collapsed;
    if (config_.collapse_equivalent) collapsed = collapse_faults(*nl_);
    std::unordered_map<std::uint64_t, std::uint32_t> first_index;
    first_index.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i)
      first_index.emplace(fault_key(faults[i]), static_cast<std::uint32_t>(i));
    constexpr std::uint32_t kUnknown = 0xFFFFFFFFu;
    std::vector<std::uint32_t> site_cone(num_nodes_, kUnknown);
    for (std::size_t i = 0; i < n; ++i) {
      Fault rep = faults[i];
      if (config_.collapse_equivalent) {
        const Fault& r = collapsed.representative(faults[i]);
        if (r.node != netlist::kNoNode) rep = r;
      }
      const auto it = first_index.find(fault_key(rep));
      sim_as[i] = it != first_index.end() ? it->second
                                          : static_cast<std::uint32_t>(i);
      if (sim_as[i] == i) simulated.push_back(static_cast<std::uint32_t>(i));
      std::uint32_t& cone = site_cone[faults[i].node];
      if (cone == kUnknown) cone = static_cone_size(faults[i].node);
      cone_size[i] = cone;
    }
  }

  out.faults.resize(n);
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> early{0};
  {
    obs::Span span("fi_sim");
    pull_each(config_.num_threads, simulated.size(), [&](const auto& next) {
      FrontierScratch scratch;
      for (std::size_t k; next(k);) {
        const std::uint32_t i = simulated[k];
        out.faults[i] = simulate_frontier(faults[i], -1, scratch);
      }
      evals.fetch_add(scratch.evals, std::memory_order_relaxed);
      early.fetch_add(scratch.early_exits, std::memory_order_relaxed);
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sim_as[i] != i) out.faults[i] = out.faults[sim_as[i]];
    out.faults[i].fault = faults[i];
    out.faults[i].cone_size = cone_size[i];
  }

  out.simulated_faults = static_cast<std::uint32_t>(simulated.size());
  out.num_batches = out.simulated_faults;
  out.frontier_evals = evals.load();
  out.early_exit_cycles = early.load();
  auto& reg = obs::registry();
  reg.counter("fi.frontier_nodes").add(out.frontier_evals);
  reg.counter("fi.early_exits").add(out.early_exit_cycles);
  out.fault_seconds = timer.seconds();
  return out;
}

std::uint32_t FaultCampaign::static_cone_size(NodeId site) const {
  std::uint32_t count = 0;
  for (const NodeId id : transitive_fanout(site))
    if (is_fault_site(*nl_, id)) ++count;
  return count;
}

CampaignResult FaultCampaign::run(const std::vector<Fault>& faults) {
  if (!golden_ready_) run_golden();

  // Static pruning: a fault whose site cannot reach any primary-output
  // driver can never corrupt an output, so it is not simulated.
  const bool prune = config_.static_prune && !faults.empty();
  std::vector<char> observable;
  std::vector<Fault> must_sim;
  double triage_seconds = 0.0;
  if (prune) {
    obs::Span span("sla_triage");
    util::Timer timer;
    observable = netlist::reach_backward_from_outputs(*nl_);
    must_sim.reserve(faults.size());
    for (const Fault& f : faults)
      if (observable[f.node]) must_sim.push_back(f);
    triage_seconds = timer.seconds();
  }
  const std::vector<Fault>& active = prune ? must_sim : faults;

  CampaignResult out = run_frontier(active);
  out.golden_seconds = golden_seconds_;
  if (!prune) return out;

  const std::size_t pruned = faults.size() - must_sim.size();
  out.triage_seconds = triage_seconds;
  out.pruned_faults = static_cast<std::uint32_t>(pruned);
  auto& reg = obs::registry();
  reg.counter("sla.pruned").add(pruned);
  reg.counter("sla.must_simulate").add(must_sim.size());
  if (pruned == 0) return out;

  // Scatter the simulated subset back and synthesize the pruned results:
  // zero detections and the cone_size simulation would report.
  std::vector<FaultResult> full(faults.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (observable[faults[i].node]) {
      full[i] = out.faults[cursor++];
    } else {
      full[i].fault = faults[i];
      full[i].cone_size = static_cone_size(faults[i].node);
    }
  }
  out.faults = std::move(full);
  return out;
}

CampaignResult FaultCampaign::run_all() {
  return run(full_fault_list(*nl_));
}

FaultCampaign::TransientResult FaultCampaign::simulate_transient(
    NodeId node, int inject_cycle) const {
  if (!golden_ready_)
    throw std::runtime_error("simulate_transient: golden trace not recorded");
  if (inject_cycle < 0 || inject_cycle >= config_.cycles)
    throw std::runtime_error("simulate_transient: cycle out of range");
  if (node >= num_nodes_ || !is_fault_site(*nl_, node))
    throw std::runtime_error("simulate_transient: not a fault site");

  FrontierScratch scratch;
  const FaultResult r = simulate_frontier({node, false}, inject_cycle, scratch);
  return {node, inject_cycle, r.detected_lanes, r.mismatch_cycles};
}

std::vector<double> FaultCampaign::transient_criticality(
    const std::vector<NodeId>& nodes,
    const std::vector<int>& inject_cycles) const {
  if (inject_cycles.empty())
    throw std::runtime_error("transient_criticality: no injection cycles");
  std::vector<double> out;
  out.reserve(nodes.size());
  for (const NodeId node : nodes) {
    double affected = 0.0;
    for (const int cycle : inject_cycles)
      affected += std::popcount(simulate_transient(node, cycle).affected_lanes);
    out.push_back(affected /
                  (64.0 * static_cast<double>(inject_cycles.size())));
  }
  return out;
}

}  // namespace fcrit::fault
