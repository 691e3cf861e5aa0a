// Fault-injection campaign engine (the paper's Xcelium substitute).
//
// One golden pass records a cycle-consistent trace of every node value
// (64 workload lanes per word). Faults are then simulated differentially
// against that trace by one engine, an event-driven incremental resim with
// one frontier pass per simulated fault: per cycle a worklist is seeded at
// the forced fault site and at flip-flops whose state diverged on the
// previous edge; only nodes with a divergent fanin word are re-evaluated,
// in ascending level order through the fanout CSR, and propagation stops
// the moment a node's word matches golden again (logic masking). A cycle
// whose seeds produce no divergence costs O(1) and is counted as an early
// exit. Structural collapse-equivalence classes share one simulation
// (`collapse_equivalent`). Campaign workers pull faults from one shared
// atomic cursor, and every fault's result lands at its own index.
//
// Per cycle, the divergent primary outputs are compared against the golden
// trace, giving a per-lane mismatch mask; a lane whose mismatch-cycle count
// reaches `min_mismatch_cycles` marks the fault "Dangerous" for that
// workload — the verdict Algorithm 1 aggregates. FaultResults are
// byte-identical for every fault in the stuck-at universe, at any thread
// count and in any fault order, and equal to the test-only cone-sweep
// reference in src/check/cone_sweep.hpp (tests/fault_batch_test.cpp and
// the `fcrit check` oracles hold this line).
//
// Transient (SEU) injection runs the same frontier pass, started at the
// injection cycle with the site flipped for that one cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/levelize.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::fault {

/// The campaign engine: only the event-driven frontier remains.
enum class FiEngine {
  kFrontier,
};

struct CampaignConfig {
  int cycles = 256;        // workload length in clock cycles
  std::uint64_t seed = 1;  // stimulus seed (same for golden and faulty)

  /// A lane (= workload) is "Dangerous" for a fault when the fraction of
  /// cycles with corrupted primary outputs reaches this value (a fault
  /// report's severity verdict: persistent functional corruption, not a
  /// single glitch). 0 degenerates to "any mismatch".
  double dangerous_cycle_fraction = 0.10;

  /// Unused: the frontier is the only engine. Kept only because the
  /// benchmark harness (fcritbench/) still assigns it; delete it with the
  /// next benchmark change.
  FiEngine engine = FiEngine::kFrontier;

  /// Skip faults whose site cannot reach any primary-output driver
  /// (netlist::reach_backward_from_outputs): they are reported with
  /// all-zero verdicts and their static cone_size, bit-identical to what
  /// simulation would have produced. Escape hatch: --no-static-prune / set
  /// false here. The `diff_static_prune` oracle in fcrit check
  /// re-simulates every pruned fault to enforce that contract.
  bool static_prune = true;

  /// Unused: every frontier campaign runs one pass per simulated fault.
  /// Kept only because the benchmark harness (fcritbench/) still assigns
  /// it; delete it with the next benchmark change.
  bool batch_faults = true;

  /// Simulate one representative per structural
  /// collapse-equivalence class (BUF/INV chain rule, src/fault/collapse)
  /// and share its verdict — exact, because equivalent faults corrupt the
  /// primary outputs identically; each member still reports its own
  /// cone_size.
  bool collapse_equivalent = true;

  /// Worker lanes for the per-fault loop; each lane pulls the next fault
  /// from one shared cursor (the golden trace is shared read-only). -1 =
  /// inherit the process pool configured via --jobs / FCRIT_THREADS
  /// (util::num_threads), 0 = hardware concurrency, N >= 1 = exactly N.
  /// Results are bit-identical regardless of thread count.
  int num_threads = -1;

  /// Effective mismatch-cycle threshold implied by the fraction: the
  /// smallest cycle count whose fraction of `cycles` reaches
  /// `dangerous_cycle_fraction` — i.e. ceil(fraction * cycles), computed
  /// with a 1e-9 tolerance so fractions that land exactly on a cycle
  /// count (0.25 * 256 = 64) are not bumped by FP noise. Clamped to >= 1
  /// (fraction 0 degenerates to "any mismatch").
  int min_mismatch_cycles() const;
};

/// Per-fault campaign outcome.
struct FaultResult {
  Fault fault;
  std::uint64_t dangerous_lanes = 0;  // bit L: Dangerous under workload L
  std::uint64_t detected_lanes = 0;   // bit L: any PO mismatch at all
  std::uint32_t mismatch_cycles = 0;  // total mismatching (cycle, lane) pairs
  std::uint32_t cone_size = 0;        // #nodes in the fault's static cone
  /// First cycle with any PO corruption in any workload (-1: never).
  std::int32_t first_detect_cycle = -1;

  int dangerous_count() const;
  int detected_count() const;
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<FaultResult> faults;
  double golden_seconds = 0.0;
  double fault_seconds = 0.0;
  std::size_t num_nodes = 0;

  // Frontier-engine statistics.
  std::uint32_t simulated_faults = 0;   // after collapse-equivalence sharing
  /// Equals simulated_faults (one pass per simulated fault); kept only
  /// because the benchmark harness (fcritbench/) still reads it.
  std::uint32_t num_batches = 0;
  std::uint64_t frontier_evals = 0;     // node re-evaluations across passes
  std::uint64_t early_exit_cycles = 0;  // fault-cycles skipped as quiescent

  // Static-pruning statistics (zero when static_prune is off).
  std::uint32_t pruned_faults = 0;  // dead-cone sites, never simulated
  double triage_seconds = 0.0;      // output-reachability pass time
};

class FaultCampaign {
 public:
  FaultCampaign(const netlist::Netlist& nl, const sim::StimulusSpec& stimulus,
                CampaignConfig config);

  const CampaignConfig& config() const { return config_; }
  const netlist::Netlist& netlist() const { return *nl_; }
  bool golden_ready() const { return golden_ready_; }

  /// Run golden + every fault in `faults`.
  CampaignResult run(const std::vector<Fault>& faults);

  /// Convenience: run the full stuck-at universe.
  CampaignResult run_all();

  /// Golden value trace: word of node `id` during cycle `t` (valid after
  /// run()/run_golden()).
  std::uint64_t golden_value(int t, netlist::NodeId id) const {
    return trace_[static_cast<std::size_t>(t) * num_nodes_ + id];
  }

  /// Record the golden trace only (run() does this implicitly).
  void run_golden();

  /// Simulate a single fault against the recorded golden trace (one
  /// frontier pass). Thread-safe once the golden trace is recorded.
  FaultResult simulate_fault(const Fault& fault) const;

  /// Transient (SEU) injection: flip the node's value for exactly one
  /// cycle, then let the fault-free dynamics run on the corrupted state.
  /// Returns the lanes whose primary outputs were ever corrupted and the
  /// total corrupted (cycle, lane) count. `node` must be a fault site
  /// (fault::is_fault_site) and `inject_cycle` inside the campaign;
  /// anything else throws std::runtime_error. Thread-safe like
  /// simulate_fault.
  struct TransientResult {
    netlist::NodeId node = netlist::kNoNode;
    int inject_cycle = 0;
    std::uint64_t affected_lanes = 0;
    std::uint32_t mismatch_cycles = 0;
  };
  TransientResult simulate_transient(netlist::NodeId node,
                                     int inject_cycle) const;

  /// Per-node SEU criticality: fraction of (workload, injection-cycle)
  /// pairs whose outputs get corrupted, over the given injection cycles.
  std::vector<double> transient_criticality(
      const std::vector<netlist::NodeId>& nodes,
      const std::vector<int>& inject_cycles) const;

 private:
  struct FrontierScratch;  // per-worker frontier state; see fault_sim.cpp

  /// Structure-of-arrays shadow of the netlist for the frontier hot path:
  /// byte-wide kinds, flat fanin slots, and the fanout CSR split into
  /// combinational edges (with the consumer's level pre-packed into the
  /// entry) and flip-flop edges — so the per-cycle worklist never touches
  /// the string-bearing Node structs or the level table.
  struct FrontierGraph {
    std::vector<std::uint8_t> kind;         // CellKind per node
    std::vector<std::uint8_t> fanin_count;  // per node
    std::vector<std::uint32_t> fanin;       // kMaxFanins slots per node
    std::vector<std::uint32_t> comb_off;    // num_nodes + 1 CSR offsets
    std::vector<std::uint64_t> comb_edge;   // level << 32 | consumer id
    std::vector<std::uint32_t> flop_off;    // num_nodes + 1 CSR offsets
    std::vector<std::uint32_t> flop_edge;   // DFF consumers
  };

  std::vector<netlist::NodeId> transitive_fanout(netlist::NodeId src) const;
  /// The cone_size reported for a fault at `site` (its static transitive
  /// fanout without sources): simulated and statically pruned faults both
  /// take it from here, so the campaign output is bit-identical with
  /// pruning on or off.
  std::uint32_t static_cone_size(netlist::NodeId site) const;
  void build_frontier_graph();
  /// One frontier pass for the fault at `fault.node`, reusing the worker's
  /// scratch. `seu_cycle < 0`: the site is stuck at `fault.stuck_value` on
  /// every cycle. Otherwise the pass starts at `seu_cycle` (the design is
  /// golden before it) and the site carries its inverted golden word on
  /// that cycle only. Leaves cone_size 0; callers fill it from
  /// static_cone_size.
  FaultResult simulate_frontier(const Fault& fault, int seu_cycle,
                                FrontierScratch& s) const;
  CampaignResult run_frontier(const std::vector<Fault>& faults);

  const netlist::Netlist* nl_;
  sim::StimulusSpec stimulus_;
  CampaignConfig config_;
  netlist::Levelization lev_;
  std::size_t num_nodes_ = 0;
  bool golden_ready_ = false;
  std::vector<std::uint64_t> trace_;  // cycles × nodes
  double golden_seconds_ = 0.0;
  std::vector<std::uint8_t> is_po_driver_;  // indexed by NodeId
  FrontierGraph fgraph_;
};

}  // namespace fcrit::fault
