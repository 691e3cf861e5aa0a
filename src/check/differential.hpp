// The five differential oracles of the correctness harness.
//
// Each check cross-examines a hand-optimized production path against an
// independent (slower, simpler) reference on the same design and returns a
// human-readable divergence description, or "" when the paths are
// bit-identical:
//
//   diff_packed_vs_scalar     PackedSimulator lane L  vs  a scalar
//                             single-pattern interpreter run per lane,
//                             every node value, every cycle
//   diff_fault_oracles        frontier simulate_fault  vs  the
//                             cone-sweep reference (cone_size included)
//                             vs  serial fault injection through
//                             PackedSimulator::inject; plus
//                             simulate_transient  vs  the sweep's flip
//                             mode at each sampled site
//   diff_campaign_equivalence frontier+collapse campaign (1/2/4
//                             threads)  vs  frontier without collapse
//                             sharing  vs  the cone-sweep reference,
//                             whole-universe run_all verdicts and
//                             cone sizes, plus serial
//                             PackedSimulator::inject replay on a
//                             strided fault subset
//   diff_static_prune         static fault pruning: campaign with
//                             pruning on vs off bit-identical, every
//                             pruned fault re-simulated (must be Benign)
//                             and checked unreachable from its site by
//                             a forward BFS
//   diff_serve_vs_pipeline    serve::ScoringEngine (cache + worker pool)
//                             vs  direct in-process scoring of the same
//                             bundle artifact
//
// The harness (src/check/harness.hpp) drives these over a randomized
// netlist fuzzer; tests also aim them at the registered designs.
#pragma once

#include <cstdint>
#include <string>

#include "src/check/scalar_sim.hpp"
#include "src/designs/designs.hpp"
#include "src/fault/fault_sim.hpp"

namespace fcrit::check {

/// Run `cycles` clock cycles of the design's stimulus (seeded with `seed`)
/// through PackedSimulator and through one ScalarSimulator per lane and
/// compare every node word bit-for-bit after each combinational settle.
/// `bug` plants a deliberate defect in the scalar reference (self-test).
std::string diff_packed_vs_scalar(const designs::Design& design, int cycles,
                                  std::uint64_t seed,
                                  ScalarBug bug = ScalarBug::kNone);

/// For up to `max_faults` faults (deterministically strided across the full
/// stuck-at universe), compare the campaign's frontier verdict against the
/// cone-sweep reference (src/check/cone_sweep.hpp) and that against serial
/// re-simulation with PackedSimulator::inject: dangerous_lanes,
/// detected_lanes, mismatch_cycles and first_detect_cycle must all agree
/// exactly, and cone_size between frontier and sweep. Each sampled site is
/// also flipped at cycles 0, cycles/2 and cycles-1, and simulate_transient
/// must match the sweep's flip mode (affected lanes, mismatch cycles).
std::string diff_fault_oracles(const designs::Design& design,
                               const fault::CampaignConfig& config,
                               int max_faults);

/// Deliberate defects planted in one campaign leg so tests (and the CLI
/// `--self-test`) can prove the campaign oracle is able to fail. kNone
/// for real checking.
enum class CampaignBug {
  kNone = 0,
  /// Bump fault 0's mismatch_cycles in the frontier+collapse@2t leg by one.
  kMismatchOffByOne,
  /// Clear detected_lanes on the first detected fault of that leg.
  kDropDetection,
};

/// Run the full stuck-at campaign (run_all) through every campaign leg —
/// frontier without collapse sharing, and frontier+collapse at 1, 2 and 4
/// threads — and require byte-identical dangerous_lanes / detected_lanes /
/// mismatch_cycles / first_detect_cycle / cone_size for every fault
/// against the cone-sweep reference run one fault at a time over the same
/// universe. Additionally replays up to `max_faults` faults (strided
/// across the universe) through serial PackedSimulator::inject as an
/// engine-independent reference.
std::string diff_campaign_equivalence(const designs::Design& design,
                                      const fault::CampaignConfig& config,
                                      int max_faults,
                                      CampaignBug bug = CampaignBug::kNone);

/// Deliberate defects planted in the static-prune oracle's pruning
/// decision so tests (and `--self-test`) can prove the oracle has teeth.
enum class PruneBug {
  kNone = 0,
  /// Mark pruned a kept fault that simulates all-zero but whose site
  /// reaches an output: only the structural check can catch it.
  kPruneReachable,
  /// Mark pruned a kept (preferably detected) fault: the re-simulation
  /// check must observe it.
  kPruneObservable,
};

/// Gate the campaign's static pruning (faults whose site cannot reach an
/// output driver are skipped) end to end:
///   1. run_all with pruning on must skip exactly the faults whose site
///      reaches no output driver and be bit-identical (including
///      cone_size) to run_all with pruning off; every pruned fault must
///      come back all-zero (undetected, zero mismatch cycles) from that
///      prune-off simulation,
///   2. a forward BFS from every pruned site must find no primary-output
///      driver.
std::string diff_static_prune(const designs::Design& design,
                              const fault::CampaignConfig& config,
                              PruneBug bug = PruneBug::kNone);

/// Pack a deterministic (untrained) model bundle for the design into
/// `scratch_dir`, score it through a multi-threaded ScoringEngine — twice
/// synchronously (second hit must come from the LRU cache) and once through
/// the worker-pool submit path — and compare every probability, class and
/// score against a direct in-process replay of the scoring pipeline.
std::string diff_serve_vs_pipeline(const designs::Design& design,
                                   const std::string& scratch_dir,
                                   std::uint64_t seed);

}  // namespace fcrit::check
